"""The calibration child: fixed work shaped like an ergocert command.

Run as its own child process (`python calibration.py`), between the rounds
of timed commands, it measures how fast the machine is at that moment. It
starts an interpreter, imports numpy, parses a text of floats into an
array, multiplies small matrices in a loop and reduces a large temporary:
the same kinds of work a command does, in about 0.5 s. It never imports
ergocert, so a change to the program cannot change it. Each command's
sample is divided by the mean of the calibration times just before and
just after its round (bench.py), which cancels most of a shared host's
minute-scale swings in speed.
"""

import random

import numpy as np

ROWS, COLS = 2000, 101  # the parsed text: ~1.7 MB, about a third nonzero, like a factor file
PRODUCTS = 1500  # 101x101 matrix products
TEMPORARY = 200  # 200^3 doubles (64 MB), reduced like a pairwise semi-norm


def main() -> None:
    rng = random.Random(0)
    text = "\n".join(
        " ".join(repr(rng.random()) if rng.random() < 0.3 else "0.0" for _ in range(COLS)) for _ in range(ROWS)
    )
    values = np.array([[float(token) for token in line.split()] for line in text.splitlines()])
    factor = values[:101, :101] + np.eye(101)
    factor /= factor.sum(axis=1, keepdims=True)
    product = np.eye(101)
    for _ in range(PRODUCTS):
        product = factor @ product
    block = np.resize(values, (TEMPORARY, TEMPORARY))
    spread = np.abs(block[:, None, :] - block[None, :, :]).sum(axis=2).max()
    if not (np.isfinite(product).all() and np.isfinite(spread)):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
