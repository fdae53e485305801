"""The benchmark's workloads: one `ergocert generate` call each.

Why each one is there, the layer it loads and the layer it barely runs, is
in the workload's `why` in BENCHMARK.json and in README.md; `mixing-n50` is
defined here but left out of BENCHMARK.json (README.md says why). The
`--smoke` sizes run the same code path on files small enough for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n: int
    length: int
    alpha: float
    smoke_n: int
    smoke_length: int
    uses_seed: bool = True

    def size(self, smoke: bool) -> tuple[int, int]:
        return (self.smoke_n, self.smoke_length) if smoke else (self.n, self.length)

    def generate_args(self, seed: int, out: str, smoke: bool) -> list[str]:
        n, length = self.size(smoke)
        return [
            "generate", self.preset,
            "--n", str(n), "--length", str(length), "--alpha", repr(self.alpha),
            "--seed", str(seed), "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixing-n50", "positive-diagonal", n=50, length=1000, alpha=0.005, smoke_n=6, smoke_length=40),
        # The preset ignores the seed: every seed gives the same file.
        Workload(
            "periodic-n101", "periodic-counterexample", n=101, length=150, alpha=0.001,
            smoke_n=7, smoke_length=30, uses_seed=False,
        ),
        Workload("large-n200", "positive-diagonal", n=200, length=20, alpha=0.001, smoke_n=16, smoke_length=5),
    )
}
