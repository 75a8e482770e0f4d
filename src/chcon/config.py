"""Numerical tolerances and run configuration shared across the package.

Default tolerances are sized for double precision at total dimension <= 16.
Every entry point that checks an invariant takes a ``Tolerances`` (or reads
the module default), so callers can loosen or tighten globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by validators and converters.

    herm:  allowed Hermiticity residual of states / Choi matrices
    psd:   allowed negative eigenvalue magnitude (positive semidefiniteness)
    tp:    allowed trace-preservation / unitarity / unitality residual
    conv:  allowed representation round-trip error (Choi 1-norm)
    supp:  relative eigenvalue threshold for support detection in the
           generalized inverse used by the chi-square divergence
    """

    herm: float = 1e-9
    psd: float = 1e-9
    tp: float = 1e-9
    conv: float = 1e-7
    supp: float = 1e-10

    def with_(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOL = Tolerances()

# Denominator of the p2 channel-constant certificate.  Kept as a single named
# constant; no attempt is made to tighten it.
P2_DENOMINATOR = 204800.0

# Universal accuracy constant below which long noisy memories provably fail.
EPSILON_0 = 1.0 / 128.0

# chi-square-to-separable threshold used as the contraction precondition.
CHISEP_THRESHOLD = 1.0 / 16.0

# Desk-scale cap on simulated qubits (total quantum dimension 2**cap).
DEFAULT_QUBIT_CAP = 4

# Cap on classical mixture blocks tracked by the simulator.
MAX_BLOCKS = 256


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility knobs shared by CLI commands and search routines.

    Identical ``RunConfig`` plus identical inputs must produce byte-identical
    JSON output; all randomness is derived from ``seed`` and per-restart
    indices, never from global state.
    """

    seed: int = 0
    restarts: int = 64
    trials: int = 200
    tol: Tolerances = field(default_factory=Tolerances)
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.restarts < 1 or self.trials < 1:
            raise ValueError("restarts and trials must be positive")
        if self.fmt not in ("json", "jsonl", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
