import numpy as np
import pytest

import chcon.linalg as la
import chcon.separability
from chcon.channels import KrausChannel, extremality_gap
from chcon.sampling import random_channel, rng_from


@pytest.fixture
def rng():
    return rng_from(20240817)


@pytest.fixture
def kernel_sizes(monkeypatch) -> list:
    """The number of problems of every batched chi-square solver call
    (``separability._min_chi2``) made during the test, in order."""
    sizes = []
    kernel = chcon.separability._min_chi2

    def counted(taus, *args):
        sizes.append(len(taus))
        return kernel(taus, *args)

    monkeypatch.setattr(chcon.separability, "_min_chi2", counted)
    return sizes


def seeded(*indices) -> np.random.Generator:
    return rng_from(20240817, *indices)


def evaluate_pair(ch, pair) -> float:
    """The trace-norm contraction maximand (1/2) || T(psi psi^dag - phi phi^dag) ||_1
    at a witness pair, to check a reported value against its witness."""
    return 0.5 * la.trace_norm(ch.apply(pair.difference()))


def random_extremal_nonunital_qubit_channel(rng: np.random.Generator) -> KrausChannel:
    """Random Choi-rank-2 qubit channel that is extremal and non-unital."""
    for _ in range(500):
        ch = random_channel(rng, 2, env_dim=2)
        acc = sum(k @ la.dag(k) for k in ch.kraus)
        if np.linalg.norm(acc - np.eye(2), 2) < 1e-3:
            continue
        if extremality_gap(ch) > 1e-6:
            return ch
    raise RuntimeError("failed to sample an extremal non-unital qubit channel")
