import numpy as np
import pytest

import chcon.linalg as la
from chcon.sampling import rng_from


@pytest.fixture
def rng():
    return rng_from(20240817)


def seeded(*indices) -> np.random.Generator:
    return rng_from(20240817, *indices)


def evaluate_pair(ch, pair) -> float:
    """The trace-norm contraction maximand (1/2) || T(psi psi^dag - phi phi^dag) ||_1
    at a witness pair, to check a reported value against its witness."""
    return 0.5 * la.trace_norm(ch.apply(pair.difference()))
