"""chcon: quantitative analysis of noisy qubit channels.

Channel representations and conversions, trace-norm / chi-square contraction
coefficients, channel-constant decompositions, separability distances,
density-matrix simulation of noisy circuits with free classical memory, and
the resulting memory-time and fault-tolerance overhead bounds.
"""

from .channels import (
    BlochAffine,
    ChannelError,
    ChoiMatrix,
    DensityState,
    KrausChannel,
    StinespringIsometry,
    adjoint,
    amplitude_damping,
    bell_state,
    choi_to_kraus,
    completely_depolarizing,
    compose,
    dephasing,
    depolarizing,
    identity_channel,
    is_extreme_point,
    kraus_to_choi,
    preset,
    stinespring,
    tensor,
    to_bloch_affine,
    unitary_channel,
    validate_channel,
)
from .contraction import (
    ContractionReport,
    OrthogonalPair,
    eta_chi_lower,
    eta_tr,
    eta_tr_upper_choi,
    eta_tr_upper_minoutev,
    independence_trivial,
)
from .divergences import chi2_divergence, fidelity, trace_distance

__version__ = "0.1.0"
