"""Numerical tolerances and fixed constants shared across the package.

The tolerances are sized for double precision at total dimension <= 16.
They are fixed: every check of an invariant reads them from here.
"""

# Allowed Hermiticity residual of states and Choi matrices.
HERM_TOL = 1e-9
# Allowed negative eigenvalue magnitude (positive semidefiniteness).
PSD_TOL = 1e-9
# Allowed trace-preservation / unitarity / unitality residual.
TP_TOL = 1e-9
# Allowed representation round-trip error (Choi 1-norm).
CONV_TOL = 1e-7
# Relative eigenvalue threshold for support detection in the generalized
# inverse used by the chi-square divergence.
SUPP_TOL = 1e-10

# Denominator of the p2 channel-constant certificate.  Kept as a single named
# constant; no attempt is made to tighten it.
P2_DENOMINATOR = 204800.0

# Universal accuracy constant below which long noisy memories provably fail.
EPSILON_0 = 1.0 / 128.0

# chi-square-to-separable threshold used as the contraction precondition.
CHISEP_THRESHOLD = 1.0 / 16.0

# Desk-scale cap on a channel's input and output dimension and on the total
# dimension of a bipartite state.
DIM_CAP = 16

# Desk-scale cap on simulated qubits (total quantum dimension 2**cap).
QUBIT_CAP = 4

# Cap on classical mixture blocks tracked by the simulator.
MAX_BLOCKS = 256

# Absolute slack that chcon's verdicts give a chi-square separability value
# (the single-step contraction check and the cc-qq dimensional bound); chisep
# runs its second start only while its certified gap exceeds it.
VERDICT_SLACK = 1e-6
