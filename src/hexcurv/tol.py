"""Thresholds of the face-center record, the identity suites, the hexagon
command's side lengths and the definiteness check.  Other limits live
where they are read: _kernels.F_LIMIT, solver.SolveOptions,
solver.ENERGY_RTOL and the margins of conformal.SpecArrays.start."""

# Causal bucketing of |x*x| for (Euclidean-normalized) face centers.
TAU_CAUSAL = 1e-10

# Magnitudes below this are sign-agnostic in position classification.
TAU_SIGN = 1e-9

# Hexagon side lengths outside (TAU_LEN, LEN_MAX] are rejected as
# degenerate: below, cosh l - 1 sinks into rounding; above, rounding of
# cosh l (about e^{2l} eps) moves the hexagon's coordinates by more than
# the 1e-7 the dual splits are checked to.
TAU_LEN = 1e-7
LEN_MAX = 10.0

# Definiteness margin, scaled by matrix norm.
TAU_EIG = 1e-12
