"""Centralized numeric tolerances.

Every comparison threshold used by the geometry and solver modules lives
here so the tolerance story stays auditable in one place.
"""

# Causal bucketing of |x*x| for (Euclidean-normalized) face centers.
TAU_CAUSAL = 1e-10

# Triple sinh compatibility residual bound.
TAU_COMPAT = 1e-9

# Magnitudes below this are sign-agnostic in position classification.
TAU_SIGN = 1e-9

# Side lengths at or below this are rejected as degenerate.
TAU_LEN = 1e-8

# Definiteness margin, scaled by matrix norm.
TAU_EIG = 1e-12
