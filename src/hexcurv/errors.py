"""Exception types shared across the package."""


class HexcurvError(Exception):
    """Base class for all domain errors raised by hexcurv."""


class DomainViolation(HexcurvError):
    """Input lies outside the domain of the requested map."""


class NotAdmissible(HexcurvError):
    """An edge length degenerates (cosh l <= 1) for the given factors."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class DegenerateHexagon(HexcurvError):
    """Hexagon side lengths outside the range double precision resolves."""


class InconsistentRatio(HexcurvError):
    """No real edge split realizes the requested partial-length ratio."""


class IncompatibleSplits(HexcurvError):
    """Edge splits of a hexagon whose ratio product is not 1, or whose edge
    perpendiculars do not meet."""


class UnclassifiableSigns(HexcurvError):
    """Sign vector of (h, q) matches no row of the position table."""


class DualCenterOutside(HexcurvError):
    """A dual edge center falls outside the hyperbolic plane."""


class FamilyConstraint(HexcurvError):
    """Structure weights or special-vertex layout violate family rules."""


class UnsupportedWeightRange(HexcurvError):
    """Mixed-family weights fall in a window outside the supported ranges."""


class MeshFormatError(HexcurvError):
    """Mesh text could not be parsed; carries per-line diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in self.diagnostics))


class DanglingReference(HexcurvError):
    """A record references an id that does not exist or repeats one, or a
    boundary component lies on no face."""


class OutOfRange(HexcurvError):
    """Index outside the valid range of boundary components."""


class NotConverged(HexcurvError):
    """Newton solve ended without convergence: its iteration or damping
    budget ran out or a Jacobian was exactly singular.  Carries the last
    accepted iterate (factors) and the solve's report."""

    def __init__(self, message, factors=None, report=None):
        super().__init__(message)
        self.factors = factors
        self.report = report


class NoFeasibleStart(HexcurvError):
    """Feasibility repair failed to produce an admissible starting point."""


class PathLeavesDomain(HexcurvError):
    """An integration segment exits the admissible polytope."""
