"""Exception hierarchy for the toolkit.

Input-contract violations (bad files, degenerate geometry, out-of-tolerance
data) are ordinary errors; the *Violation / *Alarm family signals that a
mathematically guaranteed property failed to verify, which always means a
kernel bug or a genuine counterexample and is treated as a finding, not a
crash.
"""


class MahlerError(Exception):
    """Base class for all toolkit errors."""


class InputError(MahlerError):
    """Invalid or rejected input data."""


class DegenerateInput(InputError):
    """Point set whose affine hull has dimension below 3."""


class ToleranceConflict(InputError):
    """Two distinct input points closer than tol but not identified by
    symmetrization; the caller must clean the data or lower tol."""


class SingularMatrix(InputError):
    """Linear map with |det| below tolerance."""


class NumericalDegeneracy(MahlerError):
    """Facet structure could not be certified within tolerance."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class ParallelismAmbiguity(MahlerError):
    """|theta . n| fell inside the undecidable band between exact parallelism
    and certified non-parallelism; perturb theta or switch kernels."""


class DegenerateDeformation(MahlerError):
    """Deformed hull collapsed below dimension 3."""


class NoPersistence(MahlerError):
    """No positive persistence half-width could be certified."""


class GenerationFailure(MahlerError):
    """Random polytope generation exhausted its retry budget."""


class FindingError(MahlerError):
    """Base for assertion-class findings (CLI exit code 2)."""


class DualityViolation(FindingError):
    """Vertex/facet counts or incidences of the polar disagree with the
    order-reversed lattice of the primal."""


class AffinenessViolation(FindingError):
    """t -> |P_t| failed the affine fit along a certified shadow system."""


class ConvexityViolation(FindingError):
    """t -> 1/|P_t polar| showed a negative second difference."""


class BoundViolation(FindingError):
    """Computed speed-space dimension fell below the Euler-type bound."""


class InternalInconsistency(FindingError):
    """Census or lattice data contradicted itself."""


class CounterexampleAlarm(FindingError):
    """A volume product fell below 32/3 beyond tolerance."""

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump
