"""Exception hierarchy for the monodeform toolkit."""


class MonodeformError(Exception):
    """Base class for all toolkit errors."""


class SingularPoint(MonodeformError):
    """A contour or a sample point meets a point it must avoid: it passes within the
    exclusion radius of a singular point (a singularity of A, a pole of H, or the branch
    point 0 of a power or log weight), a path segment starts on a tracked point, an arc
    runs through one, a loop crowds another singularity or encloses its basepoint, or a
    particular solution is asked for outside (0, 1)."""


class BranchRequired(MonodeformError):
    """A multivalued factor was evaluated without branch-tracking data."""


class NoConvergence(MonodeformError):
    """A series exceeded its term budget without converging."""


class DegenerateParams(MonodeformError):
    """Parameters violate the genericity needed for a local solution basis."""


class StepSizeUnderflow(MonodeformError):
    """The adaptive integrator failed to advance."""


class NonFiniteValue(MonodeformError):
    """A non-finite value appeared during integration."""


class IllConditioned(MonodeformError):
    """A matrix exceeded the condition-number guard (1e12)."""


class SeriesRouteUnavailable(MonodeformError):
    """The Frobenius series route cannot integrate the contour: the basis has
    no series evaluator, a from-zero contour leaves the positive real axis,
    or the contour leaves the union of the two series zones, |z| <= 0.88 and
    |1 - z| <= 0.88 (a zone switch needs a node in both)."""


class NonIntegrableEndpoint(MonodeformError):
    """A correction integral diverges at its singular endpoint."""


class ShapeMismatch(MonodeformError):
    """Matrix operands have incompatible shapes."""


class UnsupportedKind(MonodeformError):
    """No closed-form jump law exists for the requested perturbation kind."""


class WronskianVanishes(MonodeformError):
    """The solution-basis Wronskian vanishes on the working range."""


class NonIntegrableWeight(MonodeformError):
    """The weight exponents violate endpoint integrability on [0, 1]."""


class NonIntegrableForcing(MonodeformError):
    """A variation-of-parameters quadrature has a divergent integrand."""


class SchemaError(MonodeformError):
    """A problem specification failed schema validation.

    Carries ``pointer``, a JSON-pointer-style location of the offending field.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer
