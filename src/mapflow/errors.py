"""Exception hierarchy shared by all mapflow modules."""


class MapflowError(Exception):
    """Base class for all library errors."""


class DomainEscape(MapflowError):
    """A phase point left the extended action domain.

    ``index`` carries the orbit index at which the escape happened (or
    None for single-step operations).
    """

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class NoConvergence(MapflowError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class NotResonant(MapflowError):
    """n * omega_star failed the integrality certificate."""


class OrderTooLarge(MapflowError):
    """Requested interpolation order exceeds the supported maximum."""


class FitFailed(MapflowError):
    """A scaling-law fit could not be carried out."""


class DegenerateFit(FitFailed):
    """All differences fell below the numerical floor; no slope is defined."""


class QuadratureFailure(MapflowError):
    """Adaptive quadrature did not reach the requested tolerance."""


class PathExit(MapflowError):
    """An integration path left the region where the field is evaluable."""


class StepFailure(MapflowError):
    """A flow integration failed at one or more points.

    A batched flow sets ``failures``, ((point index, message), ...), and
    ``y``, the results with NaN at the failed points.
    """

    def __init__(self, msg, failures=(), y=None):
        super().__init__(msg)
        self.failures = failures
        self.y = y


class FormMismatch(MapflowError):
    """Operation needs a callback the model lacks: s or one of its derivatives."""


class SearchExhausted(MapflowError):
    """Exhaustive resonance search found no certified approximation."""


class OutOfDomain(MapflowError):
    """A root-finding iterate exited the extended action ball."""


class ConfigError(MapflowError):
    """Experiment configuration failed strict validation."""
