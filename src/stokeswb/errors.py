"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class MalformedInput(WorkbenchError):
    """A spec, series file, grid or option value that cannot be read."""


# --- formal series ---

class ZeroLeadingCoefficient(WorkbenchError):
    """Series operation needs a nonzero constant (or leading) coefficient."""


class EmptyGrid(WorkbenchError):
    """An operation received an empty sample grid."""


# --- Borel plane / resummation ---

class NearSingularity(WorkbenchError):
    """Evaluation point lies within the guard distance of a known singularity."""


class ContinuationDiverged(WorkbenchError):
    """Successive continuation orders disagree beyond tolerance."""


class GrowthTooFast(WorkbenchError):
    """Samples are not compatible with a C*exp(h|zeta|) bound."""


class DivergentLaplace(WorkbenchError):
    """Laplace integral does not converge for the requested z."""


class SingularRay(WorkbenchError):
    """Integration ray passes within guard distance of a singularity."""


# --- lattices and exponential sums ---

class DegenerateLattice(WorkbenchError):
    """A nonzero lattice vector has vanishing period (support property fails)."""


class NotDecaying(WorkbenchError):
    """An exponential-sum term does not decay on the requested arc."""


class NotLowering(WorkbenchError):
    """Endomorphism does not strictly lower the exponent filtration."""


# --- rational 1-forms ---

class NotOneForm(WorkbenchError):
    """Input does not define a usable 1-form (no zeros or no poles)."""


class RootFindingFailed(WorkbenchError):
    """A polynomial's roots could not be isolated."""


class RelationDetectionAmbiguous(WorkbenchError, UserWarning):
    """Integer relations among periods detected only at marginal tolerance.

    Emitted as a warning: the basis is chosen conservatively (no relation
    imposed), which typically surfaces later as a support-property
    failure.
    """


class PathThroughPole(WorkbenchError):
    """An integration path passes through (or too close to) a pole."""


# --- thimble tracing ---

class SaddleEncounter(WorkbenchError):
    """Flow line approached another zero: direction is effectively non-generic."""


class NoCapture(WorkbenchError):
    """Flow line was not captured by any pole within the arc-length budget."""


# --- Stokes data ---

class TailNotDecaying(WorkbenchError):
    """Contour tail does not decay for the requested z."""


class FitResidualTooLarge(WorkbenchError):
    """Exponential-sum fit residual exceeds tolerance."""
