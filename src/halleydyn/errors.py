"""Exception taxonomy shared across the package."""


class HalleyDynError(Exception):
    """Base class for all package-specific failures."""


class NonConvergence(HalleyDynError):
    """Root finder or orbit verification failed to converge within its budget."""


class DegenerateMap(HalleyDynError):
    """The requested iteration map cannot be built: it collapses to an affine
    map (single distinct root), or its coefficients overflow double precision."""


class NotNormalized(HalleyDynError):
    """Polynomial is not monic with vanishing second-leading coefficient."""


class Indeterminate(HalleyDynError):
    """Numerator and denominator vanish together; the map was not reduced."""


class NotFixed(HalleyDynError):
    """The queried point is not a fixed point of the map."""


class PropositionMismatch(HalleyDynError):
    """Measured fixed-point data disagrees with the predicted multiplier.

    Carries the offending record in args[1] when available.
    """


class SeedUnlabeled(HalleyDynError):
    """The seed pixel of a basin component carries no basin label."""


class WindowNotCentered(HalleyDynError):
    """Grid symmetry estimation needs a square window centered at the origin."""


class ExcludedParameter(HalleyDynError):
    """Parameter value is outside the admissible set of the cubic family."""


class PoleAtTwenty(HalleyDynError):
    """The cycle-partner expression (1+4b)/(b-20) has a pole at b=20."""


class NoCycle(HalleyDynError):
    """Orbit verification found no two-cycle at the requested parameter."""


class ContainmentError(HalleyDynError):
    """Estimated symmetry orders violate the expected divisibility containment."""


class ConfigError(HalleyDynError):
    """Malformed or contradictory job configuration."""


class IOFailure(HalleyDynError):
    """Image or report emission failed at the OS level."""
