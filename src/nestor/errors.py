"""Exception taxonomy shared by all nestor modules.

Every numerical failure mode has its own class so callers (and the CLI)
can distinguish data errors from genuine mathematical obstructions such
as a vanishing level-set speed.  Non-nestedness is not an error: the
nestedness report returns it as a verdict.
"""


class NestorError(Exception):
    """Base class for all nestor errors."""


class EmptyDomain(NestorError):
    """Quadrature found no interior points; domain or resolution is bad."""


class OutOfRange(NestorError):
    """A target coordinate lies outside the closure of the target interval."""


class EmptyBand(NestorError):
    """The level-set sampler found no sample: the level is outside the
    domain or the band half-width is too small; names the estimator."""

    def __init__(self, message, estimator=None):
        super().__init__(message)
        self.estimator = estimator


class Degenerate(NestorError):
    """|grad_x s_y| fell below the non-degeneracy threshold."""


class BracketFailure(NestorError):
    """The split function has no sign change in k; mass imbalance or
    degenerate data."""


class ZeroSpeed(NestorError):
    """Level-set speed k' - s_yy is at or below threshold; the map may be
    non-Lipschitz there."""


class NoBoundaryOracle(NestorError):
    """The domain carries no boundary-normal oracle."""


class NonMonotoneSign(NestorError):
    """The mixed second derivative of the effective surplus changes sign."""


class InsufficientRange(NestorError):
    """Not enough usable nodes in the requested fit window."""


class UnknownScenario(NestorError):
    """Scenario name not in the registry."""


class ConfigError(NestorError):
    """Run configuration failed schema validation; message carries the
    JSON-pointer path of the offending entry."""


class PivotBudgetExceeded(NestorError):
    """The transportation simplex needed more pivots than its budget."""
