"""Exception types shared across the toolkit.

Each maps to a CLI exit code (see cli.main): model-undefined situations
(e.g. the brake-light model applied to seeds without a braking lead) exit
3, fit failures exit 4, and every other error exits 2.
"""


class RearsimError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(RearsimError):
    """Input data or configuration violates a documented invariant."""


class ParseError(ValidationError):
    """A file could not be parsed into the documented format."""


class GenerationError(RearsimError):
    """Seed synthesis could not produce a valid scenario."""


class ModelUndefinedError(RearsimError):
    """The requested driver model is undefined for the given scenario."""


class FitError(RearsimError):
    """A model fit did not converge or had inconsistent inputs."""
