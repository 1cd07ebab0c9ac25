"""Exception types shared across the package."""


class LayerMoEError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInputError(LayerMoEError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateVectorError(InvalidInputError):
    """A vector whose norm is zero where a direction is required."""


class SequenceLengthError(InvalidInputError):
    """A token sequence exceeds the model context."""


class SampleSizeError(InvalidInputError):
    """Fewer usable tokens available than the requested sample size."""


class NumericalFailureError(LayerMoEError, ArithmeticError):
    """A loss or gradient became non-finite."""


class ConfigurationError(LayerMoEError, ValueError):
    """A model or recipe is not configured for the requested operation."""


class BudgetError(LayerMoEError, ValueError):
    """An expert budget that cannot give every layer at least one expert."""


class UnsupportedSimilarityError(LayerMoEError, ValueError):
    """A similarity vector with non-positive entries, which inverse-proportional
    allocation does not define."""


class FormatError(LayerMoEError, ValueError):
    """An artifact or input file that cannot be parsed or breaks its invariants:
    a bad magic number, version or truncated payload, a JSON value that does
    not match its spec in :mod:`layermoe.schema` (the message names every
    missing key, wrong path and unknown key), what an artifact's constructor
    refuses, or a manifest whose arguments the CLI parser rejects in ``replay``."""
