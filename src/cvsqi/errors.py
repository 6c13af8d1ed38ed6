"""Exception hierarchy shared across the package.

ValidationError maps to CLI exit code 2, IoError to exit code 3.  A subclass
exists only where an ``except`` in the package tells it apart from its base;
every other rejected input raises ValidationError or IoError itself, with a
message naming the problem.
"""


class CvsqiError(Exception):
    pass


class ValidationError(CvsqiError):
    pass


class IoError(CvsqiError):
    pass


class InvalidScenario(ValidationError):
    """Caught by forward._from_json to prefix the failing field's path."""


class ShapeMismatch(ValidationError):
    """Caught by model_io._Fields.layers to name the model file's field."""


class SingleClassDataset(ValidationError):
    """Caught by discriminative.train: a one-class validation set has no AUC."""


class MissingCalibration(ValidationError):
    """Caught by cli.cmd_gen: a scenario shorter than 20 s writes no window."""
