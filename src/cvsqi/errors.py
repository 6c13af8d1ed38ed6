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


class InvalidField(ValidationError):
    """A value that does not fit its field in a scenario or model dataclass;
    caught by model_io.from_json to prefix the field's path in the file."""


class ShapeMismatch(ValidationError):
    """Caught by nn.check_layers to name the descriptor's field."""


class SingleClassDataset(ValidationError):
    """Caught by discriminative.train: a one-class validation set has no AUC."""


class MissingCalibration(ValidationError):
    """Caught by cli.cmd_gen: a scenario shorter than 20 s writes no window."""
