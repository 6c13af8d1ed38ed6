"""Exception hierarchy shared across the package.

ValidationError subclasses map to CLI exit code 2, IoError to exit code 3.
"""


class CvsqiError(Exception):
    pass


class ValidationError(CvsqiError):
    pass


class IoError(CvsqiError):
    pass


# --- signal synthesis ---

class InvalidScenario(ValidationError):
    pass


# --- preprocessing ---

class PeakOffGrid(ValidationError):
    pass


class TooShortCycle(ValidationError):
    pass


class AllZeroCycle(ValidationError):
    pass


class AllZeroWindow(ValidationError):
    pass


class NonPositiveScale(ValidationError):
    pass


class CycleLongerThanTarget(ValidationError):
    pass


# --- numerics / models ---

class ShapeMismatch(ValidationError):
    pass


class GraphNotRecorded(ValidationError):
    pass


class SingleClassDataset(ValidationError):
    pass


class EmptySplit(ValidationError):
    pass


class NotConvolutional(ValidationError):
    pass


class ContainsNegativeSamples(ValidationError):
    pass


class InsufficientSamples(ValidationError):
    pass


class ThresholdUnset(ValidationError):
    pass


# --- evaluation ---

class LengthMismatch(ValidationError):
    pass


class TooFewSubjects(ValidationError):
    pass


# --- persistence / CLI ---

class MissingCalibration(ValidationError):
    pass


class VersionMismatch(IoError):
    pass


class CorruptFile(IoError):
    pass
