"""Three-class per-cycle quality annotation with its two numeric encodings.

Training uses a soft target (ambiguous cycles count as 0.25 positive);
evaluation collapses ambiguous into the negative class.
"""
from __future__ import annotations

import enum

_CODES = {"normal": 1, "ambiguous": 2, "motion": 0}   # in dataset and stream files
_VALUES = {code: value for value, code in _CODES.items()}


class QualityLabel(enum.Enum):
    NORMAL = "normal"
    AMBIGUOUS = "ambiguous"
    MOTION = "motion"

    @property
    def train_value(self) -> float:
        return {"normal": 1.0, "ambiguous": 0.25, "motion": 0.0}[self.value]

    @property
    def eval_value(self) -> int:
        return 1 if self is QualityLabel.NORMAL else 0

    @property
    def code(self) -> int:
        """Integer code used in dataset/stream files."""
        return _CODES[self.value]

    @classmethod
    def from_code(cls, code: int) -> "QualityLabel":
        try:
            return cls(_VALUES[int(code)])
        except KeyError:
            raise ValueError(f"unknown label code {code!r}") from None
