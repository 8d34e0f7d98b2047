"""Small argument-validation helpers used across the library.

Each helper raises :class:`repro.exceptions.ValidationError` with a message
that names the offending parameter, and returns the (possibly coerced) value
so call sites can validate and assign in one statement::

    self.epsilon = check_positive(epsilon, "epsilon")
"""

from __future__ import annotations

import math
from typing import Any, Tuple, Type, Union

from repro.exceptions import ValidationError

Number = Union[int, float]

def check_type(value: Any, types: Union[Type, Tuple[Type, ...]], name: str) -> Any:
    """Ensure ``value`` is an instance of ``types``; return it unchanged."""
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = ", ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise ValidationError(f"{name} must be of type {expected}, got {type(value).__name__}")
    return value


def _check_finite_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def check_positive(value: Number, name: str) -> float:
    """Ensure ``value`` is a finite number strictly greater than zero."""
    value = _check_finite_number(value, name)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: Number, name: str) -> float:
    """Ensure ``value`` is a finite number greater than or equal to zero."""
    value = _check_finite_number(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_positive_int(value: Any, name: str) -> int:
    """Ensure ``value`` is an integer strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return int(value)


def check_probability(value: Number, name: str) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    value = _check_finite_number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_fraction(value: Number, name: str) -> float:
    """Ensure ``value`` lies in the open interval (0, 1)."""
    value = _check_finite_number(value, name)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value
