"""Decibel to linear conversion and the number checks used across the package."""

from __future__ import annotations

import math
import numbers
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np


def db_to_linear(value_db):
    """Convert a dB (or dBm) quantity to linear scale."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0) if np.ndim(value_db) else 10.0 ** (float(value_db) / 10.0)


def require_linear(name: str, value_db) -> None:
    """Raise ``ValueError`` naming ``name`` unless every dB value in ``value_db``
    converts to a finite, positive float64 (it neither overflows nor underflows)."""
    with np.errstate(over="ignore", under="ignore"):
        linear = 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)
    if not np.all(np.isfinite(linear) & (linear > 0)):
        raise ValueError(f"{name} must stay within float64 range on linear scale")


def is_whole(value, minimum: int) -> bool:
    """True for an integer, or a float holding one, of at least ``minimum``; never for NaN or inf."""
    return (isinstance(value, numbers.Integral) or float(value).is_integer()) and value >= minimum


@cache
def _numeric_fields(cls) -> tuple[tuple[str, type], ...]:
    # fields hinted int, float or tuple[float, ...], with their hints; a bare ``tuple`` (a sweep grid) is neither
    hints = get_type_hints(cls).items()
    return tuple((k, hint) for k, hint in hints if hint in (int, float) or (get_origin(hint) is tuple and get_args(hint)))


def require_finite(instance) -> None:
    """Raise ``ValueError`` naming the first numeric field of a dataclass instance that holds NaN or an infinity."""
    for name, _ in _numeric_fields(type(instance)):
        value = getattr(instance, name)
        if not all(isinstance(v, numbers.Integral) or math.isfinite(v) for v in np.ravel(value)):
            raise ValueError(f"{name} must be finite")


def store_python_numbers(instance) -> None:
    """Store each numeric field of a frozen dataclass instance as Python
    numbers: ``int`` and ``float`` fields as such, tuple fields as tuples of
    floats, so numpy or whole-float arguments act (and serialize) like the
    hinted types. Call it after the checks, so ``int`` never truncates."""
    for name, hint in _numeric_fields(type(instance)):
        value = getattr(instance, name)
        object.__setattr__(instance, name, hint(value) if hint in (int, float) else tuple(map(float, value)))
