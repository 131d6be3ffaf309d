"""Decibel to linear conversion used across the package."""

from __future__ import annotations

import numpy as np


def db_to_linear(value_db):
    """Convert a dB (or dBm) quantity to linear scale."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0) if np.ndim(value_db) else 10.0 ** (float(value_db) / 10.0)

