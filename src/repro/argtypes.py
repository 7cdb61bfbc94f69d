"""Argparse value types shared by the ``fleet``, ``live`` and ``burnin``
front ends, so a malformed number exits 2 before any work runs."""

from __future__ import annotations

import argparse
import math

__all__ = ["positive_float", "positive_int"]


def positive_float(text: str) -> float:
    """A minutes or rate value: a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """A count: a whole number >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value
