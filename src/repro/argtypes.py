"""Argparse value types shared by the experiment, ``fleet``, ``live`` and
``burnin`` front ends, and checks of values that pass their types but fail
together, so a malformed number or an unusable output path exits 2 before
any work runs."""

from __future__ import annotations

import argparse
import math
import os

from .multiplex.catalog import Catalog, MediaObject

__all__ = [
    "add_catalog_options",
    "positive_float",
    "non_negative_float",
    "positive_int",
    "non_negative_int",
    "output_dir",
    "output_file",
    "stream_length",
    "zipf_catalog",
]


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def positive_float(text: str) -> float:
    """A minutes or rate value: a positive, finite float."""
    value = _number(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def non_negative_float(text: str) -> float:
    """A Zipf exponent: a finite float >= 0."""
    value = _number(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _whole_number(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None


def positive_int(text: str) -> int:
    """A count: a whole number >= 1."""
    value = _whole_number(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """A seed or a worker count: a whole number >= 0."""
    value = _whole_number(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _unusable_dir(path: str) -> str:
    """Why ``path`` cannot be (made into) a directory to write in; "" if
    it can.  Nothing is created: the nearest existing ancestor must be a
    writable directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe) and os.path.dirname(probe) != probe:
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        return f"{probe} is not a directory"
    if not os.access(probe, os.W_OK | os.X_OK):
        return f"{probe} is not writable"
    return ""


def output_dir(text: str) -> str:
    """A directory to write into: an existing one, or one that can be made."""
    reason = _unusable_dir(text)
    if reason:
        raise argparse.ArgumentTypeError(f"cannot write under {text!r}: {reason}")
    return text


def output_file(text: str) -> str:
    """A report file to write: not a directory, in a usable directory."""
    if not os.path.basename(text) or os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: not a file path")
    reason = _unusable_dir(os.path.dirname(os.path.abspath(text)))
    if reason:
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: {reason}")
    return text


def add_catalog_options(parser: argparse.ArgumentParser, objects: int) -> None:
    """``--objects`` (default ``objects``), ``--duration``, ``--exponent``
    and ``--delay``: the options :func:`zipf_catalog` reads."""
    parser.add_argument("--objects", type=positive_int, default=objects,
                        help=f"catalog size (Zipf popularity; default {objects})")
    parser.add_argument("--duration", type=positive_float, default=120.0,
                        help="media duration in minutes (default 120)")
    parser.add_argument("--exponent", type=non_negative_float, default=0.8,
                        help="Zipf exponent (default 0.8)")
    parser.add_argument("--delay", type=positive_float, default=2.0,
                        help="guaranteed start-up delay in minutes (default 2)")


def stream_length(parser: argparse.ArgumentParser, obj: MediaObject, delay: float) -> int:
    """``obj``'s stream length at ``--delay``, or exit 2 naming the flag."""
    try:
        return obj.units(delay)
    except ValueError as exc:
        parser.error(f"argument --delay: {exc}")


def zipf_catalog(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Catalog:
    """The ``--objects``/``--duration``/``--exponent`` catalog, its stream
    length at ``--delay`` checked, or exit 2 naming the flag."""
    try:
        catalog = Catalog.zipf(args.objects, args.duration, args.exponent)
    except ValueError as exc:  # a finite exponent can still underflow the weights
        parser.error(f"argument --exponent: {exc}")
    stream_length(parser, catalog[0], args.delay)
    return catalog
