"""Exception types shared across the package, and the JSON file reader and writer."""

import json
from pathlib import Path


class SituSearchError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SituSearchError):
    """An argument violates an operation's preconditions."""


class InsufficientDataError(SituSearchError):
    """Not enough samples or annotations to fit a model."""


class NoOverlapError(SituSearchError):
    """A box lies entirely outside the image frame."""


class DatasetError(SituSearchError):
    """An annotation violates dataset invariants (message names the culprit)."""


class ParseError(SituSearchError):
    """A file could not be parsed; the message carries path/line context."""


class GenerationError(SituSearchError):
    """The synthetic generator could not produce a valid sample."""


def read_json(path: str | Path):
    """A JSON file's document; invalid JSON is a ParseError naming the path and line."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


def json_document(doc) -> str:
    """A JSON file's text as the package writes it: indent 2, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def json_number(value, field: str) -> float:
    """A JSON number as a float; any other value, a bool too, is a ValueError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest double
        raise ValueError(f"{field} is beyond the largest double") from None


def json_integer(value, field: str) -> int:
    """A JSON number of integral value as an int; any other is a ValueError naming ``field``."""
    if not json_number(value, field).is_integer():
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)
