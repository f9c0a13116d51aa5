"""Exception types shared across the package, and the JSON file reader that raises them."""

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
