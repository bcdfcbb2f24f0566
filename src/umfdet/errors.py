"""Shared exception types, the text-file reader that raises them, and the
one JSON-artifact writer.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, anything else exits 3.
"""

import json
from pathlib import Path


class UmfdetError(Exception):
    """Base for all package-specific errors."""


class ShapeError(UmfdetError):
    """Tensor dimensions do not match an op's contract."""


class GraphError(UmfdetError):
    """Misuse of the autodiff graph (e.g. backward called twice)."""


class ConfigError(UmfdetError):
    """Invalid configuration value."""


class DataError(UmfdetError):
    """Malformed or inconsistent input data."""


class TemplateError(UmfdetError):
    """Prompt template missing a required placeholder or section."""


class ManifestError(DataError):
    """Manifest line failed to parse or violated an invariant."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TransportError(UmfdetError):
    """Generation client failed at the transport level after retries."""


class FabricationError(UmfdetError):
    """Text fabrication exhausted its regeneration budget."""


class NumericsError(UmfdetError):
    """Training hit a non-finite loss or gradient."""


def read_utf8(path, error: type) -> str:
    """The text of a UTF-8 file with universal newlines; bytes that do not
    decode raise error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from None


def write_json(path, obj) -> None:
    """Write obj as indented JSON with sorted keys and a trailing newline,
    creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
