"""Shared exception types, the text-file reader that raises them, the one
JSON-artifact writer and the one JSON-record check.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, anything else exits 3.

Every JSON object the program reads from a file (a manifest line and its
manipulation and cot fields, config.json, train_state.json, a tensor
file's header and entries) is a closed record: check_record
refuses a key outside its type table, a missing required key, and a value
of another type, where a bool never stands for a number.
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


def check_record(obj, types: dict, what, required=(), error: type = DataError) -> dict:
    """obj, when it is a dict whose keys are among types and include every
    key in required, and whose values are instances of their key's type or
    tuple of types, a bool only where bool is named; otherwise error("<what>:
    <fault>") naming the key."""
    if not isinstance(obj, dict):
        raise error(f"{what}: expected a JSON object, got {type(obj).__name__}")
    unknown, missing = sorted(set(obj) - set(types)), [k for k in required if k not in obj]
    if unknown or missing:
        fault = f"unknown keys {unknown}" if unknown else f"missing keys {missing}"
        raise error(f"{what}: {fault}")
    for key, value in obj.items():
        want = types[key] if isinstance(types[key], tuple) else (types[key],)
        if not isinstance(value, want) or (isinstance(value, bool) and bool not in want):
            raise error(f"{what}: {key} must be of type "
                        f"{' or '.join(t.__name__ for t in want)}, got {type(value).__name__}")
    return obj


def write_json(path, obj) -> None:
    """Write obj as indented JSON with sorted keys and a trailing newline,
    creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
