"""Checkpoint persistence.

Tensor files are a small self-describing binary format: a 5-byte magic,
a little-endian u64 manifest length, a JSON manifest listing (name, shape,
offset) per tensor, then raw little-endian float64 payloads at those
offsets. Values round-trip bit-exactly, which the resume contract relies
on. A reader fills arrays its caller already holds, the views of the
parameter store or the optimizer's moments, from a file only when its
header is byte for byte the one the writer writes for those arrays and its
payload is exactly their bytes. A checkpoint holds the weights, the
vocabulary and the model config, and, for resuming, train_state.json and
optimizer.umfd (adam.m, adam.v).
"""

from __future__ import annotations

import json
import os
import struct
from itertools import chain, zip_longest
from pathlib import Path

from .errors import ConfigError, DataError, check_record, write_file, write_json
from .instruct import Vocabulary
from .model import ModelConfig, ModelParams, init_model

MAGIC = b"UMFD1"
_PREFIX = len(MAGIC) + 8  # the magic, then the manifest's length as a little-endian u64
WEIGHTS_FILE = "weights.umfd"
OPTIMIZER_FILE = "optimizer.umfd"
CONFIG_FILE = "config.json"
VOCAB_FILE = "vocab.tsv"
TRAIN_STATE_FILE = "train_state.json"


def _header(arrays) -> bytes:
    """The magic, the manifest's length and the JSON manifest, each tensor's
    name, shape and payload offset in order, that precede arrays' bytes."""
    entries, offset = [], 0
    for name, arr in arrays.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    manifest = json.dumps({"dtype": "<f8", "tensors": entries}).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(manifest)) + manifest


def write_tensor_file(path, arrays) -> None:
    """Serialize name -> float64 array preserving insertion order, one
    array's bytes at a time."""
    write_file(path, chain([_header(arrays)], (arr.tobytes() for arr in arrays.values())))


def read_tensor_file(path, arrays) -> None:
    """Fill arrays, name -> float64 array, from a tensor file whose header is
    _header(arrays) and whose payload is exactly their bytes; any other file
    is refused before its payload is read, leaving every array as it was, and
    only then is its manifest parsed, to say why. The file stores '<f8',
    native float64 on the little-endian hosts umfdet runs on."""
    head = _header(arrays)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        found = fh.read(_PREFIX)
        if len(found) == _PREFIX and found.startswith(MAGIC):  # a length past EOF reads less
            found += fh.read(min(struct.unpack("<Q", found[len(MAGIC):])[0], size - _PREFIX))
        if found != head:
            raise _mismatch(path, found, head, arrays)
        payload = sum(arr.nbytes for arr in arrays.values())
        if size - len(head) != payload:
            raise DataError(f"{path}: payload is {size - len(head)} bytes, expected {payload}")
        for name, arr in arrays.items():
            if fh.readinto(arr) != arr.nbytes:
                raise DataError(f"{path}: tensor {name} is truncated")


def _mismatch(path, found, head, arrays) -> DataError:
    """Why found, a tensor file's header, is not head: its magic, length,
    JSON or dtype, or else the first entry that differs from the expected
    one, as tensor names that disagree, a shape, or both entries in full."""
    if not found.startswith(MAGIC):
        return DataError(f"{path}: not a tensor file (bad magic {found[:len(MAGIC)]!r})")
    if len(found) < _PREFIX:
        return DataError(f"{path}: truncated header")
    manifest = check_record(_json(found[_PREFIX:], f"{path}: manifest"),
                            {"dtype": str, "tensors": list}, f"{path}: manifest",
                            required=("tensors",))
    if manifest.get("dtype", "<f8") != "<f8":
        return DataError(f"{path}: tensors stored as dtype {manifest['dtype']!r}, "
                         f"expected '<f8'")
    got, want = manifest["tensors"], json.loads(head[_PREFIX:])["tensors"]
    for i, (entry, expected) in enumerate(zip_longest(got, want)):
        if json.dumps(entry) == json.dumps(expected):
            continue
        if isinstance(entry, dict) and expected and entry.get("name") == expected["name"]:
            shape = entry.get("shape")
            if json.dumps(shape) != json.dumps(expected["shape"]):
                return DataError(f"{path}: tensor {expected['name']} has shape "
                                 f"{tuple(shape) if isinstance(shape, list) else shape!r}, "
                                 f"expected {tuple(expected['shape'])}")
        else:
            names = [e["name"] for e in got if isinstance(e, dict) and "name" in e]
            wrong = ([f"{n} is missing" for n in arrays if n not in names]
                     + [f"{n} is unexpected" for n in names if n not in list(arrays)])
            if wrong:
                return DataError(f"{path}: {', '.join(wrong[:5])}: tensor names disagree "
                                 f"with the expected layout")
        return DataError(f"{path}: manifest entry {i} is {json.dumps(entry)}, "
                         f"expected {json.dumps(expected)}")
    return DataError(f"{path}: manifest lists the expected tensors, but not in the "
                     f"writer's form (its dtype, key order or spacing differs)")


def save_model(ckpt_dir, params: ModelParams, vocab: Vocabulary) -> None:
    d = Path(ckpt_dir)
    write_tensor_file(d / WEIGHTS_FILE, {n: t.values for n, t in params.tensors.items()})
    vocab.save(d / VOCAB_FILE)
    write_json(d / CONFIG_FILE, params.config.to_json())


def load_model(ckpt_dir):
    """Rebuild (params, vocab) from a checkpoint directory, reading the weights
    into an undrawn store whose layout their names and shapes must match."""
    d = Path(ckpt_dir)
    for required in (WEIGHTS_FILE, CONFIG_FILE, VOCAB_FILE):
        if not (d / required).exists():
            raise DataError(f"checkpoint {d} is missing {required}")
    try:  # the config's sizes may also be past what init_model can allocate
        config = ModelConfig.from_json(_json((d / CONFIG_FILE).read_bytes(), d / CONFIG_FILE))
        vocab = Vocabulary.load(d / VOCAB_FILE)
        if len(vocab) != config.vocab_size:
            raise DataError(f"{d / VOCAB_FILE}: {len(vocab)} tokens, but {CONFIG_FILE} "
                            f"gives vocab_size {config.vocab_size}")
        params = init_model(config, None)
    except ConfigError as exc:
        raise DataError(f"{d / CONFIG_FILE}: {exc}") from None
    read_tensor_file(d / WEIGHTS_FILE, {n: t.values for n, t in params.tensors.items()})
    return params, vocab


def save_train_state(ckpt_dir, moment_arrays: dict, meta: dict) -> None:
    """Persist optimizer moments plus the JSON-serializable trainer metadata
    that load_train_state checks."""
    d = Path(ckpt_dir)
    write_tensor_file(d / OPTIMIZER_FILE, moment_arrays)
    write_json(d / TRAIN_STATE_FILE, meta)


def load_train_state(ckpt_dir, moment_arrays: dict):
    """Read the optimizer moments into moment_arrays, which name them as
    save_train_state was given them, and return the trainer metadata; None
    when the directory holds no trainer state (weights-only checkpoint)."""
    d = Path(ckpt_dir)
    path = d / TRAIN_STATE_FILE
    if not (d / OPTIMIZER_FILE).exists():
        return None
    if not path.exists():
        raise DataError(f"checkpoint {d} has optimizer moments but no {TRAIN_STATE_FILE}")
    types = {**dict.fromkeys(("step", "seed", "batch_size", "train_size", "history_bytes"), int),
             "freeze_patch_embedder": bool}
    meta = check_record(_json(path.read_bytes(), path), types, path, required=types)
    for key, value in meta.items():
        if value < 0:
            raise DataError(f"{path}: invalid {key}")
    read_tensor_file(d / OPTIMIZER_FILE, moment_arrays)
    return meta


def _json(blob: bytes, what):
    """The JSON value of blob; bytes that are not JSON are a DataError naming what."""
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DataError(f"{what}: not JSON: {exc}") from None
