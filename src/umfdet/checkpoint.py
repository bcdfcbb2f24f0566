"""Checkpoint persistence.

Tensor files are a small self-describing binary format: a 5-byte magic,
a little-endian u64 manifest length, a JSON manifest listing (name, shape,
offset) per tensor, then raw little-endian float64 payloads at those
offsets. Values round-trip bit-exactly, which the resume contract relies
on. A reader fills arrays its caller already holds, the views of the
parameter store or the optimizer's moments, after checking that the file
lists exactly their names and shapes. A checkpoint holds the weights, the
vocabulary and the model config, and, for resuming, train_state.json and
optimizer.umfd (adam.m, adam.v).
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

from .errors import ConfigError, DataError, check_record, write_json
from .instruct import Vocabulary
from .model import ModelConfig, ModelParams, init_model

MAGIC = b"UMFD1"
WEIGHTS_FILE = "weights.umfd"
OPTIMIZER_FILE = "optimizer.umfd"
CONFIG_FILE = "config.json"
VOCAB_FILE = "vocab.tsv"
TRAIN_STATE_FILE = "train_state.json"


def write_tensor_file(path, arrays) -> None:
    """Serialize name -> float64 array preserving insertion order."""
    entries = []
    offset = 0
    for name, arr in arrays.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    manifest = json.dumps({"dtype": "<f8", "tensors": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for arr in arrays.values():
            fh.write(arr.tobytes())


_ENTRY_TYPES = {"name": str, "shape": list, "offset": int}


def _entry_fields(path, entry):
    """(name, shape, offset) of one manifest entry, with a non-negative
    integer offset and shape dimensions."""
    check_record(entry, _ENTRY_TYPES, f"{path}: manifest entry", required=_ENTRY_TYPES)
    name, shape, offset = entry["name"], entry["shape"], entry["offset"]
    if not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"{path}: tensor {name} has invalid shape {shape!r}")
    if offset < 0:
        raise DataError(f"{path}: tensor {name} has invalid offset {offset!r}")
    return name, tuple(shape), offset


def read_tensor_file(path, arrays) -> None:
    """Fill arrays, name -> float64 array, from a tensor file that lists
    exactly those names, each with its array's shape. The whole layout is
    checked before the first byte is read, so a file that does not match
    leaves every array as it was; then each tensor is read straight from
    the file into its array. The file stores '<f8', which is native float64
    on the little-endian hosts umfdet runs on."""
    head_len = len(MAGIC) + 8
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(head_len)
        if head[:len(MAGIC)] != MAGIC:
            raise DataError(f"{path}: not a tensor file (bad magic {head[:5]!r})")
        if len(head) < head_len:
            raise DataError(f"{path}: truncated header")
        (manifest_len,) = struct.unpack("<Q", head[len(MAGIC):])
        # a length past the end of the file reads only what is there
        manifest = check_record(_json(fh.read(min(manifest_len, size - head_len)),
                                      f"{path}: manifest"),
                                {"dtype": str, "tensors": list}, f"{path}: manifest",
                                required=("tensors",))
        base = head_len + manifest_len
        payload_len = max(size - base, 0)
        spans, shapes = [], {}
        for entry in manifest["tensors"]:
            name, shape, offset = _entry_fields(path, entry)
            if name in shapes:
                raise DataError(f"{path}: tensor {name} is listed twice in the manifest")
            shapes[name] = shape
            n = math.prod(shape)
            if offset + 8 * n > payload_len:
                raise DataError(f"{path}: tensor {name} overruns payload")
            spans.append((offset, offset + 8 * n, name))
        if manifest.get("dtype") != "<f8":
            raise DataError(f"{path}: tensors stored as dtype {manifest.get('dtype')!r}, "
                            f"expected '<f8'")
        filled = sorted(s for s in spans if s[1] > s[0])
        for (_, end, a), (begin, _, b) in zip(filled, filled[1:]):
            if begin < end:
                raise DataError(f"{path}: tensors {a} and {b} overlap in the payload")
        expected = max((end for _, end, _ in spans), default=0)
        if expected != payload_len:
            raise DataError(f"{path}: payload has {payload_len - expected} trailing bytes")
        wrong = ([f"{n} is missing" for n in arrays if n not in shapes]
                 + [f"{n} is unexpected" for n in shapes if n not in arrays])
        if wrong:
            raise DataError(f"{path}: {', '.join(wrong[:5])}: tensor names disagree "
                            f"with the expected layout")
        for name, arr in arrays.items():
            if shapes[name] != arr.shape:
                raise DataError(f"{path}: tensor {name} has shape {shapes[name]}, "
                                f"expected {arr.shape}")
        for offset, end, name in filled:  # an empty tensor has no bytes to read
            fh.seek(base + offset)
            if fh.readinto(arrays[name]) != end - offset:
                raise DataError(f"{path}: tensor {name} is truncated")


def save_model(ckpt_dir, params: ModelParams, vocab: Vocabulary) -> None:
    d = Path(ckpt_dir)
    d.mkdir(parents=True, exist_ok=True)
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
    d.mkdir(parents=True, exist_ok=True)
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
