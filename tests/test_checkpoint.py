"""Binary tensor files and checkpoint directories round-trip bit-exactly."""

import json
import shutil
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from umfdet import checkpoint as ck
from umfdet.errors import DataError
from umfdet.instruct import Vocabulary
from umfdet.model import ModelConfig, init_model

from helpers import JSON_VALUES


def _arrays():
    rng = np.random.default_rng(5)
    return {
        "a": rng.normal(size=(3, 4)),
        "b.W": rng.normal(size=(7,)),
        "scalarish": np.asarray(3.5),
        "tiny": np.asarray([1e-300, -1e300, 0.0, np.pi]),
    }


# ---------------------------------------------------------------------------
# tensor files


def _blank(arrays):
    """Destinations shaped as arrays, filled with NaN."""
    return {name: np.full(arr.shape, np.nan) for name, arr in arrays.items()}


def test_tensor_file_round_trip_bit_exact(tmp_path):
    path = tmp_path / "t.umfd"
    arrays = {**_arrays(), "empty": np.zeros((0, 3))}
    ck.write_tensor_file(path, arrays)
    (mlen,) = struct.unpack("<Q", path.read_bytes()[5:13])
    manifest = json.loads(path.read_bytes()[13:13 + mlen])
    assert [e["name"] for e in manifest["tensors"]] == list(arrays)  # insertion order
    back = _blank(arrays)
    ck.read_tensor_file(path, back)
    for name, arr in arrays.items():
        assert back[name].tobytes() == arr.astype("<f8").tobytes()


def test_tensor_file_fills_views_of_one_store(tmp_path):
    """Destinations may be views into one flat array, as the parameter
    store's weights are; each is filled in place and nothing else is."""
    path = tmp_path / "t.umfd"
    arrays = _arrays()
    ck.write_tensor_file(path, arrays)
    store = np.full(sum(a.size for a in arrays.values()) + 1, np.nan)
    views, start = {}, 0
    for name, arr in arrays.items():
        views[name] = store[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    ck.read_tensor_file(path, views)
    assert store[:-1].tobytes() == np.concatenate(
        [a.ravel() for a in arrays.values()]).tobytes()
    assert np.isnan(store[-1])


@pytest.mark.parametrize("layout, match", [
    ({"a": (3, 4), "b.W": (7,), "scalarish": (), "tiny": (4,), "more": (2,)},
     "more is missing"),
    ({"a": (3, 4), "b.W": (7,), "scalarish": ()}, "tiny is unexpected"),
    ({"a": (4, 3), "b.W": (7,), "scalarish": (), "tiny": (4,)},
     r"tensor a has shape \(3, 4\), expected \(4, 3\)"),
], ids=["missing_name", "unexpected_name", "wrong_shape"])
def test_tensor_file_layout_mismatch_reads_nothing(tmp_path, layout, match):
    """The layout is checked before any read: a file that does not list
    exactly the destinations' names and shapes is a DataError naming it, and
    every destination keeps its bits."""
    path = tmp_path / "t.umfd"
    ck.write_tensor_file(path, _arrays())
    rng = np.random.default_rng(9)
    dest = {name: rng.normal(size=shape) for name, shape in layout.items()}
    before = {name: arr.tobytes() for name, arr in dest.items()}
    with pytest.raises(DataError, match=match) as info:
        ck.read_tensor_file(path, dest)
    assert str(info.value).startswith(f"{path}: ")
    assert {name: arr.tobytes() for name, arr in dest.items()} == before


def test_tensor_file_header_layout(tmp_path):
    path = tmp_path / "t.umfd"
    ck.write_tensor_file(path, {"x": np.zeros(2)})
    blob = path.read_bytes()
    assert blob[:5] == b"UMFD1"
    (mlen,) = struct.unpack("<Q", blob[5:13])
    manifest = json.loads(blob[13:13 + mlen])
    assert manifest["dtype"] == "<f8"
    assert manifest["tensors"] == [{"name": "x", "shape": [2], "offset": 0}]
    assert len(blob) == 13 + mlen + 16


def test_tensor_file_bad_magic(tmp_path):
    path = tmp_path / "t.umfd"
    path.write_bytes(b"NOPE1" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        ck.read_tensor_file(path, {})


def test_tensor_file_truncated_header(tmp_path):
    path = tmp_path / "t.umfd"
    path.write_bytes(b"UMFD1\x08")
    with pytest.raises(DataError, match="truncated"):
        ck.read_tensor_file(path, {})


def test_tensor_file_corrupt_manifest(tmp_path):
    path = tmp_path / "t.umfd"
    for manifest in (b"{broken", b'{"tensors": [], "dtype": "\xff"}',
                     b'{"tensors": [], "dtype": ' + b"9" * 5000 + b"}",  # past the digit limit
                     b"[" * 100_000 + b"]" * 100_000):  # nesting past the recursion limit
        path.write_bytes(b"UMFD1" + struct.pack("<Q", len(manifest)) + manifest)
        with pytest.raises(DataError, match="manifest: not JSON") as info:
            ck.read_tensor_file(path, {})
        assert str(info.value).startswith(f"{path}: ")


def test_tensor_file_payload_overrun(tmp_path):
    path = tmp_path / "t.umfd"
    ck.write_tensor_file(path, {"x": np.zeros(4)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # drop one float64
    with pytest.raises(DataError, match="payload is 24 bytes, expected 32"):
        ck.read_tensor_file(path, {"x": np.zeros(4)})


def test_tensor_file_trailing_bytes(tmp_path):
    path = tmp_path / "t.umfd"
    ck.write_tensor_file(path, {"x": np.zeros(4)})
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(DataError, match="payload is 40 bytes, expected 32"):
        ck.read_tensor_file(path, {"x": np.zeros(4)})


def _with_manifest(path, manifest, payload=b"\x00" * 16):
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(b"UMFD1" + struct.pack("<Q", len(blob)) + blob + payload)
    return path


@pytest.mark.parametrize("manifest, match", [
    ({"dtype": "<f8"}, r"manifest: missing keys \['tensors'\]"),
    ([{"name": "x", "shape": [2], "offset": 0}], "manifest: expected a JSON object"),
    ({"tensors": [{"name": "x", "shape": [2], "offset": -8}]}, "offset"),
    ({"tensors": [{"name": "x", "shape": [2]}]},
     r'manifest entry 0 is \{"name": "x", "shape": \[2\]\}, '
     r'expected \{"name": "x", "shape": \[2\], "offset": 0\}'),
    ({"tensors": [{"name": "x", "shape": 2, "offset": 0}]}, "shape"),
    ({"tensors": [{"name": "x", "shape": [2], "offset": False}]},
     r'manifest entry 0 is \{.*"offset": false\}'),
    ({"tensors": [{"name": "x", "shape": [True], "offset": 0}]},
     r"tensor x has shape \(True,\), expected \(2,\)"),
    ({"dtype": "<f8", "tensors": [], "note": "x"}, r"manifest: unknown keys \['note'\]"),
    ({"tensors": [{"name": "x", "shape": [2], "offset": 0, "dtype": "<f8"}]},
     r'manifest entry 0 is \{.*"dtype": "<f8"\}'),
    ({"dtype": "<f4", "tensors": [{"name": "x", "shape": [2], "offset": 0}]}, "'<f4'"),
    ({"dtype": "<f8", "tensors": [{"name": "x", "shape": [2], "offset": 0},
                                  {"name": "y", "shape": [1], "offset": 8}]},
     r"tensor y has shape \(1,\), expected \(0, 3\)"),
    ({"dtype": "<f8", "tensors": [{"name": "x", "shape": [2], "offset": 0},
                                  {"name": "x", "shape": [2], "offset": 16}]},
     "y is missing: tensor names disagree"),
    ({"dtype": "<f8", "tensors": [{"name": "x", "shape": [2], "offset": 0},
                                  {"name": "y", "shape": [2 ** 62, 4], "offset": 16}]},
     r"tensor y has shape \(4611686018427387904, 4\), expected \(0, 3\)"),
    ({"dtype": "<f8", "tensors": [{"name": "x", "shape": [2 ** 63], "offset": 0}]},
     r"tensor x has shape \(9223372036854775808,\), expected \(2,\)"),
    ({"dtype": "<f8", "tensors": [{"name": "y", "shape": [0, 3], "offset": 0},
                                  {"name": "x", "shape": [2], "offset": 0}]},
     r'manifest entry 0 is \{"name": "y", .*, expected \{"name": "x", '),
    ({"tensors": [{"name": "x", "shape": [2], "offset": 0},
                  {"name": "y", "shape": [0, 3], "offset": 16}]},
     "lists the expected tensors, but not in the writer's form"),
], ids=["no_tensors_key", "list_manifest", "negative_offset", "missing_entry_key",
        "non_list_shape", "bool_offset", "bool_dimension", "unknown_header_key",
        "unknown_entry_key", "foreign_dtype", "overlapping_offsets", "duplicate_name",
        "shape_product_past_int64", "shape_product_at_int64_sign_bit", "reordered_entries",
        "no_dtype"])
def test_tensor_file_malformed_manifest_is_data_error(tmp_path, manifest, match):
    path = _with_manifest(tmp_path / "t.umfd", manifest)
    with pytest.raises(DataError, match=match) as info:
        ck.read_tensor_file(path, _base_layout())
    assert str(path) in str(info.value)


_TENSOR_BASE = {"dtype": "<f8", "tensors": [{"name": "x", "shape": [2], "offset": 0},
                                            {"name": "y", "shape": [0, 3], "offset": 16}]}


def _base_layout():
    """Destinations shaped as _TENSOR_BASE lists them."""
    return {e["name"]: np.full(e["shape"], np.nan) for e in _TENSOR_BASE["tensors"]}


_TENSOR_FIELDS = [("dtype",), ("tensors",)] + [
    ("tensors", i, *key) for i in (0, 1) for key in ((), ("name",), ("shape",), ("shape", 0),
                                                     ("offset",))]
_SIZES = st.sampled_from([0, 1, 2, 3, 4, 16, 2 ** 62, 2 ** 63, 2 ** 64, -1])
# A field and its new value: sizes for the size fields, or any JSON value.
_TENSOR_EDITS = st.sampled_from(_TENSOR_FIELDS).flatmap(lambda field: st.tuples(
    st.just(field),
    {"shape": st.lists(_SIZES, max_size=4), 0: _SIZES, "offset": _SIZES}.get(
        field[-1], JSON_VALUES) | JSON_VALUES))


@given(edit=_TENSOR_EDITS, payload=st.just(bytes(16)) | st.binary(max_size=40),
       raw=st.none() | st.binary(max_size=64))
def test_tensor_file_fuzzed_bytes_load_or_are_data_error(tmp_path_factory, edit, payload,
                                                         raw):
    """A file of arbitrary bytes after the magic (raw), or a valid file with
    one manifest field replaced by an arbitrary value over an arbitrary
    payload, read into _TENSOR_BASE's layout, loads the payload or is a
    DataError naming the file."""
    path = tmp_path_factory.mktemp("fuzz") / "t.umfd"
    if raw is None:
        field, value = edit
        manifest = json.loads(json.dumps(_TENSOR_BASE))
        parent = manifest
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        _with_manifest(path, manifest, payload)
    else:
        path.write_bytes(b"UMFD1" + raw)
    arrays = _base_layout()
    try:
        ck.read_tensor_file(path, arrays)
    except DataError as exc:
        assert str(path) in str(exc)
    else:
        blob = path.read_bytes()
        (mlen,) = struct.unpack("<Q", blob[5:13])
        for entry in json.loads(blob[13:13 + mlen])["tensors"]:
            start = 13 + mlen + entry["offset"]
            arr = arrays[entry["name"]]
            assert arr.tobytes() == blob[start:start + arr.nbytes]


# ---------------------------------------------------------------------------
# model checkpoints


@pytest.fixture()
def small(toy_vocab):
    cfg = ModelConfig(h=16, h_v=64, n_heads=2, n_enc=1, n_moe=1, n_dec=1,
                      vocab_size=len(toy_vocab), max_len=64, max_vis_tokens=8)
    return cfg, init_model(cfg, np.random.default_rng(1)), toy_vocab


def test_save_load_model_bit_exact(tmp_path, small):
    cfg, params, vocab = small
    ck.save_model(tmp_path / "ckpt", params, vocab)
    loaded, loaded_vocab = ck.load_model(tmp_path / "ckpt")
    assert loaded.config == cfg
    assert len(loaded_vocab) == len(vocab)
    assert set(loaded.tensors) == set(params.tensors)
    for name, t in params.tensors.items():
        assert np.array_equal(loaded.tensors[name].values, t.values), name


def test_save_model_twice_is_byte_identical(tmp_path, small):
    _, params, vocab = small
    ck.save_model(tmp_path / "a", params, vocab)
    ck.save_model(tmp_path / "b", params, vocab)
    for name in (ck.WEIGHTS_FILE, ck.CONFIG_FILE, ck.VOCAB_FILE):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_model_missing_files(tmp_path, small):
    _, params, vocab = small
    ck.save_model(tmp_path / "ckpt", params, vocab)
    (tmp_path / "ckpt" / ck.CONFIG_FILE).unlink()
    with pytest.raises(DataError, match=ck.CONFIG_FILE):
        ck.load_model(tmp_path / "ckpt")


def test_load_model_name_mismatch(tmp_path, small):
    _, params, vocab = small
    ck.save_model(tmp_path / "ckpt", params, vocab)
    weights = {name: t.values for name, t in params.tensors.items()}
    weights["bogus.W"] = weights.pop("head.W")
    ck.write_tensor_file(tmp_path / "ckpt" / ck.WEIGHTS_FILE, weights)
    with pytest.raises(DataError, match="disagree"):
        ck.load_model(tmp_path / "ckpt")


def test_load_model_shape_mismatch(tmp_path, small):
    _, params, vocab = small
    ck.save_model(tmp_path / "ckpt", params, vocab)
    weights = {name: t.values for name, t in params.tensors.items()}
    weights["head.b"] = np.zeros(3)
    ck.write_tensor_file(tmp_path / "ckpt" / ck.WEIGHTS_FILE, weights)
    with pytest.raises(DataError, match="head.b"):
        ck.load_model(tmp_path / "ckpt")


def test_load_model_allocates_only_the_store(tmp_path, toy_vocab):
    """load_model allocates the weights and their gradients once, as one
    flat array each, and reads the file into them: no per-weight arrays and
    no copy (3.03 times the weights when it built them one by one)."""
    params = init_model(ModelConfig(vocab_size=len(toy_vocab)), np.random.default_rng(0))
    ck.save_model(tmp_path / "ckpt", params, toy_vocab)
    ck.load_model(tmp_path / "ckpt")  # warm-up: the first call's one-time allocations
    tracemalloc.start()
    try:
        loaded, _ = ck.load_model(tmp_path / "ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == params.values.tobytes()
    assert peak < 2.5 * loaded.values.nbytes, f"{peak / loaded.values.nbytes:.2f}x the weights"


@pytest.fixture(scope="module")
def saved_small(tmp_path_factory, toy_vocab):
    cfg = ModelConfig(h=16, h_v=64, n_heads=2, n_enc=1, n_moe=1, n_dec=1,
                      vocab_size=len(toy_vocab), max_len=64, max_vis_tokens=8)
    d = tmp_path_factory.mktemp("small") / "ckpt"
    ck.save_model(d, init_model(cfg, np.random.default_rng(1)), toy_vocab)
    return d


# A config key (or an unknown one) and its new value: any JSON value but an
# int, a small count, or a size past int64 or far past memory. n_enc and
# n_dec, which cost a loop pass per unit, take no huge size.
_HUGE = st.sampled_from([2 ** 62, 10 ** 15, 2 ** 64])
_CONFIG_EDITS = st.sampled_from(sorted(ModelConfig().to_json()) + ["mystery"]).flatmap(
    lambda key: st.tuples(st.just(key), JSON_VALUES.filter(lambda v: type(v) is not int)
                          | st.integers(-2, 40)
                          | (st.nothing() if key in ("n_enc", "n_dec") else _HUGE)))


@given(edit=_CONFIG_EDITS)
def test_load_model_with_a_fuzzed_config_loads_or_is_data_error(tmp_path_factory,
                                                                saved_small, edit):
    """A config.json with one key set to an arbitrary value loads, or is a
    DataError naming the checkpoint."""
    d = tmp_path_factory.mktemp("fuzz") / "ckpt"
    shutil.copytree(saved_small, d)
    key, value = edit
    path = d / ck.CONFIG_FILE
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    try:
        ck.load_model(d)
    except DataError as exc:
        assert str(d) in str(exc)


# ---------------------------------------------------------------------------
# trainer state


def test_train_state_round_trip(tmp_path):
    moments = {"adam.m": np.full(3, 0.25), "adam.v": np.full(3, 0.5)}
    meta = {"step": 17, "seed": 3, "batch_size": 8, "train_size": 96, "history_bytes": 120,
            "freeze_patch_embedder": True}
    ck.save_train_state(tmp_path / "ckpt", moments, meta)
    arrays = {"adam.m": np.empty(3), "adam.v": np.empty(3)}
    back = ck.load_train_state(tmp_path / "ckpt", arrays)
    assert back == meta
    assert np.array_equal(arrays["adam.m"], moments["adam.m"])
    assert np.array_equal(arrays["adam.v"], moments["adam.v"])


def test_train_state_absent_returns_none(tmp_path, small):
    _, params, vocab = small
    ck.save_model(tmp_path / "ckpt", params, vocab)
    assert ck.load_train_state(tmp_path / "ckpt", {"adam.m": np.empty(params.values.size),
                                                  "adam.v": np.empty(params.values.size)}) is None


def test_train_state_orphan_moments(tmp_path):
    ck.save_train_state(tmp_path / "ckpt", {"m": np.zeros(1)}, {"step": 1})
    (tmp_path / "ckpt" / ck.TRAIN_STATE_FILE).unlink()
    with pytest.raises(DataError, match=ck.TRAIN_STATE_FILE):
        ck.load_train_state(tmp_path / "ckpt", {"m": np.empty(1)})
