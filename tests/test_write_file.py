"""Every file the package writes goes through errors.write_file: a write that
fails, or a process killed partway through one, leaves the old file whole."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import umfdet
from umfdet import checkpoint, cli, data, errors, instruct


class _Killed(Exception):
    """Stands for whatever stops a write partway."""


def _fail_after_first_chunk(monkeypatch, module):
    """Make module's write_file raise once the first chunk of its stream is written."""
    real = errors.write_file

    def write_file(path, chunks):
        def stream():
            yield next(iter(chunks))
            raise _Killed("after the first chunk")
        real(path, stream())
    monkeypatch.setattr(module, "write_file", write_file)


_SAMPLES = data.synth_toy_corpus(30, 0.9, seed=0)
_WRITERS = {  # the module each writer finds write_file in, and its (old, new) writes
    "write_json": (errors, lambda p: errors.write_json(p, {"a": 1}),
                   lambda p: errors.write_json(p, {"a": [2, 3], "b": None})),
    "save_manifest": (data, lambda p: data.save_manifest(_SAMPLES[:2], p),
                      lambda p: data.save_manifest(_SAMPLES, p)),
    "write_tensor_file": (checkpoint, lambda p: checkpoint.write_tensor_file(p, {"x": np.ones(2)}),
                          lambda p: checkpoint.write_tensor_file(p, {"x": np.zeros(3),
                                                                     "y": np.ones(4)})),
    "Vocabulary.save": (instruct, lambda p: instruct.Vocabulary(["a", "b"]).save(p),
                        lambda p: instruct.Vocabulary(["c", "d", "e"]).save(p)),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_a_write_that_fails_midway_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch,
                                                                        writer):
    module, write_old, write_new = _WRITERS[writer]
    path = tmp_path / "artifact"
    write_new(path)
    new = path.read_bytes()
    write_old(path)
    old = path.read_bytes()
    assert old != new
    _fail_after_first_chunk(monkeypatch, module)
    with pytest.raises(_Killed):
        write_new(path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["artifact"]


def test_write_file_creates_the_parent_and_replaces_the_target(tmp_path):
    path = tmp_path / "a" / "b" / "f.bin"
    errors.write_file(path, [b"old"])
    errors.write_file(path, (bytes([i]) * 3 for i in range(3)))
    assert path.read_bytes() == b"\x00\x00\x00\x01\x01\x01\x02\x02\x02"
    assert os.listdir(path.parent) == ["f.bin"]


def test_a_process_killed_inside_save_manifest_leaves_the_old_manifest(tmp_path):
    """The child exits with no clean-up once part of the new manifest is on
    disk; the target keeps every byte of the old one, and the next save
    replaces the temporary file the kill left behind."""
    path = tmp_path / "m.jsonl"
    samples = data.synth_toy_corpus(40, 0.9, seed=0)
    data.save_manifest(samples[:3], path)
    old = path.read_bytes()
    code = ("import os, sys\n"
            "from umfdet import data\n"
            "path = sys.argv[1]\n"
            "def posts():\n"
            "    yield from data.synth_toy_corpus(40, 0.9, seed=0)\n"
            "    d = os.path.dirname(path)\n"
            "    written = [e.stat().st_size for e in os.scandir(d) if e.path != path]\n"
            "    os._exit(7 if any(written) else 8)\n"
            "data.save_manifest(posts(), path)\n")
    src = Path(umfdet.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, "-c", code, str(path)], env=env, timeout=120)
    assert child.returncode == 7  # killed with new bytes in the temporary file
    assert path.read_bytes() == old
    assert [s.id for s in data.load_manifest(path)] == [s.id for s in samples[:3]]
    data.save_manifest(samples, path)
    assert os.listdir(tmp_path) == ["m.jsonl"]
    assert [s.id for s in data.load_manifest(path)] == [s.id for s in samples]


def test_cot_gen_writing_over_its_input_keeps_it_when_the_write_fails(tmp_path, monkeypatch,
                                                                      capsys):
    manifest = tmp_path / "corpus.jsonl"
    data.save_manifest(data.synth_toy_corpus(30, 0.9, seed=0), manifest)
    before = manifest.read_bytes()
    _fail_after_first_chunk(monkeypatch, data)
    monkeypatch.delenv(cli.ENDPOINT_ENV, raising=False)
    assert cli.main(["cot-gen", "--manifest", str(manifest), "--out", str(manifest),
                     "--mock"]) == 3
    assert "_Killed" in capsys.readouterr().err
    assert manifest.read_bytes() == before
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


# (module, function) pairs that may open a file to write, append or create it:
# the one writer, and the training log that train appends a row to per step.
_OPENS_FOR_WRITING = {("errors.py", "write_file"), ("trainer.py", "train")}


def _opens_for_writing(tree):
    """(enclosing function, line) of each open(...) whose mode names w, a, x
    or +, and of each Path.write_text or write_bytes call, in tree."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            # open(file, mode) or path.open(mode)
            at = 1 if isinstance(func, ast.Name) else 0
            mode = ([k.value for k in node.keywords if k.arg == "mode"]
                    or node.args[at:at + 1]) if name == "open" else []
            modes = [c.value for m in mode for c in ast.walk(m)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            if any(set(m) & set("wax+") for m in modes) or name in ("write_text",
                                                                     "write_bytes"):
                found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_one_writer_and_the_training_log_open_files_for_writing():
    src = Path(umfdet.__file__).resolve().parent
    found = {(path.name, where, line) for path in sorted(src.glob("*.py"))
             for where, line in _opens_for_writing(ast.parse(path.read_text(encoding="utf-8")))}
    assert {(f, where) for f, where, _ in found} == _OPENS_FOR_WRITING, sorted(found)
