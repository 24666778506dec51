"""The run directory's one owner and the one writer of run files.

write_file replaces a file through a fsynced temp file and a rename. A
failed write, at the rename or at the fsync, must leave the old file and no
temp file, and say which file it was writing. Only rundir names the files
that decide how a run directory may be reused.
"""

import ast
import errno
import os
import re
from pathlib import Path

import pytest

import synthdata
from nanoalbert import rundir
from nanoalbert.bpe import save_vocab, train_vocab
from nanoalbert.checkpoint import save_checkpoint
from nanoalbert.cli import main
from nanoalbert.corpus import write_examples
from nanoalbert.model import init_parameters
from nanoalbert.rng import RngStream


def test_write_file_takes_text_bytes_or_a_stream(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    rundir.write_file(path, "Protéine\n")
    assert path.read_bytes() == "Protéine\n".encode("utf-8")
    rundir.write_file(path, b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    rundir.write_file(path, lambda f: f.writelines([b"ab", b"cd"]))
    assert path.read_bytes() == b"abcd"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


@pytest.fixture(params=["replace", "fsync"])
def fail_on(request, monkeypatch):
    """fail_on(name) makes rundir's os.replace onto `name`, or its os.fsync
    of `name`'s temp file, raise EIO; every other call goes through."""
    call = request.param
    real = getattr(os, call)

    def arm(name):
        def failing(*args, **kwargs):
            target = args[1] if call == "replace" else os.readlink(f"/proc/self/fd/{args[0]}")
            if Path(target).name in (name, f"{name}.tmp"):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real(*args, **kwargs)

        monkeypatch.setattr(rundir.os, call, failing)

    return arm


def _checkpoint(directory, version):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(version).child("init"))
    save_checkpoint(directory / "x.ckpt", config, params, step=version)


def _examples(directory, version):
    write_examples(directory / "examples.bin",
                   synthdata.ordered_examples(2 + version, RngStream(version)))


def _vocab(directory, version):
    vocab = train_vocab("abc abd abe " * version, 262 + version)
    save_vocab(vocab, directory / "vocab.txt", directory / "merges.txt")


@pytest.mark.parametrize("write, names", [
    (_checkpoint, ["x.ckpt"]),
    (_examples, ["examples.bin"]),
    (_vocab, ["vocab.txt", "merges.txt"]),  # the first of the two fails
], ids=["save_checkpoint", "write_examples", "save_vocab"])
def test_a_failed_write_keeps_the_old_file_and_no_temp_file(
        tmp_path, monkeypatch, fail_on, write, names):
    write(tmp_path, 1)
    before = {name: (tmp_path / name).read_bytes() for name in names}
    fail_on(names[0])
    with pytest.raises(OSError, match=re.escape(f"cannot write {tmp_path / names[0]}: ")):
        write(tmp_path, 2)
    assert {name: (tmp_path / name).read_bytes() for name in names} == before
    assert not list(tmp_path.glob("*.tmp"))

    monkeypatch.undo()  # the same write now lands, and changes the bytes
    write(tmp_path, 2)
    assert (tmp_path / names[0]).read_bytes() != before[names[0]]


def test_a_failed_cli_write_names_its_file_in_one_line(tmp_path, monkeypatch, fail_on, capsys):
    gold = tmp_path / "gold.conll"
    gold.write_text("Ada B-PER\nwrote O\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("Ada O\nwrote O\n")
    out = tmp_path / "eval"
    argv = ["evaluate", "--out", str(out), "--gold", str(gold), "--pred"]
    assert main([*argv, str(gold)]) == 0
    before = (out / "metrics.txt").read_bytes()
    capsys.readouterr()

    fail_on("metrics.txt")
    assert main([*argv, str(pred)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {out / 'metrics.txt'}: [Errno 5] Input/output error\n")
    assert (out / "metrics.txt").read_bytes() == before
    assert not list(out.glob("*.tmp"))

    monkeypatch.undo()
    assert main([*argv, str(pred)]) == 0
    assert (out / "metrics.txt").read_bytes() != before


def _writes(source: str) -> list[str]:
    """Each file write in `source` that does not go through rundir: a
    write_text or write_bytes, an os.replace or os.rename, or a builtin open
    whose mode may write (one that is not a literal counts)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr in ("write_text", "write_bytes")
                or (node.attr in ("replace", "rename")
                    and isinstance(node.value, ast.Name) and node.value.id == "os")):
            found.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: os.{alias.name}" for alias in node.names
                      if alias.name in ("replace", "rename")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "open"):
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if any(not isinstance(mode, ast.Constant) or set("wax+") & set(mode.value)
                   for mode in modes):
                found.append(f"line {node.lineno}: open")
    return found


@pytest.mark.parametrize("source", [
    "p.write_text('x')", "p.write_bytes(b'x')", "os.replace(a, b)", "os.rename(a, b)",
    "from os import replace", "open(p, 'w')", "open(p, 'ab')", "open(p, mode='x')",
    "open(p, 'r+b')", "open(p, mode)",
])
def test_the_write_guard_finds_each_kind_of_write(source):
    assert len(_writes(source)) == 1


def test_no_module_but_rundir_writes_files():
    """Checkpoints, the example cache, vocabularies and every CLI output go
    through rundir.write_file, and train.log through rundir.open_log; the
    lock's os.open writes no bytes. Reads and str.replace are not writes."""
    package = Path(rundir.__file__).parent
    assert _writes("open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\ns.replace('a', 'b')") == []
    found = {path.name: _writes(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "rundir.py"}
    assert {name: writes for name, writes in found.items() if writes} == {}


_OWNED = ("effective.cfg", "INCOMPLETE", ".lock", "examples.bin", "checkpoint-")


def _owned_names(source: str) -> list[str]:
    """Each string literal in `source`, docstrings aside, that names a file
    rundir owns: effective.cfg, INCOMPLETE, .lock, examples.bin, or a
    checkpoint-NNNNNN.ckpt name or pattern (an f-string's literal parts
    count)."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and any(name in node.value for name in _OWNED)]


@pytest.mark.parametrize("source", [
    "out / 'effective.cfg'", "f'{out}/INCOMPLETE'", "os.open(out / '.lock', flags)",
    "Path(d, 'examples.bin')", "f'checkpoint-{step:06d}.ckpt'",
    "re.compile(r'^checkpoint-(\\d+)\\.ckpt$')",
])
def test_the_ownership_guard_finds_each_name(source):
    assert len(_owned_names(source)) == 1


def test_only_rundir_names_the_files_that_decide_reuse():
    """The lock, INCOMPLETE, effective.cfg, the example cache and the
    checkpoint names appear, outside docstrings, only in rundir.py."""
    assert _owned_names('"""Writes effective.cfg."""\ndef f():\n    "INCOMPLETE stays"\n'
                        'x = "best.ckpt"') == []
    package = Path(rundir.__file__).parent
    assert len(_owned_names(Path(rundir.__file__).read_text(encoding="utf-8"))) >= 5
    found = {path.name: _owned_names(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "rundir.py"}
    assert {name: names for name, names in found.items() if names} == {}
