import os
from pathlib import Path

import pytest

from lexicorp import atomic, manifest


def test_fsync_comes_before_rename(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    tmp = tmp_path / "out.txt.tmp"
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        # The text is flushed to the temporary file and not yet renamed.
        calls.append(("fsync", tmp.read_text(encoding="utf-8"), path.exists()))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.fspath(src), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "fsync", fsync)
    monkeypatch.setattr(atomic.os, "replace", replace)
    with atomic.atomic_open(path) as f:
        f.write("text")
    assert calls == [("fsync", "text", False), ("replace", str(tmp), str(path))]
    assert path.read_text(encoding="utf-8") == "text"
    assert not tmp.exists()


def test_makes_the_directories_the_path_lacks(tmp_path):
    path = tmp_path / "a" / "b" / "f.txt"
    with atomic.atomic_open(path) as f:
        f.write("text")
    assert path.read_text(encoding="utf-8") == "text"


def tree(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def fail_writing(path, also=None):
    with pytest.raises(RuntimeError), atomic.atomic_open(path) as f:
        f.write("partial")
        if also:
            also.write_text("x", encoding="utf-8")
        raise RuntimeError


def test_failure_removes_the_directories_it_made(tmp_path):
    fail_writing(tmp_path / "a" / "b" / "f.txt")
    assert tree(tmp_path) == []


def test_failure_keeps_a_directory_that_was_there(tmp_path):
    (tmp_path / "a").mkdir()
    fail_writing(tmp_path / "a" / "b" / "f.txt")
    assert tree(tmp_path) == ["a"]


def test_failure_keeps_a_directory_it_made_that_holds_another_file(tmp_path):
    a = tmp_path / "a"
    fail_writing(a / "b" / "f.txt", also=a / "other.txt")
    assert tree(tmp_path) == ["a", "a/other.txt"]


def test_a_set_renames_in_open_order_with_the_manifest_last(tmp_path, monkeypatch):
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", replace)
    with manifest.run(tmp_path / "manifest.json", ["cmd"]):
        atomic.write_lines(tmp_path / "b.txt", ["b"])
        with atomic.atomic_open(tmp_path / "a.txt") as f:
            f.write("a")
        assert renamed == [] and tree(tmp_path) == ["a.txt.tmp", "b.txt.tmp"]
    assert renamed == ["b.txt", "a.txt", "manifest.json"]
    assert tree(tmp_path) == ["a.txt", "b.txt", "manifest.json"]


def test_a_removal_runs_only_when_the_set_ends_normally(tmp_path):
    old = tmp_path / "old.log"
    old.write_text("x", encoding="utf-8")
    with pytest.raises(RuntimeError), atomic.output_set():
        atomic.remove(old)
        raise RuntimeError
    assert old.exists()
    with atomic.output_set():
        atomic.remove(old)
        assert old.exists()
    assert not old.exists()


def test_a_failed_set_removes_its_directories_deepest_first(tmp_path, monkeypatch):
    removed = []
    real_rmdir = Path.rmdir

    def rmdir(self):
        removed.append(self.relative_to(tmp_path).as_posix())
        real_rmdir(self)

    monkeypatch.setattr(Path, "rmdir", rmdir)
    with pytest.raises(RuntimeError), atomic.output_set():
        atomic.write_lines(tmp_path / "a" / "b" / "f.txt", ["f"])
        atomic.write_lines(tmp_path / "a" / "b" / "c" / "g.txt", ["g"])
        raise RuntimeError
    assert removed == ["a/b/c", "a/b", "a"]
    assert tree(tmp_path) == []
