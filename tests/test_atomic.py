import os

from lexicorp import atomic


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
