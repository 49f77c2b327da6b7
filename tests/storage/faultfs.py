"""Fault-injection utilities for the chunk-store crash/consistency suite.

The commit protocol's whole claim is about *residue*: whatever syscall a
writer dies at, the store must come back with no entry pointing at a
missing or corrupt shard, and nothing but sweepable orphans on disk.
These helpers simulate the deaths — a process killed at a chosen
``os.open``/``os.replace``/``os.unlink``, a torn (truncated) file landing
on disk, a lockfile left behind — and :func:`assert_store_consistent`
states the invariant every test ends on.

``SimulatedCrash`` derives from ``BaseException`` on purpose: nothing in
the production code may swallow it with ``except Exception`` and carry
on half-committed.  In-process ``finally`` cleanup still runs (the
context the exception unwinds through survives), which is *stricter*
than a real ``kill -9``: anything these tests leave behind, a real kill
leaves behind too, plus the lockfile — covered by its own stale-lock
case.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from repro.storage.chunkstore import ChunkStore

__all__ = [
    "SimulatedCrash",
    "age_file",
    "assert_store_consistent",
    "crash_on_open",
    "crash_on_replace",
    "crash_on_unlink",
    "payload_for",
    "tear_file",
]


class SimulatedCrash(BaseException):
    """A process dying at a syscall — not catchable as ``Exception``."""


@contextlib.contextmanager
def _crash_hook(module_attr: str, match: str, nth: int):
    """Patch ``os.<module_attr>`` to die the ``nth`` time its path matches."""
    real = getattr(os, module_attr)
    state = {"hits": 0}

    def hook(*args, **kwargs):
        # replace(src, dst) dies on dst; open/unlink(path) die on path.
        path = os.fspath(args[-1] if module_attr == "replace" else args[0])
        if match in os.path.basename(path) or match in path:
            state["hits"] += 1
            if state["hits"] == nth:
                raise SimulatedCrash(f"killed at os.{module_attr}({path!r})")
        return real(*args, **kwargs)

    setattr(os, module_attr, hook)
    try:
        yield state
    finally:
        setattr(os, module_attr, real)


def crash_on_open(match: str, *, nth: int = 1):
    """Die at the ``nth`` ``os.open`` whose path matches.

    ``match="journal-"`` models a writer killed between its shard write
    and its commit: a commit opens the journal to append its record, and
    a compaction creates its new journal, before anything is published.
    """
    return _crash_hook("open", match, nth)


def crash_on_replace(match: str, *, nth: int = 1):
    """Die at the ``nth`` ``os.replace`` whose destination matches.

    ``match="manifest.json"`` models a compaction killed between creating
    its new journal and publishing the header that names it;
    ``match=".bin"`` a writer killed mid shard publish.
    """
    return _crash_hook("replace", match, nth)


def crash_on_unlink(match: str, *, nth: int = 1):
    """Die at the ``nth`` ``os.unlink`` whose path matches.

    ``match=".bin"`` models a prune killed after its compaction, mid
    shard deletion — the crash window that strands orphan shards.
    """
    return _crash_hook("unlink", match, nth)


def tear_file(path: "str | os.PathLike", keep_bytes: "int | None" = None) -> None:
    """Truncate a file in place, modelling a torn write that landed.

    Keeps the first half by default — enough bytes to look like data,
    not enough to parse.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    keep = size // 2 if keep_bytes is None else keep_bytes
    with open(path, "r+b") as handle:
        handle.truncate(keep)


def age_file(path: "str | os.PathLike", seconds: float) -> None:
    """Backdate a file's mtime by ``seconds`` (stale locks, sweep grace)."""
    stat = os.stat(path)
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


def assert_store_consistent(root, encoding: str = "float64") -> ChunkStore:
    """The post-crash invariant: reopen, verify, sweep, nothing dangles.

    * a fresh handle loads the header and its journal (a crash never
      tears the header; a torn journal tail is ignored);
    * every entry decodes to its recorded shape — no entry points at a
      missing or corrupt shard;
    * after ``sweep_orphans(grace_seconds=0)`` every file left under the
      root is the header, its live journal, a referenced shard, or a
      live lockfile.

    Returns the verified store handle for follow-on assertions.
    """
    store = ChunkStore(root, encoding=encoding)
    for address in store.addresses():
        chunk = store.get(address)  # raises on missing/corrupt shards
        assert chunk is not None
        assert chunk.shape == tuple(store.entry(address)["shape"])
    store.sweep_orphans(grace_seconds=0.0)
    root = os.fspath(root)
    with open(os.path.join(root, "manifest.json"), encoding="utf-8") as handle:
        journal = json.load(handle)["journal"]
    referenced = {
        os.path.normpath(os.path.join(root, store.entry(address)["file"]))
        for address in store.addresses()
    }
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.normpath(os.path.join(dirpath, filename))
            if filename in ("manifest.json", "manifest.lock", journal):
                continue
            assert path in referenced, f"unswept orphan file: {path}"
    return store


def payload_for(address: str, shape=(3, 4, 5)) -> np.ndarray:
    """Deterministic chunk content derived from its address.

    Lets any process (or a verifier that never saw the writer) recompute
    exactly what a given address must decode to.
    """
    seed = int.from_bytes(str(address).encode("utf-8"), "big") % (2**32)
    rng = np.random.default_rng(seed)
    return 280.0 + 10.0 * rng.standard_normal(shape)
