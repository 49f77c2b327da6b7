"""Stateful property: one answer per address, whatever happens to the root.

Hypothesis drives two live handles on one store root through random
sequences of ``put``, ``put_many``, ``get``, ``refresh``, reopen,
``prune``, ``sweep_orphans``, a ``put`` whose commit races the other
handle's prune or sweep, and crashes staged with :mod:`faultfs` (a
writer killed before its commit, a compaction killed before its header
replace, a prune killed mid shard deletion).  A model
holds the committed addresses and their ``stored_at`` stamps; after
every step both handles and a freshly opened one must agree with it:

* ``get(address)`` is exactly ``payload_for(address)`` for a committed
  address, whichever handle asks, and never another array or an error
  for any other (a handle whose view predates a prune may still read a
  shard the prune's crash left behind: the same bits);
* a fresh handle lists exactly the committed addresses and answers
  ``None`` for every other;
* the root ends consistent (:func:`faultfs.assert_store_consistent`).
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.storage.chunkstore import ChunkStore

from faultfs import (  # tests/storage is on sys.path (rootdir layout)
    SimulatedCrash,
    assert_store_consistent,
    crash_on_open,
    crash_on_replace,
    crash_on_unlink,
    payload_for,
)

ADDRESSES = ["aa11", "bb22", "cc33", "dd44", "ee55", "ff66"]
SHAPE = (2, 3, 4)
CHUNK_BYTES = int(np.prod(SHAPE)) * 8

handles = st.integers(min_value=0, max_value=1)
addresses = st.sampled_from(ADDRESSES)


def chunk(address: str) -> np.ndarray:
    return payload_for(address, SHAPE)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-machine-")
        self.handles = [ChunkStore(self.root), ChunkStore(self.root)]
        #: Committed address -> its entry's ``stored_at``.
        self.model: dict[str, float] = {}

    def teardown(self):
        try:
            assert assert_store_consistent(self.root).addresses() == sorted(
                self.model
            )
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    def _record(self, store: ChunkStore, address: str) -> None:
        self.model.setdefault(address, store.entry(address)["stored_at"])

    def _survivors(self, keep: int) -> dict:
        """The model after ``prune(max_bytes=keep chunks)``: newest ``keep``."""
        order = sorted(self.model, key=lambda a: (self.model[a], a))
        return {a: self.model[a] for a in order[max(len(order) - keep, 0):]}

    @rule(h=handles, address=addresses)
    def put(self, h, address):
        entry = self.handles[h].put(address, chunk(address))
        assert entry["shape"] == list(SHAPE)
        self._record(self.handles[h], address)

    @rule(h=handles, batch=st.sets(addresses, min_size=1, max_size=4))
    def put_many(self, h, batch):
        store = self.handles[h]
        written = store.put_many({a: chunk(a) for a in sorted(batch)})
        assert written == len(batch - set(self.model))
        for address in batch:
            self._record(store, address)

    @rule(h=handles, address=addresses)
    def get(self, h, address):
        got = self.handles[h].get(address)
        if address in self.model or got is not None:
            assert got is not None and np.array_equal(got, chunk(address))

    @rule(h=handles)
    def refresh(self, h):
        self.handles[h].refresh()
        assert self.handles[h].addresses() == sorted(self.model)

    @rule(h=handles)
    def reopen(self, h):
        self.handles[h] = ChunkStore(self.root)

    @rule(h=handles, keep=st.integers(min_value=0, max_value=len(ADDRESSES)),
          ask_the_other=st.booleans())
    def prune(self, h, keep, ask_the_other):
        pruned = set(self.model)
        report = self.handles[h].prune(max_bytes=keep * CHUNK_BYTES)
        self.model = self._survivors(keep)
        assert report["remaining_chunks"] == len(self.model)
        if ask_the_other:  # (else its view stays stale for later rules)
            # The other handle's view predates the prune: it must miss.
            for address in pruned - set(self.model):
                assert self.handles[1 - h].get(address) is None

    @rule(h=handles, address=addresses, sweep=st.booleans())
    def put_racing_the_other_handle(self, h, address, sweep):
        """The other handle prunes or sweeps between shard write and commit."""
        store, other = self.handles[h], self.handles[1 - h]
        commit = store._commit_entries_locked

        def racing(staged):
            if sweep:  # reclaims the staged shard as an orphan
                other.sweep_orphans(grace_seconds=0.0)
            else:  # compacts: the committing view goes stale
                other.prune(max_bytes=0)
                self.model.clear()
            return commit(staged)

        store._commit_entries_locked = racing
        try:
            store.put(address, chunk(address))
        finally:
            del store._commit_entries_locked
        self._record(store, address)

    @rule(h=handles)
    def sweep_orphans(self, h):
        self.handles[h].sweep_orphans(grace_seconds=0.0)

    @rule(h=handles, address=addresses)
    def crash_before_commit(self, h, address):
        if address in self.model:
            return
        with crash_on_open("journal-"), pytest.raises(SimulatedCrash):
            self.handles[h].put(address, chunk(address))

    @rule(h=handles)
    def crash_before_header_replace(self, h):
        with crash_on_replace("manifest.json"), pytest.raises(SimulatedCrash):
            self.handles[h].prune(max_bytes=0)

    @precondition(lambda self: self.model)
    @rule(h=handles, data=st.data())
    def crash_mid_prune(self, h, data):
        keep = data.draw(st.integers(min_value=0, max_value=len(self.model) - 1))
        with crash_on_unlink(".bin"), pytest.raises(SimulatedCrash):
            self.handles[h].prune(max_bytes=keep * CHUNK_BYTES)
        self.model = self._survivors(keep)

    @invariant()
    def a_fresh_handle_sees_the_model(self):
        fresh = ChunkStore(self.root)
        assert fresh.addresses() == sorted(self.model)
        for address in ADDRESSES:
            got = fresh.get(address)
            assert (got is not None) == (address in self.model)
            assert got is None or np.array_equal(got, chunk(address))


StoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestStoreMachine = StoreMachine.TestCase
