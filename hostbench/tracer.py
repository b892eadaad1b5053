"""Per-layer host-time tracing, done from outside the engine.

The tracer replaces the public entry points of each layer with a thin
wrapper that records a span (layer, start, end, parent) and the span's
self time: its duration minus the time of the wrapped calls nested in
it.  Nothing under ``src/`` is edited; :meth:`Tracer.detach` puts every
original back.  Spans stay in memory and are written once, at the end.

Each measured operation is a root span of layer ``op.<kind>``, so every
span belongs to one request, and self time is also kept per operation
kind (``namespace`` time during listings, for example).
"""

from __future__ import annotations

import json
import math
from array import array
from pathlib import Path
from time import perf_counter_ns

from repro.btree.btree import BTree
from repro.buffer.frames import BlobView
from repro.buffer.pool import BufferPoolBase
from repro.buffer.vmcache import VmcachePool
from repro.core import blob_manager as blob_manager_module
from repro.core.allocator import ExtentAllocator
from repro.core.blob_manager import BlobManager
from repro.db.database import BlobDB
from repro.fuse.vfs import BlobFuse
from repro.io.scheduler import IoScheduler
from repro.namespace.intervals import NamespaceIndex, NsNode
from repro.sha.fast import FastSha256
from repro.sha.sha256 import Sha256
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe
from repro.wal.writer import WalWriter

#: Layers in reporting order; ``op.*`` are the benchmark's root spans.
LAYERS = ("db", "btree", "sim", "wal", "core", "hashing", "buffer", "io",
          "storage", "fuse", "namespace")
OP_KINDS = ("read", "write", "list")
_NO_OP = len(OP_KINDS)  # spans outside any operation (the final drain)


def _public_methods(cls: type) -> tuple[str, ...]:
    return tuple(name for name, value in vars(cls).items()
                 if callable(value) and not name.startswith("_"))


#: ``(owner, attribute names, layer)``; owners are classes or modules.
#: Generator functions are listed in ``_ITERATORS``: each resumption is
#: one span, the whole iteration one call.
ENTRY_POINTS = (
    (BlobDB, ("begin", "commit", "abort", "put", "get", "exists",
              "put_blob", "get_state", "read_blob", "read_blob_range",
              "delete_blob", "delete", "list_tables",
              "drain_commit_window", "checkpoint"), "db"),
    (BTree, ("insert", "lookup", "delete", "scan", "first"), "btree"),
    (CostModel, _public_methods(CostModel), "sim"),
    (WalWriter, ("append", "group_commit_flush", "sync_flush",
                 "checkpoint"), "wal"),
    (BlobManager, ("create", "read", "read_bytes", "read_range",
                   "read_chunks", "grow", "update_range", "delete",
                   "validate"), "core"),
    (ExtentAllocator, ("allocate_extent", "allocate_tail",
                       "allocate_plan", "free_extents", "free_tail"),
     "core"),
    (blob_manager_module, ("new_hasher", "resume_or_rehash"), "hashing"),
    (FastSha256, ("update", "digest", "state", "copy"), "hashing"),
    (Sha256, ("update", "digest", "state", "copy"), "hashing"),
    (BufferPoolBase, ("get_frame", "allocate_frame", "fetch_extents",
                      "unpin", "write_back", "flush_batch",
                      "flush_all_dirty", "drop"), "buffer"),
    (VmcachePool, ("read_blob",), "buffer"),
    (BlobView, ("contiguous", "copy_to_client", "release"), "buffer"),
    (IoScheduler, ("submit_read", "submit_write", "drain"), "io"),
    (SimulatedNVMe, ("submit", "read", "write"), "storage"),
    (BlobFuse, ("getattr", "open", "read", "flush", "release", "readdir",
                "readdir_recursive", "subtree_statfs"), "fuse"),
    (NamespaceIndex, ("resolve", "subtree", "iter_subtree",
                      "subtree_stats", "apply_events", "note_put",
                      "note_delete"), "namespace"),
    (NsNode, ("rel_path",), "namespace"),
)
_ITERATORS = {(BTree, "scan"), (BlobManager, "read_chunks"),
              (NamespaceIndex, "iter_subtree")}

_MISSING = object()


def _arg(args: tuple, kwargs: dict, index: int, name: str, default):
    """Argument ``name`` of a call, passed by position or keyword."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Spans and per-layer self time for one traced measured phase."""

    def __init__(self) -> None:
        self.names = LAYERS + tuple("op." + k for k in OP_KINDS)
        n = len(self.names)
        #: ``self_ns[kind][layer]``: self time by operation kind; the
        #: last row holds spans outside any operation.
        self.self_ns = [[0] * n for _ in range(len(OP_KINDS) + 1)]
        #: Calls per layer (an iteration counts once).
        self.calls = [0] * n
        #: Counts taken where the work happens (see ``_notes``).
        self.tally = {"commits": 0, "blobs_created": 0, "extents_created": 0,
                      "hashed_bytes": 0, "fg_bytes": 0, "bg_bytes": 0,
                      "bg_device_ns": 0.0}
        self.span_layer = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        #: Open spans: ``[span index, start ns, nested ns]``.
        self._stack: list[list[int]] = []
        self._kind = _NO_OP
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _run(self, lid: int, count: bool, fn, args, kwargs):
        """Call ``fn`` inside one span of layer ``lid``."""
        stack = self._stack
        idx = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        frame = [idx, perf_counter_ns(), 0]
        self.span_start.append(frame[1])
        self.span_end.append(frame[1])
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.span_end[idx] = end
            duration = end - frame[1]
            self.self_ns[self._kind][lid] += duration - frame[2]
            if count:
                self.calls[lid] += 1
            if stack:
                stack[-1][2] += duration

    def op(self, kind: str, fn, *args):
        """Run one measured operation as a root span ``op.<kind>``."""
        self._kind = OP_KINDS.index(kind)
        try:
            return self._run(self.names.index("op." + kind), True, fn,
                             args, {})
        finally:
            self._kind = _NO_OP

    def _wrap(self, lid: int, fn, note):
        run = self._run
        stack = self._stack

        def traced(*args, **kwargs):
            result = run(lid, True, fn, args, kwargs)
            if note is not None:
                t0 = perf_counter_ns()
                note(args, kwargs, result)
                if stack:  # bookkeeping is no layer's self time
                    stack[-1][2] += perf_counter_ns() - t0
            return result
        return traced

    def _wrap_iter(self, lid: int, fn):
        run = self._run
        done = object()

        def traced(*args, **kwargs):
            self.calls[lid] += 1
            it = fn(*args, **kwargs)
            while True:
                item = run(lid, False, next, (it, done), {})
                if item is done:
                    return
                yield item
        return traced

    # -- counts at layer boundaries ------------------------------------------

    def _notes(self) -> dict:
        tally = self.tally

        def commit(args, kwargs, result):
            tally["commits"] += 1

        def create(args, kwargs, result):
            tally["blobs_created"] += 1
            tally["extents_created"] += len(result.new_extents) \
                + (result.new_tail is not None)

        def hashed(args, kwargs, result):
            tally["hashed_bytes"] += len(args[1])

        def submit(args, kwargs, result):
            device, requests = args[0], args[1]
            nbytes = sum(r.npages for r in requests) * device.page_size
            if not _arg(args, kwargs, 2, "background", False):
                tally["fg_bytes"] += nbytes
                return
            tally["bg_bytes"] += nbytes
            tally["bg_device_ns"] += background_device_ns(
                device.model.params, requests, device.page_size,
                _arg(args, kwargs, 4, "queue_depth", None))

        def read(args, kwargs, result):
            tally["fg_bytes"] += len(result)

        return {(BlobDB, "commit"): commit, (BlobManager, "create"): create,
                (FastSha256, "update"): hashed, (Sha256, "update"): hashed,
                (SimulatedNVMe, "submit"): submit,
                (SimulatedNVMe, "read"): read}

    # -- attaching -------------------------------------------------------------

    def attach(self) -> None:
        notes = self._notes()
        for owner, attrs, layer in ENTRY_POINTS:
            lid = self.names.index(layer)
            for attr in attrs:
                original = vars(owner).get(attr, _MISSING)
                fn = getattr(owner, attr)
                if (owner, attr) in _ITERATORS:
                    wrapped = self._wrap_iter(lid, fn)
                else:
                    wrapped = self._wrap(lid, fn, notes.get((owner, attr)))
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def detach(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_ns_of(self, name: str, kind: str | None = None) -> int:
        """Self time of layer ``name``, for one operation kind or all."""
        lid = self.names.index(name)
        if kind is not None:
            return self.self_ns[OP_KINDS.index(kind)][lid]
        return sum(row[lid] for row in self.self_ns)

    def write_spans(self, path: Path) -> None:
        """Write the spans: a JSON header, then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"layers": list(self.names), "spans": len(self.span_start),
                  "arrays": ["layer:u16", "parent:i64", "start_ns:i64",
                             "end_ns:i64"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_layer, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(out)


def background_device_ns(params, requests, page_size: int,
                         queue_depth: int | None) -> float:
    """Device time of one background batch, priced like a foreground one.

    The cost model's batch formula, ``max(waves * latency, latency +
    bytes * ns_per_byte)``, applied to the reads and the writes of the
    batch, with the same queue-depth cap as ``CostModel._charge_io``.
    """
    qd = params.ssd_queue_depth
    if queue_depth is not None:
        qd = max(1, min(queue_depth, qd))
    total = 0.0
    for is_write, latency, ns_per_byte in (
            (False, params.ssd_read_latency_ns, params.ssd_read_ns_per_byte),
            (True, params.ssd_write_latency_ns,
             params.ssd_write_ns_per_byte)):
        batch = [r for r in requests if r.is_write == is_write]
        if not batch:
            continue
        nbytes = sum(r.npages for r in batch) * page_size
        waves = math.ceil(len(batch) / qd)
        total += max(waves * latency, latency + nbytes * ns_per_byte)
    return total
