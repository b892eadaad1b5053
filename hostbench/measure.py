"""Measured rounds and the metrics computed from them.

A round builds a fresh store, loads it, then runs one operation stream,
timing each call into the engine with host time and with the engine's
virtual clock.  A round's inputs come from the run's seed and a stream
number.  Two rounds of one stream must agree exactly in every count and
virtual value; a mismatch marks the run incorrect.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.bench.adapters import make_store

from tracer import Tracer
from workloads import Workload

#: Reference-kernel time, in seconds, at the nominal host speed that
#: every reported host time is scaled to.
NOMINAL_REF_S = 0.005
#: Host seconds of calls into the engine between two speed readings.
WINDOW_S = 0.1


class ReferenceKernel:
    """Fixed work in the mix the engine does: an interpreted loop over a
    dict and ints, then copying and hashing bytes.  Its working set is
    small on purpose: a kernel that chases pointers through megabytes
    reads the cache state the engine left behind, not the host's speed.
    """

    def __init__(self) -> None:
        self._buffer = bytes(range(256)) * 4096

    def run(self) -> None:
        table: dict[int, int] = {}
        acc = 0
        for i in range(30_000):
            acc += i * 7 % 13
            table[i & 255] = acc
        for _ in range(2):
            hashlib.sha256(bytearray(self._buffer)).digest()


class HostTimer:
    """Host time of calls into the engine, at a nominal host speed.

    A shared host's speed drifts by a fifth and more over tens of
    seconds, for the engine and for any other code alike.  So after
    every ``WINDOW_S`` of calls the timer runs a fixed reference kernel
    outside any call, and scales the window's durations by
    ``NOMINAL_REF_S`` over the mean kernel time on either side of it.
    The engine's own cost moves the scaled times; the host's drift
    cancels.  ``speed`` reports the scale that was applied.
    """

    def __init__(self, kernel: ReferenceKernel) -> None:
        self._kernel = kernel
        self.totals: dict[str, float] = {}
        self.raw_totals: dict[str, float] = {}
        #: Scaled per-call seconds, for the buckets listed in ``samples``.
        self.samples: dict[str, list[float]] = {"read": [], "write": []}
        self._refs = [self._reference()]
        self._open: list[tuple[str, float]] = []
        self._open_s = 0.0

    def _reference(self) -> float:
        t0 = perf_counter()
        self._kernel.run()
        return perf_counter() - t0

    def call(self, fn, *args, **kwargs):
        """Run one call into the engine, timed under bucket ``setup``."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add("setup", perf_counter() - t0)

    def add(self, bucket: str, raw_s: float) -> None:
        self._open.append((bucket, raw_s))
        self._open_s += raw_s
        if self._open_s >= WINDOW_S:
            self.close_window()

    def close_window(self) -> None:
        if not self._open:
            return
        ref = self._reference()
        scale = NOMINAL_REF_S / ((self._refs[-1] + ref) / 2)
        self._refs.append(ref)
        for bucket, raw_s in self._open:
            self.totals[bucket] = self.totals.get(bucket, 0.0) + raw_s * scale
            self.raw_totals[bucket] = self.raw_totals.get(bucket, 0.0) + raw_s
            if bucket in self.samples:
                self.samples[bucket].append(raw_s * scale)
        self._open = []
        self._open_s = 0.0

    def total(self, *buckets: str) -> float:
        return sum(self.totals.get(b, 0.0) for b in buckets)

    @property
    def speed(self) -> float:
        """Median host speed relative to nominal (above 1: faster)."""
        return NOMINAL_REF_S / statistics.median(self._refs)


@dataclass
class Round:
    """One set-up plus one pass over the operation stream."""

    #: Exact values: op and byte counts, layer counters, virtual time.
    counts: dict[str, int | float]
    #: Host seconds in calls into the engine: set-up, then the measured
    #: phase (scaled to nominal host speed), and the measured phase as
    #: read off the clock.
    setup_s: float
    host_s: float
    raw_host_s: float
    #: Host speed relative to nominal while the round ran.
    speed: float
    read_us: list[float]
    write_us: list[float]
    generate_s: float
    #: Peak resident memory of the process when the round ended.
    peak_rss_mb: float
    #: Failed operations by cause, e.g. ``KeyError in fetch_extents``.
    failures: dict[str, int] = field(default_factory=dict)
    tracer: Tracer | None = None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _engine_counts(db) -> dict[str, int | float]:
    device, pool, wal = db.device.stats, db.pool.stats, db.wal.stats
    io = db.pool.io.stats
    return {
        "dev_bytes_written": device.bytes_written,
        "dev_bytes_read": device.bytes_read,
        "dev_write_requests": device.write_requests,
        "dev_read_requests": device.read_requests,
        "pool_hits": pool.hits, "pool_misses": pool.misses,
        "pool_evictions": pool.evictions, "pool_writebacks": pool.writebacks,
        "io_requests_in": io.requests_in, "io_requests_out": io.requests_out,
        "io_drains": io.drains,
        "wal_records": wal.records, "wal_bytes": wal.bytes_appended,
        "wal_flushes": wal.flushes,
        "virtual_ns": db.model.clock.now_ns, "io_time_ns": db.model.io_time_ns,
    }


def run_round(workload_cls: type[Workload], seed: int, stream: int = 0, *,
              kernel: ReferenceKernel | None = None, trace: bool = False,
              store_factory: Callable = make_store) -> Round:
    workload = workload_cls(f"{seed}/{stream}", store_factory)
    gc.collect()
    timer = HostTimer(kernel or ReferenceKernel())
    workload.setup(timer.call)
    timer.close_window()
    db = workload.store.db
    clock = db.model.clock
    # The loaded store is long-lived: frozen, it is not rescanned by the
    # collections the measured phase triggers, as in a long-running
    # process where CPython rarely makes a full collection.
    gc.collect()
    gc.freeze()
    before = _engine_counts(db)
    tracer = Tracer() if trace else None
    counts = dict.fromkeys(("ops", "reads", "writes", "lists", "failed",
                            "wrong", "user_bytes_written",
                            "user_bytes_read", "list_entries"), 0)
    virtual = {"read": [], "write": []}
    failures: dict[str, int] = {}
    ops = workload.operations()
    if tracer is not None:
        tracer.attach()
    try:
        while True:
            t0 = perf_counter()
            op = next(ops, None)
            workload.generate_s += perf_counter() - t0
            if op is None:
                break
            kind = op[0]
            v0 = clock.now_ns
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = workload.execute(op)
                else:
                    result = tracer.op(kind, workload.execute, op)
            except Exception as exc:  # a failed op is counted, the run goes on
                result = exc
            timer.add(kind, perf_counter() - t0)
            counts["ops"] += 1
            counts[kind + "s"] += 1
            if kind in virtual:
                virtual[kind].append(clock.now_ns - v0)
            if isinstance(result, Exception):
                counts["failed"] += 1
                where = traceback.extract_tb(result.__traceback__)[-1].name
                label = f"{type(result).__name__} in {where} on {kind}"
                failures[label] = failures.get(label, 0) + 1
                continue
            if not workload.check(op, result):
                counts["failed"] += 1
                counts["wrong"] += 1
                label = f"wrong result on {kind}"
                failures[label] = failures.get(label, 0) + 1
                continue
            if kind == "write":
                counts["user_bytes_written"] += len(op[2])
            elif kind == "read":
                counts["user_bytes_read"] += workload.user_bytes_read(
                    op, result)
            else:
                counts["list_entries"] += len(result)
        # Settle the open group-commit window so its deferred writes are
        # counted, as the gated suite does.
        t0 = perf_counter()
        db.drain_commit_window()
        timer.add("drain", perf_counter() - t0)
        timer.close_window()
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.detach()
    after = _engine_counts(db)
    counts.update({k: after[k] - before[k] for k in after})
    for kind, samples in virtual.items():
        counts[f"virtual_{kind}_p99_ns"] = \
            percentile(samples, 0.99) if samples else 0
    if tracer is not None:
        counts.update(tracer.tally)
    measured = ("read", "write", "list", "drain")
    return Round(counts=counts, setup_s=timer.total("setup"),
                 host_s=timer.total(*measured),
                 raw_host_s=sum(timer.raw_totals.get(b, 0.0)
                                for b in measured),
                 speed=timer.speed,
                 read_us=[x * 1e6 for x in timer.samples["read"]],
                 write_us=[x * 1e6 for x in timer.samples["write"]],
                 generate_s=workload.generate_s, peak_rss_mb=peak_rss_mb(),
                 failures=failures, tracer=tracer)


def mismatches(first: Round, again: Round) -> list[str]:
    """Exact values that differ between two rounds of one stream."""
    return [f"{key} = {value!r}, then {again.counts[key]!r}"
            for key, value in first.counts.items()
            if key in again.counts and again.counts[key] != value]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Latency percentiles pool every round's samples; exact values come
    from the first round."""
    reads = [x for r in rounds for x in r.read_us]
    writes = [x for r in rounds for x in r.write_us]
    counts = rounds[0].counts
    return {
        "host_ops_per_s": sum(r.counts["ops"] for r in rounds)
        / sum(r.host_s for r in rounds),
        "host_read_p50_us": percentile(reads, 0.50),
        "host_read_p99_us": percentile(reads, 0.99),
        "host_write_p50_us": percentile(writes, 0.50),
        "host_write_p99_us": percentile(writes, 0.99),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": rounds[0].peak_rss_mb,
        "write_amp": counts["dev_bytes_written"]
        / counts["user_bytes_written"],
    }


def per_layer(plain: Round, traced: Round) -> dict[str, float]:
    """Layer metrics of a traced round; ``plain`` ran the same workload
    and seed untraced, for the tracing overhead."""
    c = traced.counts
    tr = traced.tracer
    ops, writes, lists = c["ops"], c["writes"], c["lists"]
    # Span times are read off the clock; scale them like the round's.
    scale = traced.host_s / traced.raw_host_s

    def us_per(layer: str, den: int, kind: str | None = None) -> float:
        return _ratio(tr.self_ns_of(layer, kind) * scale / 1000.0, den)

    def calls(layer: str) -> int:
        return tr.calls[tr.names.index(layer)]

    virtual_s = c["virtual_ns"] / 1e9
    unattributed = sum(tr.self_ns_of("op." + k) for k in ("read", "write",
                                                           "list"))
    return {
        "db.self_us_per_op": us_per("db", ops),
        "btree.self_us_per_op": us_per("btree", ops),
        "btree.calls_per_op": _ratio(calls("btree"), ops),
        "sim.self_us_per_op": us_per("sim", ops),
        "sim.charges_per_op": _ratio(calls("sim"), ops),
        "wal.self_us_per_op": us_per("wal", ops),
        "wal.records_per_commit": _ratio(c["wal_records"], c["commits"]),
        "wal.bytes_per_commit": _ratio(c["wal_bytes"], c["commits"]),
        "wal.flushes_per_commit": _ratio(c["wal_flushes"], c["commits"]),
        "core.self_us_per_write": us_per("core", writes),
        "core.extents_per_blob": _ratio(c["extents_created"],
                                        c["blobs_created"]),
        "hashing.self_us_per_write": us_per("hashing", writes),
        "hashing.bytes_per_write": _ratio(c["hashed_bytes"], writes),
        "buffer.self_us_per_op": us_per("buffer", ops),
        "buffer.hit_ratio": _ratio(c["pool_hits"],
                                   c["pool_hits"] + c["pool_misses"]),
        "buffer.evictions_per_op": _ratio(c["pool_evictions"], ops),
        "buffer.writebacks_per_op": _ratio(c["pool_writebacks"], ops),
        "io.self_us_per_op": us_per("io", ops),
        "io.drains_per_op": _ratio(c["io_drains"], ops),
        "io.requests_out_per_in": _ratio(c["io_requests_out"],
                                         c["io_requests_in"]),
        "storage.self_us_per_op": us_per("storage", ops),
        "storage.bytes_written_per_op": _ratio(c["dev_bytes_written"], ops),
        "storage.bytes_read_per_op": _ratio(c["dev_bytes_read"], ops),
        "storage.read_amp": _ratio(c["dev_bytes_read"], c["user_bytes_read"]),
        "storage.write_requests_per_op": _ratio(c["dev_write_requests"], ops),
        "storage.bg_bytes_frac": _ratio(c["bg_bytes"],
                                        c["bg_bytes"] + c["fg_bytes"]),
        # Device busy time (charged foreground I/O plus background
        # batches priced by the same formula) over elapsed virtual time.
        "storage.busy_frac": _ratio(c["io_time_ns"] + c["bg_device_ns"],
                                    c["virtual_ns"]),
        "fuse.self_us_per_op": us_per("fuse", ops),
        "namespace.self_us_per_list": us_per("namespace", lists, "list"),
        "namespace.entries_per_list": _ratio(c["list_entries"], lists),
        "sim.virtual_ops_per_s": _ratio(ops, virtual_s),
        "sim.virtual_read_p99_us": c["virtual_read_p99_ns"] / 1000.0,
        "sim.virtual_write_p99_us": c["virtual_write_p99_ns"] / 1000.0,
        "sim.io_ns_per_op": _ratio(c["io_time_ns"], ops),
        "bench.unattributed_us_per_op": _ratio(
            unattributed * scale / 1000.0, ops),
        "bench.host_speed": traced.speed,
        "bench.generate_s": traced.generate_s,
        "trace.overhead_frac": traced.host_s / plain.host_s - 1.0,
        "failed_frac": _ratio(c["failed"], ops),
    }


def write_spans(tracer: Tracer, workload: str) -> Path:
    path = Path(__file__).resolve().parent / "out" / f"spans-{workload}.bin"
    tracer.write_spans(path)
    return path


def report_failures(rounds: list[Round]) -> None:
    totals: dict[str, int] = {}
    for r in rounds:
        for label, n in r.failures.items():
            totals[label] = totals.get(label, 0) + n
    for label, n in sorted(totals.items()):
        print(f"failed ops: {n} x {label}", file=sys.stderr)
