"""Pinned-seed benchmark baseline suite, its gated sweeps, and the gate.

``run_suite`` executes a small, fully deterministic benchmark suite —
YCSB at two payload sizes plus the synthetic Wikipedia corpus, then
every point of every registered :class:`Sweep` — and distills each
workload into the numbers a perf change is judged by: virtual-time
throughput, per-op latency quantiles, write amplification, and the
layer counters that explain them.  Because every quantity derives from
the virtual clock and seeded RNGs, two runs of the same code produce
*identical* JSON — a perf change shows up as a diff, noise cannot.

``SWEEPS`` is the registry of gated sweeps (queue depth, shards,
replication, PMem/striping, indexing, traffic).  Each entry names its
points by suite workload name and carries named checks — the paper
shape it protects (a winner, a crossover, a knee).  ``repro bench
<name>`` runs a sweep twice, requires byte-identical rendering, runs the
checks, and prints the sweep's table; adding a sweep is one entry.

``compare`` is the gate: given a committed ``BENCH_<label>.json``
baseline and a fresh run, it fails on any >10 % regression in
throughput, p99 latency, or write amplification.  CI runs it against
``benchmarks/BENCH_seed.json``; refresh the baseline in the same PR as
an intentional perf change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import Histogram
from repro.sim.clock import Stopwatch

#: Bump when the suite's workloads change incompatibly; the gate refuses
#: to compare across versions instead of reporting phantom regressions.
SUITE_VERSION = 1

#: Relative slack of the regression gate (10 %).
DEFAULT_TOLERANCE = 0.10

#: Metrics the gate checks: (json key path, direction, human name).
#: ``direction`` +1 means higher-is-better, -1 means lower-is-better.
GATED_METRICS = (
    (("throughput_ops_s",), +1, "throughput"),
    (("latency_us", "p99"), -1, "p99 latency"),
    (("write_amplification",), -1, "write amplification"),
)


def _engine_store():
    from repro.bench.adapters import make_store
    # A 200 us group-commit window: commits inside it share one WAL
    # flush and one sorted extent batch (the paper's group commit,
    # Section V-A, extended across the whole commit window).
    return make_store("our", capacity_bytes=1 << 30,
                      buffer_bytes=256 << 20,
                      group_commit_window_ns=200_000.0)


def _result(ops: int, elapsed_ns: int, latency: Histogram, *,
            digits: int = 1, written: int = 0,
            payload_bytes: int | None = None) -> dict:
    """The gated block every point shares.

    Op count, virtual elapsed time, throughput, latency quantiles in
    microseconds rounded to ``digits`` decimals, and write amplification
    (``written`` device bytes per payload byte; pinned 0 when the point
    has no payload, e.g. a bare index).
    """
    lat = latency.summary()
    block = {
        "ops": ops,
        "elapsed_virtual_ms": round(elapsed_ns / 1e6, 3),
        "throughput_ops_s": round(ops * 1e9 / elapsed_ns, 1)
        if elapsed_ns else 0.0,
        "latency_us": {q: round(lat[q] / 1000, digits)
                       for q in ("mean", "p50", "p95", "p99", "max")},
        "write_amplification": round(written / payload_bytes, 4)
        if payload_bytes else 0.0,
    }
    if payload_bytes is not None:
        block["payload_bytes"] = payload_bytes
    return block


def _workload_result(store, ops: int, elapsed_ns: int, latency: Histogram,
                     payload_bytes: int) -> dict:
    """Distill one finished workload run into the gated JSON shape."""
    db = store.db
    # Settle any open group-commit window so deferred writes are
    # accounted — write amplification must not hide queued work.
    db.drain_commit_window()
    device = db.device
    report = db.stats_report()
    return _result(ops, elapsed_ns, latency,
                   written=device.stats.bytes_written,
                   payload_bytes=payload_bytes) | {
        "bytes_written_by_category": {
            k: v for k, v in sorted(
                device.stats.bytes_written_by_category.items()) if v},
        "wal": {
            "records": report.wal_records,
            "sync_flushes": report.wal_synchronous_flushes,
            "checkpoints": report.checkpoints_taken,
        },
        "pool": {
            "hit_ratio": round(report.pool_hit_ratio, 4),
            "evictions": report.pool_evictions,
        },
    }


def _run_ycsb(payload: int, n_records: int, n_ops: int, seed: int) -> dict:
    from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

    store = _engine_store()
    config = YcsbConfig(n_records=n_records, payload=payload,
                        read_ratio=0.5, seed=seed)
    workload = YcsbWorkload(config)
    clock = store.model.clock
    latency = Histogram("op_ns")
    payload_bytes = 0
    for key, data in workload.load_phase():
        store.put(key, data)
        payload_bytes += len(data)
    start_ns = clock.now_ns
    ops = 0
    for op, key, data in workload.operations(n_ops):
        with Stopwatch(clock) as sw:
            if op == "read":
                got = store.get(key)
                assert got, "empty read"
            else:
                store.replace(key, data)
                payload_bytes += len(data)
        latency.observe(sw.elapsed_ns)
        ops += 1
    return _workload_result(store, ops, clock.now_ns - start_ns, latency,
                            payload_bytes)


def _run_wikipedia(n_articles: int, n_ops: int, seed: int) -> dict:
    from repro.workloads.wikipedia import WikipediaCorpus

    store = _engine_store()
    corpus = WikipediaCorpus(n_articles=n_articles, seed=seed)
    clock = store.model.clock
    latency = Histogram("op_ns")
    payload_bytes = 0
    for article in corpus.articles:
        content = corpus.content(article)
        store.put(article.title, content)
        payload_bytes += len(content)
    sample = corpus.view_sampler(seed=seed + 1)
    start_ns = clock.now_ns
    ops = 0
    for i in range(n_ops):
        article = sample()
        with Stopwatch(clock) as sw:
            if i % 10 == 9:  # 10 % hot-article rewrites
                content = corpus.content(article)
                store.replace(article.title, content)
                payload_bytes += len(content)
            else:
                got = store.get(article.title)
                assert len(got) == article.size
        latency.observe(sw.elapsed_ns)
        ops += 1
    return _workload_result(store, ops, clock.now_ns - start_ns, latency,
                            payload_bytes)


# -- the sweep registry ---------------------------------------------------

#: A named check: ``fn(points)`` returns a failure message, or ``None``
#: when the shape it protects holds.
Check = tuple[str, Callable[[dict], "str | None"]]


@dataclass(frozen=True)
class Sweep:
    """One gated sweep, declared once.

    ``points()`` runs the sweep and returns ``{suite workload name:
    point}``; ``run_suite`` folds those points into the gated suite.
    ``checks`` receive the points; ``columns`` are ``(header, dotted key
    path, format spec)`` of the table ``repro bench <name>`` prints.
    ``extra`` is ``(key, fn)`` for output that rides in the sweep's own
    document but not in the suite (only the replication storm);
    ``extra_checks`` receive that output.
    """

    name: str
    title: str
    points: Callable[[], dict[str, dict]]
    checks: tuple[Check, ...]
    columns: tuple[tuple[str, str, str], ...]
    extra: tuple[str, Callable[[], dict]] | None = None
    extra_checks: tuple[Check, ...] = ()


def _pick(points: dict[str, dict], prefix: str,
          key: str | None = None) -> list[dict]:
    """The points whose suite name starts with ``prefix``, by ``key``."""
    picked = [p for name, p in points.items() if name.startswith(prefix)]
    return sorted(picked, key=lambda p: p[key]) if key else picked


def _joined(messages) -> str | None:
    return "; ".join(messages) or None


def _each(points: dict[str, dict], prefix: str, failed,
          message: str) -> str | None:
    """``message``, formatted with each point of ``prefix`` that
    ``failed``, joined; ``None`` if no point failed."""
    return _joined(message.format(**p) for p in _pick(points, prefix)
                   if failed(p))


def _not_monotone(ordered: list[dict], key: str) -> str | None:
    """Failure if throughput falls anywhere along ``ordered``."""
    return _joined(
        f"throughput not monotone in {key}: {a[key]}: "
        f"{a['throughput_ops_s']} -> {b[key]}: {b['throughput_ops_s']}"
        for a, b in zip(ordered, ordered[1:])
        if b["throughput_ops_s"] < a["throughput_ops_s"])


def _short_speedup(ordered: list[dict], key: str,
                   factor: float) -> str | None:
    """Failure if the last point is not ``factor`` x the first."""
    tp = [p["throughput_ops_s"] for p in ordered]
    if tp and tp[-1] < factor * tp[0]:
        return (f"insufficient speedup at {key} {ordered[-1][key]}: "
                f"{tp[-1] / tp[0]:.2f}x < {factor}x")
    return None


# -- iodepth: queue-depth sweep ---------------------------------------------

#: Queue depths of the iodepth sweep (powers of four up to past the
#: simulated device's submission-queue limit).
IODEPTH_SWEEP = (1, 4, 16, 64)


def _run_extents(device: dict, *, queue_depth: int, n_extents: int,
                 ext_pages: int, n_reads: int, n_writes: int,
                 seed: int) -> dict:
    """One point of a scheduler-driven extent sweep (iodepth, stripe).

    Each of 24 rounds pushes ``n_reads`` scattered extent reads (plus,
    every third round, ``n_writes`` extent writes) through an
    :class:`~repro.io.IoScheduler` pinned to ``queue_depth`` over the
    device ``make_device(**device)`` builds.  A sweep varies one knob
    (depth or stripe width) and keeps the request sequence, extent
    placement and payload bytes identical across its points, so it
    isolates how that knob shapes latency overlap.
    """
    import random

    from repro.io import IoScheduler
    from repro.sim.cost import CostModel
    from repro.storage.factory import make_device

    model = CostModel()
    dev = make_device(model, **device)
    sched = IoScheduler(dev, model, queue_depth=queue_depth,
                        max_merge_pages=64)
    ps = dev.page_size
    rng = random.Random(seed)
    # Preload every extent off the timed path.
    for idx in range(n_extents):
        dev.write(idx * ext_pages, rng.randbytes(ext_pages * ps),
                  background=True)
    written_before = dev.stats.bytes_written
    clock = model.clock
    latency = Histogram("batch_ns")
    start_ns = clock.now_ns
    ops = 0
    payload_bytes = 0
    for round_no in range(24):
        read_idx = rng.sample(range(n_extents), n_reads)
        write_idx = rng.sample(range(n_extents), n_writes) \
            if round_no % 3 == 2 else []
        write_data = [rng.randbytes(ext_pages * ps) for _ in write_idx]
        with Stopwatch(clock) as sw:
            for idx in read_idx:
                sched.submit_read(idx * ext_pages, ext_pages)
            sched.drain()
            for idx, data in zip(write_idx, write_data):
                sched.submit_write(idx * ext_pages, data)
            if write_idx:
                sched.drain()
        latency.observe(sw.elapsed_ns)
        ops += len(read_idx) + len(write_idx)
        payload_bytes += sum(len(d) for d in write_data)
    elapsed_ns = clock.now_ns - start_ns
    return _result(ops, elapsed_ns, latency,
                   written=dev.stats.bytes_written - written_before,
                   payload_bytes=payload_bytes) | {
        "io": {
            "requests_in": sched.stats.requests_in,
            "requests_out": sched.stats.requests_out,
            "coalesce_ratio": round(sched.stats.coalesce_ratio, 4),
            "drains": sched.stats.drains,
        },
    }


def _iodepth_points() -> dict[str, dict]:
    return {
        f"iodepth_qd{qd}": _run_extents(
            {"capacity_pages": 4096}, queue_depth=qd, n_extents=256,
            ext_pages=4, n_reads=44, n_writes=16, seed=11)
        | {"queue_depth": qd}
        for qd in IODEPTH_SWEEP}


def _iodepth_diminishing(points: dict) -> str | None:
    tp = [p["throughput_ops_s"]
          for p in _pick(points, "iodepth_", "queue_depth")]
    if len(tp) >= 3 and (tp[-1] - tp[-2]) > (tp[-2] - tp[-3]):
        return ("no diminishing returns at the deepest queue: gain "
                f"{tp[-2] - tp[-3]:.1f} then {tp[-1] - tp[-2]:.1f}")
    return None


# -- shards: sharded scatter-gather sweep -----------------------------------

#: Shard counts of the sharded-engine sweep.
SHARD_SWEEP = (1, 2, 4, 8)

#: Zipf skew of the adversarial sweep point (paper-standard hot-key
#: skew; ~half of the samples land on a handful of keys).
SHARD_SKEW_THETA = 0.99

#: Required uniform-key speedup of the widest shard count over one.
SHARD_MIN_SPEEDUP = 3.0


def _run_shards(n_shards: int, zipf_theta: float, *, n_records: int = 96,
                n_batches: int = 24, batch: int = 128,
                payload: int = 4096, seed: int = 3) -> dict:
    """One point of the sharded scatter-gather sweep (ycsb_4k shape).

    A fixed key population is hash-partitioned over ``n_shards``
    independent engines; each round issues one ``multiget`` (or, every
    fourth round, one ``multiput`` replace) of ``batch`` sampled keys.
    The observed batch latency is the router's makespan — uniform
    sampling splits the batch evenly and the makespan shrinks with the
    shard count; Zipf-``theta`` sampling piles the batch onto the hot
    key's shard and the makespan collapses back toward serial.
    """
    import random

    from repro.db.config import EngineConfig
    from repro.shard import ShardedBlobDB
    from repro.workloads.ycsb import zipf_sampler

    config = EngineConfig(device_pages=16384, wal_pages=512,
                          catalog_pages=128, buffer_pool_pages=4096)
    sdb = ShardedBlobDB(n_shards=n_shards, config=config)
    rng = random.Random(seed)
    keys = [b"user%010d" % i for i in range(n_records)]
    payload_bytes = 0
    # Load phase (untimed): populate every key via scattered batches.
    for lo in range(0, n_records, 32):
        items = [(key, rng.randbytes(payload))
                 for key in keys[lo:lo + 32]]
        sdb.multiput(items)
        payload_bytes += sum(len(data) for _, data in items)
    if zipf_theta > 0:
        sample = zipf_sampler(n_records, zipf_theta, rng)
    else:
        def sample() -> int:
            return rng.randrange(n_records)
    clock = sdb.model.clock
    latency = Histogram("batch_ns")
    start_ns = clock.now_ns
    ops = 0
    for round_no in range(n_batches):
        idx = [sample() for _ in range(batch)]
        if round_no % 4 == 3:
            # Replace batch: duplicates are deliberate — a skewed
            # stream hammers the hot key, and every hit is an upsert
            # the hot shard must serialize (last writer wins).
            items = [(keys[i], rng.randbytes(payload)) for i in idx]
            with Stopwatch(clock) as sw:
                sdb.multiput(items)
            payload_bytes += sum(len(data) for _, data in items)
        else:
            with Stopwatch(clock) as sw:
                got = sdb.multiget([keys[i] for i in idx])
            assert all(len(data) == payload for data in got)
        latency.observe(sw.elapsed_ns)
        ops += len(idx)
    sdb.drain_commit_window()
    elapsed_ns = clock.now_ns - start_ns
    written = sum(shard.device.stats.bytes_written for shard in sdb.shards)
    report = sdb.stats_report()
    return _result(ops, elapsed_ns, latency, written=written,
                   payload_bytes=payload_bytes) | {
        "n_shards": n_shards,
        "zipf_theta": zipf_theta,
        "shard": {
            "fanout_batches": report.shard_fanout_batches,
            "routed_keys": report.shard_routed_keys,
            "imbalance": round(report.shard_imbalance, 4),
            "keys_per_shard": report.shard_keys_per_shard,
        },
    }


def _shard_points() -> dict[str, dict]:
    points = {f"shards_s{n}": _run_shards(n, 0.0) for n in SHARD_SWEEP}
    widest = SHARD_SWEEP[-1]
    points[f"shards_s{widest}_zipf{int(SHARD_SKEW_THETA * 100)}"] = \
        _run_shards(widest, SHARD_SKEW_THETA)
    return points


def _shards_uniform(points: dict) -> list[dict]:
    return [p for p in _pick(points, "shards_", "n_shards")
            if p["zipf_theta"] == 0.0]


def _shards_skew_degrades(points: dict) -> str | None:
    """Zipf skew must cost >=20 % of the uniform peer's throughput — if
    it doesn't, the makespan model is broken."""
    return _joined(
        f"Zipf {p['zipf_theta']} skew shows no degradation at "
        f"{p['n_shards']} shards: {p['throughput_ops_s']} vs uniform "
        f"{points[name.split('_zipf')[0]]['throughput_ops_s']}"
        for name, p in points.items()
        if name.startswith("shards_") and "_zipf" in name
        and p["throughput_ops_s"]
        >= 0.8 * points[name.split("_zipf")[0]]["throughput_ops_s"])


# -- replication: quorum sweep plus the availability storm -------------------

#: Quorum sizes of the replication sweep (3-member groups).
REPLICATION_QUORUMS = (1, 2, 3)

#: Seeded fault schedules of the availability storm.
REPLICATION_STORM_SCHEDULES = 100

#: Simulated upper bound on one failover's group-clock duration; a
#: promotion that takes longer than this (20 ms) means retry backoff or
#: catch-up work has run away and availability is fiction.
REPLICATION_FAILOVER_BOUND_US = 20_000.0


def _run_replication(quorum: int, *, n_ops: int = 48,
                     payload: int = 2048, seed: int = 5) -> dict:
    """One point of the quorum commit-latency sweep.

    A 3-member replica group on deliberately *heterogeneous* links —
    shared memory (primary-local, unused), RDMA, TCP — commits a fixed
    put/read mix.  The only thing that varies across points is the
    quorum size, so the sweep isolates what a quorum buys: ``q=1`` never
    waits for a link, ``q=2`` waits for the fastest (RDMA) ack and
    hides the slow TCP replica, ``q=3`` pays the slowest link on every
    commit.  Commit latency must be *strictly* increasing in the quorum
    size (a check of the ``replication`` sweep).
    """
    import random

    from repro.db.config import EngineConfig
    from repro.net.transport import RDMA, SHARED_MEMORY, TCP_ETHERNET
    from repro.replica import ReplicaGroup

    config = EngineConfig(device_pages=16384, wal_pages=512,
                          catalog_pages=128, buffer_pool_pages=4096)
    group = ReplicaGroup(n_replicas=2, quorum=quorum, config=config,
                         transport=[SHARED_MEMORY, RDMA, TCP_ETHERNET],
                         name=f"bench_q{quorum}")
    rng = random.Random(seed)
    keys = [b"rep%05d" % i for i in range(16)]
    payload_bytes = 0
    # Load phase (untimed): populate every key once.
    for key in keys:
        group.put(key, rng.randbytes(payload))
        payload_bytes += payload
    clock = group.model.clock
    latency = Histogram("commit_ns")
    start_ns = clock.now_ns
    ops = 0
    for i in range(n_ops):
        key = keys[i % len(keys)]
        with Stopwatch(clock) as sw:
            if i % 3 == 2:
                got = group.read_any(key)
                assert len(got) == payload
            else:
                group.put(key, rng.randbytes(payload))
                payload_bytes += payload
        latency.observe(sw.elapsed_ns)
        ops += 1
    group.drain()
    elapsed_ns = clock.now_ns - start_ns
    written = sum(m.db.device.stats.bytes_written for m in group.members)
    report = group.stats_report()
    return _result(ops, elapsed_ns, latency, digits=2, written=written,
                   payload_bytes=payload_bytes) | {
        "quorum": quorum,
        "replication": {
            "acked_writes": report.replica_acked_writes,
            "records_shipped": report.replica_records_shipped,
            "ship_retries": report.replica_ship_retries,
            "max_lag_records": report.replica_max_lag_records,
            "stale_reads": report.replica_stale_reads,
        },
    }


def _quorum_latency_increasing(points: dict) -> str | None:
    means = [p["latency_us"]["mean"]
             for p in _pick(points, "replication_", "quorum")]
    if any(b <= a for a, b in zip(means, means[1:])):
        return (f"commit latency not strictly increasing with quorum: "
                f"{means} us")
    return None


def _storm_schedule(seed: int) -> tuple[str, dict]:
    """One seeded kill-and-recover schedule of the availability storm.

    Writes (and deletes) through a faulty-linked 3-member quorum-2
    group, kills the primary mid-batch at a drawn point, audits the
    failed-over group for the zero-loss contract, rejoins the deposed
    primary, and converges.  Returns a canonical counter line (digest
    input) plus the violation counts the storm checks gate on.
    """
    import random

    from repro.db.config import EngineConfig
    from repro.db.errors import DatabaseError
    from repro.replica import ReplicaGroup
    from repro.storage.faults import FaultPlanFactory, FaultSpec

    config = EngineConfig(device_pages=16384, wal_pages=512,
                          catalog_pages=128, buffer_pool_pages=4096)
    links = FaultPlanFactory(FaultSpec(
        seed=seed, network_error=0.04,
        latency_spike=0.02, latency_spike_ns=400_000.0,
        partition=0.01, partition_max_ns=2_000_000.0))
    group = ReplicaGroup(n_replicas=2, quorum=2, config=config,
                         link_faults=links, name=f"storm{seed}")
    rng = random.Random(seed)
    acked: dict[bytes, bytes] = {}
    deleted: list[bytes] = []
    for i in range(20):
        key = b"st%04d" % i
        data = rng.randbytes(rng.randrange(64, 320))
        group.put(key, data)
        acked[key] = data
    for key in sorted(acked)[:3]:
        group.delete(key)
        del acked[key]
        deleted.append(key)
    old_primary = group.primary_id
    mid_key, mid_data = b"st-mid", rng.randbytes(128)
    n_ships = rng.randrange(0, 3)
    group.crash_primary(mid_record=(mid_key, mid_data, n_ships))
    # Audit 1, on the freshly promoted primary: every acknowledged
    # write readable byte-exact, every acknowledged delete gone, and
    # the unacknowledged mid-crash record all-or-nothing.
    lost = 0
    torn = 0
    for key, data in sorted(acked.items()):
        try:
            if group.get(key) != data:
                lost += 1
        except DatabaseError:
            lost += 1
    for key in deleted:
        if group.exists(key):
            lost += 1
    mid_kept = group.exists(mid_key)
    if mid_kept and group.get(mid_key) != mid_data:
        torn += 1
    group.rejoin(old_primary)
    # Converge: repeated catch-up rounds let member clocks walk past
    # any open partition window (each retry's backoff advances them).
    for _ in range(20):
        group.catch_up()
        if group.max_lag() == 0:
            break
    residual_lag = group.max_lag()
    # Audit 2, after the deposed primary rejoined and was truncated.
    for key, data in sorted(acked.items()):
        try:
            if group.get(key) != data:
                lost += 1
        except DatabaseError:
            lost += 1
    stats = group.stats
    line = (f"s{seed} epoch={group.epoch} primary={group.primary_id} "
            f"acked={stats.acked_writes} shipped={stats.records_shipped} "
            f"retries={group.ship_retries()} fenced={stats.fenced_ships} "
            f"trunc={stats.truncated_records} "
            f"mid={'kept' if mid_kept else 'dropped'} "
            f"lag={residual_lag} "
            f"failover_ns={int(stats.last_failover_ns)}")
    return line, {
        "lost_acked_writes": lost,
        "torn_records": torn,
        "mid_records_survived": 1 if mid_kept else 0,
        "failovers": stats.failovers,
        "rejoins": stats.rejoins,
        "acked_writes": stats.acked_writes,
        "records_shipped": stats.records_shipped,
        "ship_retries": group.ship_retries(),
        "fenced_ships": stats.fenced_ships,
        "truncated_records": stats.truncated_records,
        "failover_ns": stats.last_failover_ns,
    }


def run_replication_storm(
        n_schedules: int = REPLICATION_STORM_SCHEDULES,
        base_seed: int = 9000) -> dict:
    """Availability under storm: ``n_schedules`` seeded kill schedules.

    The whole storm reduces to one SHA-256 digest over the canonical
    per-schedule counter lines — same code + same seed must reproduce it
    bit-for-bit, which is what makes a hundred crash/failover/rejoin
    schedules a CI artifact instead of a flaky soak test.
    """
    import hashlib

    lines: list[str] = []
    totals: dict[str, int] = {}
    max_failover_ns = 0.0
    for i in range(n_schedules):
        line, counters = _storm_schedule(base_seed + i)
        lines.append(line)
        max_failover_ns = max(max_failover_ns, counters.pop("failover_ns"))
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    return {"schedules": n_schedules, "base_seed": base_seed,
            "digest": digest, **totals,
            "max_failover_us": round(max_failover_ns / 1000, 1)}


#: Checks of the availability storm; each receives the storm document.
STORM_CHECKS: tuple[Check, ...] = (
    ("no_lost_acked_writes", lambda s: (
        f"{s['lost_acked_writes']} acknowledged writes lost across "
        f"{s['schedules']} schedules") if s["lost_acked_writes"] else None),
    ("no_torn_records", lambda s: (
        f"{s['torn_records']} torn mid-crash records")
        if s["torn_records"] else None),
    ("failover_every_schedule", lambda s: (
        f"only {s['failovers']} failovers in {s['schedules']} kill "
        f"schedules") if s["failovers"] < s["schedules"] else None),
    ("failover_bounded", lambda s: (
        f"failover makespan unbounded: {s['max_failover_us']} us > "
        f"{REPLICATION_FAILOVER_BOUND_US} us")
        if s["max_failover_us"] > REPLICATION_FAILOVER_BOUND_US else None),
)


# -- pmem: WAL placement and stripe width ----------------------------------

#: Group-commit windows (virtual ns) of the WAL-placement sweep: a
#: durable ack per commit, then windows covering ~25 and ~100 commits —
#: enough amortization to shrink the PMem gap without erasing it.
PMEM_COMMIT_WINDOWS_NS = (0.0, 20_000.0, 80_000.0)

#: Stripe widths of the multi-device data sweep.
PMEM_STRIPE_SWEEP = (1, 2, 4)

#: Required speedup of the widest stripe point over one device.
PMEM_STRIPE_MIN_SPEEDUP = 2.0


def _run_pmem_commit(window_ns: float, on_pmem: bool) -> dict:
    """One point of the WAL-placement durable-commit latency sweep.

    A fixed insert/commit stream runs against two engines that differ
    *only* in where the WAL ring lives: on the byte-addressable PMem
    tier (byte appends, persist priced as cache-line flush + fence) or
    on the block NVMe (page round-up + fdatasync).  The client requires
    a *durable* acknowledgment at every group-commit window boundary —
    window 0 syncs every commit, a wider window lets commits share one
    sync — so the sweep shows how far amortization closes the gap.
    PMem must win at *every* window for the placement policy to be
    unconditional.
    """
    import random

    from repro.db.config import EngineConfig
    from repro.db.database import BlobDB

    config = EngineConfig(device_pages=16384, wal_pages=512,
                          catalog_pages=512, buffer_pool_pages=4096,
                          group_commit_window_ns=window_ns,
                          pmem_pages=2048 if on_pmem else 0)
    db = BlobDB(config)
    db.create_table("t")
    rng = random.Random(29)
    payload = 8192
    payload_bytes = 0
    # Load phase (untimed): warm the pool and the WAL ring.
    for i in range(16):
        txn = db.begin()
        db.put(txn, "t", b"warm%04d" % i, rng.randbytes(payload))
        db.commit(txn)
        payload_bytes += payload
    db.drain_commit_window()
    db.wal.sync_flush()
    clock = db.model.clock
    latency = Histogram("commit_ns")
    deadline: float | None = None
    start_ns = clock.now_ns
    ops = 0
    for i in range(160):
        data = rng.randbytes(payload)
        with Stopwatch(clock) as sw:
            txn = db.begin()
            db.put(txn, "t", b"pm%05d" % i, data)
            db.commit(txn)
            if deadline is None:
                deadline = clock.now_ns + window_ns
            if clock.now_ns >= deadline:
                # The window closed on this commit: it drains the group
                # and pays the synchronous durability point for everyone
                # who rode along.
                db.drain_commit_window()
                db.wal.sync_flush()
                deadline = None
        latency.observe(sw.elapsed_ns)
        payload_bytes += payload
        ops += 1
    db.drain_commit_window()
    db.wal.sync_flush()
    elapsed_ns = clock.now_ns - start_ns
    report = db.stats_report()
    written = sum(
        sum(dev.stats.bytes_written_by_category.values())
        for dev in db.storage.devices)
    # Three decimals: wide windows amortize the sync down to tens of ns
    # per op, and the strictly-below check compares these rounded values.
    return _result(ops, elapsed_ns, latency, digits=3, written=written,
                   payload_bytes=payload_bytes) | {
        "window_us": round(window_ns / 1000, 1),
        "wal_on": report.wal_device_kind,
        "wal": {
            "records": report.wal_records,
            "sync_flushes": report.wal_synchronous_flushes,
            "byte_appends": report.wal_byte_appends,
            "pmem_bytes": report.pmem_bytes_written,
        },
    }


def _pmem_points() -> dict[str, dict]:
    points = {}
    for window_ns in PMEM_COMMIT_WINDOWS_NS:
        for on_pmem in (False, True):
            point = _run_pmem_commit(window_ns, on_pmem)
            points[f"pmem_wal_{point['wal_on']}_"
                   f"w{int(point['window_us'])}us"] = point
    # The stripe sweep: the same scattered-extent stream over a
    # StripedDevice of k members; only the number of independent SQ/CQ
    # queues absorbing it changes.
    for k in PMEM_STRIPE_SWEEP:
        points[f"stripe_k{k}"] = _run_extents(
            {"capacity_pages": 8192, "kind": "striped", "n_devices": k,
             "stripe_pages": 8}, queue_depth=32, n_extents=128,
            ext_pages=8, n_reads=96, n_writes=32, seed=13) \
            | {"n_devices": k}
    return points


def _pmem_wal_below_nvme(points: dict) -> str | None:
    """Durable-ack commit latency with the WAL on PMem must be strictly
    below its NVMe peer (same window) at every group-commit window."""
    pairs = [(p["window_us"], p["latency_us"]["mean"],
              points[name.replace("_pmem_", "_nvme_")]["latency_us"]["mean"])
             for name, p in points.items()
             if name.startswith("pmem_wal_pmem_")]
    return _joined(
        f"WAL-on-PMem not below NVMe at window {window_us} us: "
        f"{pmem} vs {nvme} us mean commit"
        for window_us, pmem, nvme in sorted(pairs) if not pmem < nvme)


# -- index: engine crossover and interval-numbered scans --------------------

#: Relation-index engines of the adaptive-indexing sweep.
INDEX_ENGINE_SWEEP = ("btree", "art", "learned")

#: (zipf_theta, write_ratio) of the two crossover points: a
#: read-mostly uniform mix where the learned tier's O(log segments)
#: probe beats ART's per-byte node walk, and a write-heavy Zipf-skewed
#: mix that hammers one hot segment with retrains until ART wins.
INDEX_CROSSOVER_POINTS = ((0.0, 0.1), (0.99, 0.8))

#: Required margin of the crossover gate: the winner of each point must
#: beat the loser by at least this factor (measured headroom ~1.2x on
#: the uniform point and ~1.35x on the skewed one).
INDEX_CROSSOVER_MARGIN = 1.1

#: Namespaces of the recursive-scan comparison.
NS_SCAN_WORKLOADS = ("gitclone", "wikipedia")

#: Required speedup of the interval-numbered accelerator over the
#: per-level readdir+getattr walk on both namespaces.
NS_SCAN_MIN_SPEEDUP = 3.0


def _make_index_engine(engine: str):
    """A bare relation index of the given kind on a fresh cost model."""
    from repro.art import ArtTree
    from repro.btree import BTree
    from repro.db.config import EngineConfig
    from repro.lindex import LearnedIndex
    from repro.sim.cost import CostModel

    model = CostModel()
    defaults = EngineConfig()
    if engine == "art":
        return model, ArtTree(model=model)
    if engine == "learned":
        return model, LearnedIndex(model=model,
                                   epsilon=defaults.lindex_epsilon,
                                   delta_max=defaults.lindex_delta_max)
    return model, BTree(node_bytes=defaults.page_size, model=model,
                        key_size=lambda k: len(k))


def _run_index_point(engine: str, zipf_theta: float, write_ratio: float,
                     *, n_slots: int = 2048, n_ops: int = 2400,
                     seed: int = 11) -> dict:
    """One point of the relation-index crossover sweep.

    The index alone is measured — no WAL, no buffer pool — so the point
    isolates exactly what the engines disagree on: probe and maintain
    cost.  Each of ``n_slots`` objects starts with one version key
    (``obj/<slot*1000>``); an op either looks up a slot's latest version
    or inserts the next one.  Uniform sampling spreads inserts thinly
    (the learned tier's deltas absorb them); Zipf sampling piles them
    onto a few hot segments and forces retrain churn.
    """
    import random

    from repro.workloads.ycsb import zipf_sampler

    model, tree = _make_index_engine(engine)
    counts = [0] * n_slots
    for slot in range(n_slots):
        tree.insert(b"obj/%012d" % (slot * 1000), b"v0")
    rng = random.Random(seed)
    if zipf_theta > 0:
        sample = zipf_sampler(n_slots, zipf_theta, rng)
    else:
        def sample() -> int:
            return rng.randrange(n_slots)
    clock = model.clock
    latency = Histogram("op_ns")
    start_ns = clock.now_ns
    reads = writes = 0
    for _ in range(n_ops):
        slot = sample()
        if rng.random() < write_ratio:
            counts[slot] += 1
            with Stopwatch(clock) as sw:
                tree.insert(b"obj/%012d" % (slot * 1000 + counts[slot]),
                            b"v")
            writes += 1
        else:
            with Stopwatch(clock) as sw:
                got = tree.lookup(b"obj/%012d" % (slot * 1000
                                                  + counts[slot]))
            assert got is not None
            reads += 1
        latency.observe(sw.elapsed_ns)
    # No device underneath a bare index: write amplification is pinned 0.
    point = _result(n_ops, clock.now_ns - start_ns, latency, digits=3) | {
        "engine": engine,
        "zipf_theta": zipf_theta,
        "write_ratio": write_ratio,
        "reads": reads,
        "writes": writes,
        "entries": len(tree),
    }
    if engine == "learned":
        tree_stats = tree.stats()
        point["learned"] = {
            "segments": tree_stats.segment_count,
            "retrains": tree_stats.retrain_count,
            "delta_hits": tree_stats.delta_hit_count,
            "probes": tree_stats.probe_count,
            "max_segment_error": tree_stats.max_segment_error,
        }
    return point


def _run_ns_scan(workload: str, *, seed: int = 17) -> dict:
    """One point of the recursive-scan comparison.

    A directory-shaped namespace (git checkout or a sharded wiki dump)
    is committed as inline rows, then ``readdir -R`` plus subtree
    ``statfs`` run twice: once as the classic per-level decomposition —
    one ``readdir`` per directory, one ``getattr`` per entry — and once
    through the interval-numbered accelerator, where each is one range
    scan.  Listings must match exactly; only the virtual time differs.
    """
    import random

    from repro.db.config import EngineConfig
    from repro.db.database import BlobDB
    from repro.fuse.vfs import BlobFuse

    db = BlobDB(EngineConfig())
    rng = random.Random(seed)
    keys: list[bytes] = []
    if workload == "gitclone":
        # The gitclone trace's tree shape (dirNNNN/fileNNNNNN.c) at
        # bench scale: 24 directories x 15 files.
        table, n_dirs, n_files = "repo", 24, 360
        for i in range(n_files):
            keys.append(b"src/dir%04d/file%06d.c" % (i % n_dirs, i))
    else:
        # Wikipedia titles sharded over two-digit buckets.
        table = "wiki"
        for i in range(240):
            keys.append(b"wiki/%02d/article%08d" % (i % 16, i))
    db.create_table(table)
    for lo in range(0, len(keys), 64):
        with db.transaction() as txn:
            for key in keys[lo:lo + 64]:
                db.put(txn, table, key,
                       rng.randbytes(rng.randrange(40, 200)))
    fs = BlobFuse(db)
    clock = db.model.clock
    with Stopwatch(clock) as plain_sw:
        plain = fs.readdir_recursive("/" + table)
        plain_totals = fs.subtree_statfs("/" + table)
    fs.attach_namespace()
    with Stopwatch(clock) as accel_sw:
        accel = fs.readdir_recursive("/" + table)
        accel_totals = fs.subtree_statfs("/" + table)
    speedup = plain_sw.elapsed_ns / accel_sw.elapsed_ns \
        if accel_sw.elapsed_ns else 0.0
    entries = len(accel)
    elapsed_ns = accel_sw.elapsed_ns
    return {
        "workload": workload,
        "entries": entries,
        "listings_match": plain == accel and plain_totals == accel_totals,
        "plain_us": round(plain_sw.elapsed_ns / 1000, 3),
        "accelerated_us": round(accel_sw.elapsed_ns / 1000, 3),
        "speedup": round(speedup, 2),
        "range_scans": db.ns.range_scans,
        "interval_nodes": db.ns.nodes,
        "subtree": plain_totals,
        # Gated shape: entries listed per second through the
        # accelerator, tail = the two scans' slower one.
        "ops": entries,
        "throughput_ops_s": round(entries * 1e9 / elapsed_ns, 1)
        if elapsed_ns else 0.0,
        "latency_us": {q: round(elapsed_ns / 2000, 3)
                       for q in ("mean", "p50", "p95", "p99")}
        | {"max": round(elapsed_ns / 1000, 3)},
        "write_amplification": 0.0,
    }


def _index_points() -> dict[str, dict]:
    points = {}
    for zipf_theta, write_ratio in INDEX_CROSSOVER_POINTS:
        mix = "uniform" if zipf_theta == 0.0 \
            else f"zipf{int(zipf_theta * 100)}"
        for engine in INDEX_ENGINE_SWEEP:
            points[f"index_{engine}_{mix}"] = _run_index_point(
                engine, zipf_theta, write_ratio)
    for workload in NS_SCAN_WORKLOADS:
        points[f"ns_scan_{workload}"] = _run_ns_scan(workload)
    return points


def _index_crossover(points: dict, skewed: bool) -> str | None:
    """The learned tier must beat ART by the margin on the uniform point
    and lose to it by the same margin on the skewed one."""
    failures = []
    for name, learned in points.items():
        if not name.startswith("index_learned_") \
                or (learned["zipf_theta"] > 0.0) != skewed:
            continue
        art = points[name.replace("_learned_", "_art_")]
        win, lose = (art, learned) if skewed else (learned, art)
        if win["throughput_ops_s"] < \
                INDEX_CROSSOVER_MARGIN * lose["throughput_ops_s"]:
            failures.append(
                f"{win['engine']} does not win the "
                f"{'skewed' if skewed else 'uniform'} point "
                f"(theta={learned['zipf_theta']} "
                f"writes={learned['write_ratio']:.0%}): "
                f"{win['throughput_ops_s']} vs {lose['engine']} "
                f"{lose['throughput_ops_s']} op/s")
    return _joined(failures)


# -- traffic: open-loop saturation and admission ---------------------------

#: Offered-load multipliers of the open-loop traffic sweep, as
#: fractions of the measured closed-loop capacity: one point well below
#: the knee, one near it, and two past it.
TRAFFIC_SWEEP = (0.25, 1.0, 2.0, 4.0)

#: Token rate of the admission-protected overload point, as a fraction
#: of closed-loop capacity (split evenly across the tenants).
TRAFFIC_ADMIT_FRACTION = 0.4

#: Upper bound on the protected point's p999 latency relative to the
#: unprotected overload point: shedding must cut the tail at least in
#: half or admission control is decorative.
TRAFFIC_P999_PROTECTION = 0.5

#: Tenants and per-tenant op count of every open-loop point.
_TRAFFIC_TENANTS = 2
_TRAFFIC_OPS_PER_TENANT = 100


def _traffic_sim(admission=None):
    from repro.sched import TrafficConfig, TrafficSim

    return TrafficSim(TrafficConfig(
        n_workers=2, n_shards=1, n_keys=32, payload_bytes=4096,
        read_ratio=0.5, seed=17), admission=admission)


def _traffic_points() -> dict[str, dict]:
    """Open-loop traffic sweep over the discrete-event scheduler.

    First a closed-loop run measures the fleet's service capacity (the
    calibration point — the same quantity ``WorkerSim`` estimates
    analytically).  Then each sweep point replays a seeded Poisson
    arrival schedule at a multiple of that capacity through
    :class:`~repro.sched.TrafficSim`: below the knee completed
    throughput tracks offered load; past it throughput saturates and
    p999 latency explodes — the open-loop behaviour a closed-loop
    (or analytic) harness is structurally blind to.  A final pair of
    points replays the worst overload through token-bucket admission
    (shed and queue policies) to show a bounded tail and exact shed
    accounting.
    """
    from repro.sched import AdmissionController, generate_jobs

    closed = _traffic_sim().run_closed(
        _TRAFFIC_TENANTS * 48, tenants=_TRAFFIC_TENANTS)
    capacity = closed.throughput_ops_s
    points = {"traffic_closed": closed.as_dict()
              | {"offered_mult": None, "admission": None}}

    def jobs_at(mult: float):
        # Per-tenant rate: aggregate offered load = tenants * rate.
        return generate_jobs(
            tenants=_TRAFFIC_TENANTS, per_tenant=_TRAFFIC_OPS_PER_TENANT,
            rate_ops_s=capacity * mult / _TRAFFIC_TENANTS, seed=17,
            n_keys=32, payload_bytes=4096, read_ratio=0.5)

    for mult in TRAFFIC_SWEEP:
        points[f"traffic_x{str(mult).replace('.', '')}"] = \
            _traffic_sim().run(jobs_at(mult)).as_dict() \
            | {"offered_mult": mult, "admission": None}
    for policy in ("shed", "queue"):
        ctl = AdmissionController(
            policy=policy,
            rate_tokens_s=capacity * TRAFFIC_ADMIT_FRACTION
            / _TRAFFIC_TENANTS,
            burst=4.0)
        points[f"traffic_admit_{policy}"] = _traffic_sim(
            admission=ctl).run(jobs_at(TRAFFIC_SWEEP[-1])).as_dict() | {
            "offered_mult": TRAFFIC_SWEEP[-1],
            "admission": {"policy": policy,
                          "rate_fraction": TRAFFIC_ADMIT_FRACTION,
                          "burst": 4.0},
        }
    return points


def _open_loop(points: dict) -> list[dict]:
    return _pick(points, "traffic_x", "offered_mult")


def _traffic_below_knee(points: dict) -> str | None:
    """Below the knee, completed throughput tracks offered load."""
    low = _open_loop(points)[0]
    offered = points["traffic_closed"]["throughput_ops_s"] \
        * low["offered_mult"]
    if abs(low["throughput_ops_s"] - offered) > 0.3 * offered:
        return (f"below-knee point off its offered load: "
                f"{low['throughput_ops_s']} vs offered {offered:.1f}")
    return None


def _traffic_knee_saturates(points: dict) -> str | None:
    """Past the knee (>=2x offered), throughput saturates."""
    knee = [p for p in _open_loop(points) if p["offered_mult"] >= 2.0]
    if len(knee) >= 2 and knee[-1]["throughput_ops_s"] > \
            1.15 * knee[0]["throughput_ops_s"]:
        return (f"no saturation knee: {knee[0]['throughput_ops_s']} -> "
                f"{knee[-1]['throughput_ops_s']} op/s past 2x offered")
    return None


def _traffic_tail_grows(points: dict) -> str | None:
    """Without admission control the tail explodes across the knee."""
    low, high = _open_loop(points)[0], _open_loop(points)[-1]
    if high["latency_us"]["p999"] < 5 * low["latency_us"]["p999"]:
        return (f"p999 does not grow across the knee: "
                f"{low['latency_us']['p999']} -> "
                f"{high['latency_us']['p999']} us")
    return None


def _traffic_shed_bounds_p999(points: dict) -> str | None:
    """Shedding must cut the unprotected overload tail by the bound."""
    bound = TRAFFIC_P999_PROTECTION * \
        _open_loop(points)[-1]["latency_us"]["p999"]
    return _each(
        points, "traffic_admit_shed",
        lambda p: p["latency_us"]["p999"] >= bound,
        "admission[shed]: p999 not bounded: {latency_us[p999]} us >= "
        f"{bound:.2f} us ({TRAFFIC_P999_PROTECTION:.0%} of unprotected)")


# -- the registry ---------------------------------------------------------

_GATED_COLUMNS = (("ops", "ops", ""), ("op/s", "throughput_ops_s", ".1f"))

#: Every gated sweep, in suite order.  ``repro bench <name>`` runs one;
#: ``run_suite`` folds all of their points into the gated suite.
SWEEPS: dict[str, Sweep] = {sweep.name: sweep for sweep in (
    Sweep(
        name="iodepth",
        title="iodepth sweep (pinned seed, simulated time)",
        points=_iodepth_points,
        checks=(
            ("monotone_in_depth", lambda pts: _not_monotone(
                _pick(pts, "iodepth_", "queue_depth"), "queue_depth")),
            ("diminishing_returns", _iodepth_diminishing),
        ),
        columns=(("qd", "queue_depth", ""), *_GATED_COLUMNS,
                 ("p99 us", "latency_us.p99", ".1f"),
                 ("WA", "write_amplification", ".2f"),
                 ("coalesce", "io.coalesce_ratio", ".4f")),
    ),
    Sweep(
        name="shards",
        title="shard sweep (scatter-gather makespan, pinned seed)",
        points=_shard_points,
        checks=(
            ("monotone_in_shards", lambda pts: _not_monotone(
                _shards_uniform(pts), "n_shards")),
            ("uniform_speedup", lambda pts: _short_speedup(
                _shards_uniform(pts), "n_shards", SHARD_MIN_SPEEDUP)),
            ("skew_degrades", _shards_skew_degrades),
        ),
        columns=(("shards", "n_shards", ""), ("zipf", "zipf_theta", ".2f"),
                 *_GATED_COLUMNS, ("p99 us", "latency_us.p99", ".1f"),
                 ("WA", "write_amplification", ".2f"),
                 ("imbalance", "shard.imbalance", ".4f")),
    ),
    Sweep(
        name="replication",
        title="replication sweep (3-member groups, pinned seed)",
        points=lambda: {f"replication_q{q}": _run_replication(q)
                        for q in REPLICATION_QUORUMS},
        checks=(("quorum_latency_increasing",
                 _quorum_latency_increasing),),
        columns=(("quorum", "quorum", ""), *_GATED_COLUMNS,
                 ("mean us", "latency_us.mean", ".2f"),
                 ("p99 us", "latency_us.p99", ".2f"),
                 ("shipped", "replication.records_shipped", ""),
                 ("retries", "replication.ship_retries", "")),
        # The storm gates robustness, not throughput: it stays out of
        # the suite and rides only in `bench replication`.
        extra=("storm", run_replication_storm),
        extra_checks=STORM_CHECKS,
    ),
    Sweep(
        name="pmem",
        title="pmem sweep (durable-ack commit latency by WAL placement; "
              "stripe width)",
        points=_pmem_points,
        checks=(
            ("wal_on_pmem_below_nvme", _pmem_wal_below_nvme),
            ("stripe_monotone", lambda pts: _not_monotone(
                _pick(pts, "stripe_", "n_devices"), "n_devices")),
            ("stripe_speedup", lambda pts: _short_speedup(
                _pick(pts, "stripe_", "n_devices"), "n_devices",
                PMEM_STRIPE_MIN_SPEEDUP)),
        ),
        columns=(("window us", "window_us", ".1f"), ("wal on", "wal_on", ""),
                 ("devices", "n_devices", ""), *_GATED_COLUMNS,
                 ("mean us", "latency_us.mean", ".3f"),
                 ("p99 us", "latency_us.p99", ".3f"),
                 ("appends", "wal.byte_appends", ""),
                 ("coalesce", "io.coalesce_ratio", ".4f"),
                 ("WA", "write_amplification", ".4f")),
    ),
    Sweep(
        name="index",
        title="index sweep (bare relation index crossover; per-level walk "
              "vs interval scan)",
        points=_index_points,
        checks=(
            ("learned_wins_uniform",
             lambda pts: _index_crossover(pts, skewed=False)),
            ("art_wins_skewed",
             lambda pts: _index_crossover(pts, skewed=True)),
            ("retrain_churn_on_skew", lambda pts: _each(
                pts, "index_learned_", lambda p: p["zipf_theta"] > 0.0
                and p.get("learned", {}).get("retrains", 0) <= 0,
                "no retrain churn on the skewed point "
                "(theta={zipf_theta} writes={write_ratio:.0%})")),
            ("listings_match", lambda pts: _each(
                pts, "ns_scan_", lambda p: not p["listings_match"],
                "ns_scan[{workload}]: accelerated listing differs from "
                "the per-level walk")),
            ("interval_scan_speedup", lambda pts: _each(
                pts, "ns_scan_", lambda p: p["speedup"] < NS_SCAN_MIN_SPEEDUP,
                "ns_scan[{workload}]: interval scan speedup {speedup}x < "
                f"{NS_SCAN_MIN_SPEEDUP}x")),
            ("interval_range_scans", lambda pts: _each(
                pts, "ns_scan_", lambda p: p["range_scans"] < 2,
                "ns_scan[{workload}]: expected >=2 interval range scans, "
                "saw {range_scans}")),
        ),
        columns=(("engine", "engine", ""), ("theta", "zipf_theta", ".2f"),
                 ("writes", "write_ratio", ".0%"), *_GATED_COLUMNS,
                 ("mean us", "latency_us.mean", ".3f"),
                 ("p99 us", "latency_us.p99", ".3f"),
                 ("retrains", "learned.retrains", ""),
                 ("plain us", "plain_us", ".1f"),
                 ("accel us", "accelerated_us", ".1f"),
                 ("speedup", "speedup", ".2f"),
                 ("match", "listings_match", "")),
    ),
    Sweep(
        name="traffic",
        title="traffic sweep (closed-loop capacity, then open-loop "
              "arrivals, pinned seed)",
        points=_traffic_points,
        checks=(
            ("below_knee_tracks_offered", _traffic_below_knee),
            ("knee_saturates", _traffic_knee_saturates),
            ("tail_grows_without_admission", _traffic_tail_grows),
            ("open_loop_never_sheds", lambda pts: _each(
                pts, "traffic_x", lambda p: p["shed"],
                "open-loop point x{offered_mult} shed {shed} ops without "
                "admission control")),
            ("offered_is_admitted_plus_shed", lambda pts: _each(
                pts, "traffic_admit_",
                lambda p: p["offered"] != p["admitted"] + p["shed"],
                "admission[{admission[policy]}]: offered {offered} != "
                "admitted {admitted} + shed {shed}")),
            ("completed_is_admitted", lambda pts: _each(
                pts, "traffic_admit_",
                lambda p: p["completed"] != p["admitted"],
                "admission[{admission[policy]}]: completed {completed} != "
                "admitted {admitted}")),
            ("shed_policy_sheds", lambda pts: _each(
                pts, "traffic_admit_shed", lambda p: not p["shed"],
                "admission[shed]: overload point shed nothing")),
            ("shed_bounds_p999", _traffic_shed_bounds_p999),
            ("queue_policy_never_sheds", lambda pts: _each(
                pts, "traffic_admit_queue", lambda p: p["shed"],
                "admission[queue]: queue policy shed {shed} ops")),
            ("queue_policy_queues", lambda pts: _each(
                pts, "traffic_admit_queue", lambda p: not p["queued_ops"],
                "admission[queue]: overload point queued nothing")),
        ),
        columns=(("offered", "offered_mult", ".2f"),
                 ("policy", "admission.policy", ""),
                 ("done", "completed", ""), ("shed", "shed", ""),
                 ("op/s", "throughput_ops_s", ".1f"),
                 ("p99 us", "latency_us.p99", ".1f"),
                 ("p999 us", "latency_us.p999", ".1f"),
                 ("depth", "max_dispatch_depth", "")),
    ),
)}


def sweep_document(sweep: Sweep) -> dict:
    """One run of ``sweep`` as a JSON-ready document."""
    doc = {"suite_version": SUITE_VERSION, "workloads": sweep.points()}
    if sweep.extra:
        key, run = sweep.extra
        doc[key] = run()
    return doc


def check_sweep(sweep: Sweep) -> tuple[dict, list[str]]:
    """Run ``sweep`` twice; returns the first document and every failure.

    The two runs must render byte-identically (the sweep is pure virtual
    time and seeded RNGs), then every named check must pass.
    """
    first, second = sweep_document(sweep), sweep_document(sweep)
    results = [("determinism", None if render(first) == render(second)
                else f"{sweep.name} sweep not deterministic: runs differ")]
    results += [(name, check(first["workloads"]))
                for name, check in sweep.checks]
    results += [(name, check(first[sweep.extra[0]]))
                for name, check in sweep.extra_checks]
    return first, [f"{name}: {msg}" for name, msg in results if msg]


def format_sweep(sweep: Sweep, doc: dict) -> str:
    """The sweep's table, one row per point, plus any extra output."""
    def cell(point: dict, path: str, spec: str) -> str:
        value = point
        for part in path.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        return "-" if value is None else format(value, spec)

    rows = [["workload", *(header for header, _, _ in sweep.columns)]]
    rows += [[name, *(cell(point, path, spec)
                      for _, path, spec in sweep.columns)]
             for name, point in doc["workloads"].items()]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [sweep.title]
    lines += ["  " + row[0].ljust(widths[0]) + "".join(
        " " + value.rjust(width) for value, width in zip(row[1:], widths[1:]))
        for row in rows]
    if sweep.extra:
        key = sweep.extra[0]
        lines.append(f"{key}:")
        lines += [f"  {k}: {v}" for k, v in sorted(doc[key].items())]
    return "\n".join(lines)


def run_suite(label: str = "local") -> dict:
    """Run the pinned-seed suite; returns the JSON-ready document."""
    workloads = {
        # 4 KB rows: the small-object regime (Fig. 5 territory).
        "ycsb_4k": _run_ycsb(payload=4096, n_records=32, n_ops=240,
                             seed=0),
        # 100 KB BLOBs: the paper's mid-size regime (Fig. 6).
        "ycsb_100k": _run_ycsb(payload=100 * 1024, n_records=12,
                               n_ops=60, seed=0),
        # Wikipedia: realistic size distribution + Zipf popularity.
        "wikipedia": _run_wikipedia(n_articles=100, n_ops=150, seed=7),
    }
    # Every sweep's points ride in the gated suite too, so a change
    # that bends one of the paper's shapes fails the same gate.
    for sweep in SWEEPS.values():
        workloads.update(sweep.points())
    return {
        "label": label,
        "suite_version": SUITE_VERSION,
        "workloads": workloads,
    }


def host_stamp() -> dict:
    """Provenance of a *finished* run: host wall-clock time.

    Deliberately outside :func:`run_suite` — the suite itself must stay
    byte-identical across runs, and :func:`compare` ignores unknown
    top-level keys, so callers (the CLI) attach this after the fact.
    """
    import time

    return {
        "unix_time": int(time.time()),  # repro: allow[RPR001] host-side provenance stamp, not simulated time
    }


def render(doc: dict) -> str:
    """Canonical byte-stable serialization of a suite document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_baseline(path: str, doc: dict) -> None:
    # Baseline JSONs are host artifacts the gate diffs across commits.
    with open(path, "w", encoding="utf-8") as fh:  # repro: allow[RPR004] host baseline artifact
        fh.write(render(doc))


def load_baseline(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:  # repro: allow[RPR004] host baseline artifact
        return json.load(fh)


def _lookup(result: dict, path: tuple[str, ...]) -> float:
    value = result
    for part in path:
        value = value[part]
    return float(value)


def check_tolerance(tolerance: float) -> float:
    """``tolerance`` if the gate can use it; a NaN slack fails no
    comparison and a negative one fails every unchanged metric."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(
            f"tolerance must be a finite number >= 0, got {tolerance!r}")
    return tolerance


def compare(baseline: dict, current: dict,
            tolerance: float = DEFAULT_TOLERANCE) \
        -> tuple[list[str], list[str]]:
    """Gate a fresh suite run against a committed baseline.

    Returns ``(regressions, notes)``.  A non-empty ``regressions`` list
    means the gate fails: some workload lost more than ``tolerance`` on
    a gated metric.  ``notes`` records improvements and skipped
    workloads (informational only).
    """
    check_tolerance(tolerance)
    regressions: list[str] = []
    notes: list[str] = []
    if baseline.get("suite_version") != current.get("suite_version"):
        regressions.append(
            f"suite version mismatch: baseline "
            f"v{baseline.get('suite_version')} vs current "
            f"v{current.get('suite_version')} — refresh the baseline")
        return regressions, notes
    base_wl = baseline.get("workloads", {})
    cur_wl = current.get("workloads", {})
    for name in sorted(base_wl):
        if name not in cur_wl:
            regressions.append(f"{name}: missing from current run")
            continue
        for path, direction, title in GATED_METRICS:
            base = _lookup(base_wl[name], path)
            cur = _lookup(cur_wl[name], path)
            if base <= 0:
                continue
            change = (cur - base) / base
            worse = -change if direction > 0 else change
            detail = (f"{name}: {title} {base:g} -> {cur:g} "
                      f"({change:+.1%})")
            if worse > tolerance:
                regressions.append("REGRESSION " + detail)
            elif worse < -tolerance:
                notes.append("improvement " + detail)
    for name in sorted(set(cur_wl) - set(base_wl)):
        notes.append(f"{name}: new workload (no baseline)")
    return regressions, notes


def format_report(doc: dict) -> str:
    """Human-readable one-line-per-workload summary."""
    lines = [f"bench suite v{doc['suite_version']} [{doc['label']}]"]
    for name, wl in sorted(doc["workloads"].items()):
        lines.append(
            f"  {name:<10} {wl['ops']:>5} ops  "
            f"{wl['throughput_ops_s']:>12.1f} op/s  "
            f"p99 {wl['latency_us']['p99']:>10.1f} us  "
            f"WA {wl['write_amplification']:.2f}x")
    return "\n".join(lines)
