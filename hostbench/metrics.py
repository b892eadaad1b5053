"""The benchmark's metric table and its result line.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions (its entries take no other keys); this table also says,
for each per-layer metric, which end-to-end metric it should move and
on which benchmark workload, written down before any optimisation is
measured.  On ``small_rows``, which ``BENCHMARK.json`` leaves out (see
``workloads.SmallRows``), ``db``, ``btree``, ``sim`` and ``wal`` do most
of the host work.
"""

from __future__ import annotations

import json
import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: ``(name, unit, better, bound)``; ``bound`` is the share of the
#: parent's median by which the metric may worsen.
END_TO_END = (
    ("host_ops_per_s", "1/s", "higher", 0.2),
    ("host_read_p50_us", "us", "lower", 0.25),
    ("host_read_p99_us", "us", "lower", 0.25),
    ("host_write_p50_us", "us", "lower", 0.25),
    ("host_write_p99_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("write_amp", "ratio", "lower", 0.1),
)

#: ``(name, unit, better, should move, on workload)``.
PER_LAYER = (
    ("db.self_us_per_op", "us", "lower", "host_write_p50_us",
     "fuse_tree_read"),
    ("btree.self_us_per_op", "us", "lower",
     "host_ops_per_s, host_write_p50_us, setup_s", "fuse_tree_read"),
    ("btree.calls_per_op", "count", "lower", "host_ops_per_s",
     "fuse_tree_read"),
    ("sim.self_us_per_op", "us", "lower", "host_ops_per_s", "fuse_tree_read"),
    ("sim.charges_per_op", "count", "lower", "host_ops_per_s",
     "fuse_tree_read"),
    ("wal.self_us_per_op", "us", "lower", "host_write_p50_us",
     "blobs_over_pool"),
    ("wal.records_per_commit", "count", "lower", "write_amp",
     "blobs_over_pool"),
    ("wal.bytes_per_commit", "B", "lower", "write_amp", "blobs_over_pool"),
    ("wal.flushes_per_commit", "count", "lower", "host_write_p50_us",
     "blobs_over_pool"),
    ("core.self_us_per_write", "us", "lower",
     "host_write_p99_us, host_read_p99_us", "blobs_over_pool"),
    ("core.extents_per_blob", "count", "lower", "host_write_p99_us",
     "blobs_over_pool"),
    ("hashing.self_us_per_write", "us", "lower", "host_write_p50_us",
     "blobs_over_pool"),
    ("hashing.bytes_per_write", "B", "lower", "host_write_p50_us",
     "blobs_over_pool"),
    ("buffer.self_us_per_op", "us", "lower",
     "host_read_p99_us, host_write_p99_us", "blobs_over_pool"),
    ("buffer.hit_ratio", "ratio", "higher",
     "host_read_p99_us; host_read_p50_us on fuse_tree_read",
     "blobs_over_pool"),
    ("buffer.evictions_per_op", "count", "lower", "host_read_p99_us",
     "blobs_over_pool"),
    ("buffer.writebacks_per_op", "count", "lower", "host_write_p99_us",
     "blobs_over_pool"),
    ("io.self_us_per_op", "us", "lower", "host_read_p99_us",
     "blobs_over_pool, fuse_tree_read"),
    ("io.drains_per_op", "count", "lower", "host_read_p99_us",
     "blobs_over_pool, fuse_tree_read"),
    ("io.requests_out_per_in", "ratio", "lower", "host_read_p99_us",
     "blobs_over_pool, fuse_tree_read"),
    ("storage.self_us_per_op", "us", "lower", "host_write_p99_us",
     "blobs_over_pool"),
    ("storage.bytes_written_per_op", "B", "lower", "write_amp",
     "blobs_over_pool"),
    ("storage.bytes_read_per_op", "B", "lower", "host_read_p99_us",
     "blobs_over_pool"),
    ("storage.read_amp", "ratio", "lower", "host_read_p99_us",
     "blobs_over_pool"),
    ("storage.write_requests_per_op", "count", "lower", "write_amp",
     "blobs_over_pool"),
    ("storage.bg_bytes_frac", "ratio", "lower", "write_amp",
     "blobs_over_pool"),
    ("storage.busy_frac", "ratio", "lower", "write_amp", "blobs_over_pool"),
    ("fuse.self_us_per_op", "us", "lower", "host_read_p50_us",
     "fuse_tree_read"),
    ("namespace.self_us_per_list", "us", "lower", "host_ops_per_s",
     "fuse_tree_read"),
    ("namespace.entries_per_list", "count", "lower", "host_ops_per_s",
     "fuse_tree_read"),
    ("sim.virtual_ops_per_s", "1/s", "higher", "none (reported, not gated)",
     "all"),
    ("sim.virtual_read_p99_us", "us", "lower", "none (reported, not gated)",
     "all"),
    ("sim.virtual_write_p99_us", "us", "lower", "none (reported, not gated)",
     "all"),
    ("sim.io_ns_per_op", "ns", "lower", "none (reported, not gated)", "all"),
    ("bench.unattributed_us_per_op", "us", "lower", "explains gaps", "all"),
    ("bench.generate_s", "s", "lower", "explains gaps", "all"),
    ("bench.host_speed", "ratio", "higher", "explains gaps", "all"),
    ("trace.overhead_frac", "ratio", "lower", "explains gaps", "all"),
    ("failed_frac", "ratio", "lower",
     "every metric: a failed op counts against each", "blobs_over_pool"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def result_line(correct: bool, attempted: int, failed: int,
                values: dict[str, float]) -> str:
    """The last line a run prints: one JSON object, every metric with
    its unit."""
    metrics = {name: {"value": float(value), "unit": UNITS[name]}
               for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
