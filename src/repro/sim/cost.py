"""Cost model: prices every primitive operation in simulated nanoseconds.

The parameters are calibrated to a machine resembling the paper's testbed
(Intel i7-13700K, Samsung 980 Pro NVMe, Linux 6.2; Section V-A).  Absolute
values are best-effort estimates from public measurements; what matters
for the reproduction is that *all* systems are charged from the same
table, so the relative results (who wins and by what factor) are driven by
how many of each operation a design issues.

Besides time, the model maintains symbolic hardware counters
(``instructions``, ``cycles``, ``kernel_cycles``, ``cache_misses``) so the
paper's perf-counter tables (Table II, Table IV) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.sim.clock import VirtualClock

#: Nanoseconds per CPU cycle at the model's 5 GHz clock.
NS_PER_CYCLE = 0.2

#: Syscall entry/exit + dispatch costs in nanoseconds.  These include the
#: kernel-side bookkeeping each call performs (path resolution for ``open``,
#: dentry/inode lookup for ``fstat``, ...), but *not* per-byte data movement,
#: which is charged separately via :meth:`CostModel.kernel_copy`.
SYSCALL_NS = {
    "open": 2600.0,
    "openat": 2600.0,
    "creat": 3200.0,
    "close": 1100.0,
    "fstat": 1400.0,
    "stat": 1700.0,
    "pread": 850.0,
    "pwrite": 950.0,
    "read": 850.0,
    "write": 950.0,
    "ftruncate": 2400.0,
    "fallocate": 2100.0,
    "unlink": 2800.0,
    "mkdir": 3000.0,
    "readdir": 1600.0,
    "fsync": 5000.0,
    "fdatasync": 4200.0,
    "io_submit": 1200.0,
    "io_getevents": 700.0,
    "mmap": 1800.0,
    "munmap": 1500.0,
    "generic": 800.0,
}


@dataclass
class CostParams:
    """Tunable price list; see module docstring for calibration notes."""

    # -- CPU / memory -----------------------------------------------------
    #: Single-thread memcpy throughput (~16 GB/s on DDR5).
    memcpy_ns_per_byte: float = 0.0625
    #: Aggregate DRAM bandwidth shared by all workers (~64 GB/s).
    memory_bandwidth_bytes_per_s: float = 64e9
    #: L3 cache capacity (paper's machine: 30 MB).
    l3_bytes: int = 30 * 1024 * 1024
    #: Slowdown factor applied to memcpy when the combined working set of
    #: active workers spills out of L3 (cache-line ping-pong + DRAM misses).
    l3_spill_factor: float = 1.6
    #: Soft page fault on a fresh anonymous mapping.  Linux fault-around
    #: populates FAULT_AROUND_PAGES (16) PTEs per fault, so large
    #: malloc+memcpy staging buffers pay one of these per 64 KiB — the
    #: price aliasing avoids (Section V-E).
    page_fault_ns: float = 1500.0
    fault_around_pages: int = 16
    #: malloc() of a large block (arena bookkeeping, excludes faults).
    malloc_ns: float = 900.0
    #: SHA-256 hashing fused with the ingest copy (pipelined SHA-NI over
    #: data already streaming through the cache; ~20 GB/s effective).
    #: The paper's engine hashes BLOBs without them ever dominating the
    #: write path (Fig. 6), which requires copy-level hash throughput.
    hash_ns_per_byte: float = 0.05
    #: Hardware CRC32 (SSE4.2 ``crc32`` instruction, ~30 GB/s) charged
    #: when per-page protection information is computed or verified.
    crc32_ns_per_byte: float = 0.03

    # -- Virtual memory / exmap -------------------------------------------
    #: One exmap page-table manipulation batch (alias or unalias call).
    exmap_call_ns: float = 1500.0
    #: Per-page cost of writing page-table entries during aliasing.
    pte_write_ns: float = 12.0
    #: TLB shootdown broadcast on unalias: an IPI to all 32 hardware
    #: threads of the paper's i7-13700K, ~10 us end to end.  This is why
    #: the hash-table pool stays slightly ahead for 100 KB BLOBs
    #: (Fig. 10: "TLB flush is more expensive than malloc() & memcpy()
    #: when BLOBs are small").
    tlb_shootdown_ns: float = 11000.0

    # -- Buffer manager ----------------------------------------------------
    #: One page-translation through a hash-table buffer pool.
    hashtable_probe_ns: float = 110.0
    #: One page-translation through vmcache (virtual-memory indexed).
    vmcache_translate_ns: float = 25.0
    #: Visiting one B-Tree node (binary search within node included).
    btree_node_ns: float = 140.0
    #: Acquiring an uncontended latch / lock.
    latch_ns: float = 20.0
    #: Extra penalty when a latch acquisition is contended.
    latch_contended_ns: float = 450.0

    # -- OS page cache (file-system baselines) -------------------------------
    #: Allocating + radix-tree-inserting one fresh page-cache page during
    #: an extending write.
    page_cache_alloc_ns: float = 400.0
    #: Writes dirtying more than this much page cache are throttled to
    #: device write bandwidth (Linux dirty-ratio balancing); the paper's
    #: engine uses O_DIRECT and never hits this.
    dirty_throttle_bytes: int = 256 * 1024 * 1024

    # -- NVMe SSD (Samsung 980 Pro class) ----------------------------------
    ssd_read_latency_ns: float = 70_000.0
    ssd_write_latency_ns: float = 22_000.0
    #: Sequential read bandwidth (~7 GB/s) expressed as ns/byte.
    ssd_read_ns_per_byte: float = 1.0 / 7.0
    #: Sequential write bandwidth (~5 GB/s) expressed as ns/byte.
    ssd_write_ns_per_byte: float = 0.2
    #: Device-internal parallelism: up to this many queued requests overlap
    #: their latency (NVMe queue depth effect for async batches).
    ssd_queue_depth: int = 32

    # -- Byte-addressable persistent memory (Optane DCPMM class) ------------
    #: Load latency of one PMem access (media + on-DIMM controller).
    pmem_read_latency_ns: float = 300.0
    #: Sequential read bandwidth (~40 GB/s across channels) as ns/byte.
    pmem_read_ns_per_byte: float = 0.025
    #: Sequential store bandwidth (~10 GB/s sustained) as ns/byte.
    pmem_write_ns_per_byte: float = 0.1
    #: One cache-line write-back (``clwb``) reaching the persistence
    #: domain; PMem persists per 64-byte line, not per block.
    pmem_cacheline_flush_ns: float = 60.0
    #: One store fence (``sfence``) ordering the flushed lines — the
    #: durability point a byte-addressable WAL uses instead of fdatasync.
    pmem_fence_ns: float = 30.0

    # -- Client/server DBMS access path ------------------------------------
    #: Unix-domain-socket round trip incl. scheduler wakeups.
    ipc_roundtrip_ns: float = 24_000.0
    #: Wire (de)serialization of payload bytes in client protocols.
    serialize_ns_per_byte: float = 0.45
    #: SQL statement parse/plan for a trivial prepared statement.
    sql_overhead_ns: float = 3_500.0
    #: Server-side request dispatch: parsing the header, finding the op.
    rpc_dispatch_ns: float = 900.0

    # -- Sharded engine -----------------------------------------------------
    #: Router CPU per key on top of the content hash (bucket arithmetic,
    #: sub-batch bookkeeping).
    shard_route_ns: float = 60.0
    #: Per-shard scatter cost of one fan-out batch (building and handing
    #: off one sub-batch to a shard).
    shard_fanout_ns: float = 400.0

    # -- replicated engine ---------------------------------------------------
    #: Primary-side cost of enqueueing one WAL-ship record onto one
    #: replica link (framing the record, per-link queue append).
    replica_ship_ns: float = 250.0
    #: Coordinator bookkeeping for one quorum-commit decision (tracking
    #: acknowledgements, releasing the commit to the client).
    quorum_commit_ns: float = 300.0

    # -- Learned index (disk-resident, updatable) ---------------------------
    #: One binary-search step through the compact in-memory segment
    #: directory (first-key array, cache-resident).
    lindex_segment_search_ns: float = 12.0
    #: Evaluating the per-segment linear model: two FMAs, a clamp, and
    #: loading the model's cache line.
    lindex_predict_ns: float = 20.0
    #: Comparing one entry during the bounded last-mile search inside the
    #: +-epsilon window (sequential access within a cached segment page),
    #: also used per entry emitted by a segment range scan and per probe
    #: of a segment's delta buffer.
    lindex_scan_ns_per_entry: float = 8.0
    #: Retraining a segment: streaming its pages back in, merging the
    #: delta, refitting the cone, and writing the rebuilt run out — priced
    #: per byte moved (read + write), amortizing NVMe streaming and the
    #: O(n) fit over the segment.
    lindex_retrain_ns_per_byte: float = 0.5

    def copy(self, **overrides: float) -> "CostParams":
        """Return a copy with selected parameters replaced."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        unknown = set(overrides) - set(values)
        if unknown:
            raise TypeError(f"unknown cost parameters: {sorted(unknown)}")
        values.update(overrides)
        return CostParams(**values)


@dataclass
class PerfCounters:
    """Symbolic hardware counters accumulated alongside simulated time.

    Units are abstract "events" that scale with the same operations the
    real counters would: one instruction unit per ~1 ns of user-space
    work, kernel cycles for time spent below the syscall boundary, and
    cache misses for DRAM-touching data movement.
    """

    instructions: int = 0
    cycles: int = 0
    kernel_cycles: int = 0
    cache_misses: int = 0

    def add(self, other: "PerfCounters") -> None:
        self.instructions += other.instructions
        self.cycles += other.cycles
        self.kernel_cycles += other.kernel_cycles
        self.cache_misses += other.cache_misses

    def snapshot(self) -> "PerfCounters":
        return PerfCounters(
            instructions=self.instructions,
            cycles=self.cycles,
            kernel_cycles=self.kernel_cycles,
            cache_misses=self.cache_misses,
        )

    def delta_since(self, earlier: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            instructions=self.instructions - earlier.instructions,
            cycles=self.cycles - earlier.cycles,
            kernel_cycles=self.kernel_cycles - earlier.kernel_cycles,
            cache_misses=self.cache_misses - earlier.cache_misses,
        )


class CostModel:
    """Charges simulated time and perf counters for primitive operations.

    One ``CostModel`` is shared by a system-under-test and its substrate
    (device, buffer pool, ...).  The optional ``contention`` callable lets
    a multi-worker simulation scale memory-bound work (see
    :mod:`repro.sim.workers`).
    """

    def __init__(self, params: CostParams | None = None,
                 clock: VirtualClock | None = None) -> None:
        self.params = params or CostParams()
        self.clock = clock or VirtualClock()
        self.counters = PerfCounters()
        #: Optional :class:`~repro.obs.trace.Tracer`.  Instrumented
        #: layers read this attribute and skip all tracing work when it
        #: is ``None`` (the default), keeping the fast path
        #: allocation-free.  Attach with :func:`repro.obs.attach`.
        self.obs = None
        #: Optional :class:`~repro.analysis.sanitizer.Sanitizer` (same
        #: nullable-hook pattern as ``obs``): the buffer pool and WAL
        #: writer report latch/write-back/flush events through it when
        #: set.  Attach with :func:`repro.analysis.attach_sanitizer`.
        self.san = None
        #: Optional :class:`~repro.analysis.race.RaceScope` (same
        #: nullable-hook pattern): buffer frames, the WAL writer, and
        #: admission buckets report shared-state accesses through it so
        #: the happens-before detector can check cross-coroutine
        #: ordering.  Bind with ``detector.scope(prefix)``.
        self.race = None
        #: Multiplier applied to memory-bandwidth-bound work; a worker
        #: simulation sets this to model DRAM/L3 contention (Fig. 10).
        self.memory_contention = 1.0
        #: Simulated ns spent in memory-bandwidth-bound work (memcpy and
        #: kernel copies); :mod:`repro.sim.workers` scales this fraction.
        self.memory_time_ns = 0.0
        #: Total bytes moved by memcpy/kernel_copy (bandwidth demand).
        self.memcpy_bytes = 0
        #: Simulated ns spent in *foreground* WAL flushes.  With group
        #: commit one flush serves every worker queued inside the commit
        #: window, so :mod:`repro.sim.workers` amortizes this component
        #: across workers instead of replaying it per worker.
        self.wal_flush_time_ns = 0.0
        #: Simulated ns spent waiting on device I/O (reads, writes, and
        #: WAL flushes alike).  The sharded worker model scales this
        #: component by how many workers queue on each device.
        self.io_time_ns = 0.0
        #: Simulated ns spent in persistent-memory loads/persists.  Kept
        #: separate from ``io_time_ns``: PMem access is synchronous
        #: load/store work on the CPU, not queued block I/O, so worker
        #: models must not scale it by device queueing.
        self.pmem_time_ns = 0.0

    # -- internal charging helpers -----------------------------------------

    def _charge_user(self, ns: float, cache_misses: int = 0) -> None:
        # Inlines ``clock.advance``: these two helpers run on every charge.
        if ns < 0:
            raise ValueError(f"cannot move time backwards ({ns} ns)")
        self.clock.now_ns += int(ns)
        counters = self.counters
        counters.cycles += int(ns / NS_PER_CYCLE)
        counters.instructions += int(ns)  # ~1 instr unit per user ns
        if cache_misses:
            counters.cache_misses += cache_misses

    def _charge_kernel(self, ns: float, cache_misses: int = 0) -> None:
        if ns < 0:
            raise ValueError(f"cannot move time backwards ({ns} ns)")
        self.clock.now_ns += int(ns)
        cycles = int(ns / NS_PER_CYCLE)
        counters = self.counters
        counters.cycles += cycles
        counters.kernel_cycles += cycles
        counters.instructions += int(ns * 0.6)
        if cache_misses:
            counters.cache_misses += cache_misses

    # -- CPU / memory primitives --------------------------------------------

    def cpu(self, ns: float) -> None:
        """Charge generic user-space computation."""
        self._charge_user(ns)

    def memcpy(self, nbytes: int, *, faults: bool = False) -> None:
        """Copy ``nbytes`` in user space.

        ``faults=True`` models copying into a freshly malloc'ed anonymous
        region (one soft page fault per 4 KiB page), the cost the paper's
        virtual-memory aliasing avoids (Section V-E).
        """
        ns = nbytes * self.params.memcpy_ns_per_byte * self.memory_contention
        misses = nbytes // 64 if nbytes > self.params.l3_bytes // 8 else nbytes // 512
        self._charge_user(ns, cache_misses=misses)
        self.memory_time_ns += ns
        self.memcpy_bytes += nbytes
        if faults:
            npages = (nbytes + 4095) // 4096
            nfaults = (npages + self.params.fault_around_pages - 1) \
                // self.params.fault_around_pages
            self._charge_kernel(nfaults * self.params.page_fault_ns)

    def malloc(self, nbytes: int) -> None:
        """Charge a large allocation (bookkeeping only; faults on touch)."""
        self._charge_user(self.params.malloc_ns)

    def hash_bytes(self, nbytes: int) -> None:
        """Charge SHA-256 over ``nbytes`` (hardware-accelerated rate)."""
        self._charge_user(nbytes * self.params.hash_ns_per_byte,
                          cache_misses=nbytes // 256)

    def crc32_bytes(self, nbytes: int) -> None:
        """Charge CRC32 protection-info computation over ``nbytes``."""
        self._charge_user(nbytes * self.params.crc32_ns_per_byte)

    # -- syscalls ------------------------------------------------------------

    def syscall(self, name: str) -> None:
        """Charge the fixed cost of one syscall (no data movement)."""
        ns = SYSCALL_NS.get(name, SYSCALL_NS["generic"])
        self._charge_kernel(ns)

    def kernel_copy(self, nbytes: int) -> None:
        """Charge the kernel<->user copy a pread/pwrite performs."""
        ns = nbytes * self.params.memcpy_ns_per_byte * self.memory_contention
        self._charge_kernel(ns, cache_misses=nbytes // 128)
        self.memory_time_ns += ns
        self.memcpy_bytes += nbytes

    # -- virtual memory / exmap ----------------------------------------------

    def exmap_alias(self, npages: int) -> None:
        """Charge one exmap aliasing call mapping ``npages`` PTEs."""
        self._charge_kernel(self.params.exmap_call_ns
                            + npages * self.params.pte_write_ns)

    def tlb_shootdown(self) -> None:
        """Charge one inter-processor TLB invalidation broadcast."""
        self._charge_kernel(self.params.tlb_shootdown_ns)

    # -- buffer manager -------------------------------------------------------

    def hashtable_probe(self) -> None:
        self._charge_user(self.params.hashtable_probe_ns, cache_misses=2)

    def vmcache_translate(self) -> None:
        self._charge_user(self.params.vmcache_translate_ns)

    def btree_node(self) -> None:
        self._charge_user(self.params.btree_node_ns, cache_misses=1)

    def latch(self, contended: bool = False) -> None:
        ns = self.params.latch_ns
        if contended:
            ns += self.params.latch_contended_ns
        self._charge_user(ns, cache_misses=1 if contended else 0)

    # -- SSD I/O (invoked by the simulated device) -----------------------------

    def ssd_read(self, nbytes: int, requests: int = 1,
                 queue_depth: int | None = None) -> None:
        """Charge reading ``nbytes`` spread over ``requests`` NVMe commands.

        Requests submitted in one async batch overlap their latency up to
        the effective queue depth (the submitter's ``queue_depth`` capped
        by the device-internal ``ssd_queue_depth``); bandwidth is paid for
        every byte.
        """
        self._charge_io(nbytes, requests, self.params.ssd_read_latency_ns,
                        self.params.ssd_read_ns_per_byte, queue_depth)

    def ssd_write(self, nbytes: int, requests: int = 1,
                  queue_depth: int | None = None) -> None:
        self._charge_io(nbytes, requests, self.params.ssd_write_latency_ns,
                        self.params.ssd_write_ns_per_byte, queue_depth)

    def _charge_io(self, nbytes: int, requests: int,
                   latency_ns: float, ns_per_byte: float,
                   queue_depth: int | None = None) -> None:
        if requests <= 0:
            return
        qd = self.params.ssd_queue_depth
        if queue_depth is not None:
            qd = max(1, min(queue_depth, qd))
        # In-flight commands pipeline their latency instead of summing it:
        # the batch is limited either by latency (waves of up to `qd`
        # overlapped commands) or by transfer bandwidth, whichever binds.
        waves = (requests + qd - 1) // qd
        ns = max(waves * latency_ns, latency_ns + nbytes * ns_per_byte)
        self._charge_kernel(ns, cache_misses=nbytes // 256)
        self.io_time_ns += ns

    # -- persistent memory (invoked by the simulated PMem device) --------------

    def pmem_read(self, nbytes: int) -> None:
        """Charge loading ``nbytes`` from byte-addressable PMem.

        One media latency plus bandwidth — no command queue, no waves:
        loads are synchronous CPU work, which is why PMem reads price
        orders of magnitude below an NVMe command for small transfers.
        """
        ns = self.params.pmem_read_latency_ns \
            + nbytes * self.params.pmem_read_ns_per_byte
        self._charge_user(ns, cache_misses=nbytes // 64)
        self.pmem_time_ns += ns

    def pmem_persist(self, nbytes: int) -> None:
        """Charge persisting ``nbytes`` to PMem (store + clwb + fence).

        Byte-granular: exactly the stored bytes are priced (no page
        round-up, no read-modify-write), one cache-line flush per
        touched 64-byte line, and a single fence as the durability
        point — the pricing asymmetry the WAL byte-append path exploits.
        """
        lines = (nbytes + 63) // 64
        ns = nbytes * self.params.pmem_write_ns_per_byte \
            + lines * self.params.pmem_cacheline_flush_ns \
            + self.params.pmem_fence_ns
        self._charge_user(ns, cache_misses=lines)
        self.pmem_time_ns += ns

    # -- client/server access path ----------------------------------------------

    def ipc_roundtrip(self, payload_bytes: int = 0) -> None:
        """Charge one client<->server round trip incl. (de)serialization."""
        self._charge_kernel(self.params.ipc_roundtrip_ns)
        if payload_bytes:
            self._charge_user(payload_bytes * self.params.serialize_ns_per_byte,
                              cache_misses=payload_bytes // 128)

    def sql_statement(self) -> None:
        """Charge parsing/planning one (prepared) SQL statement."""
        self._charge_user(self.params.sql_overhead_ns)

    def rpc_dispatch(self) -> None:
        """Charge server-side dispatch of one protocol request."""
        self._charge_user(self.params.rpc_dispatch_ns)

    # -- sharded engine ----------------------------------------------------------

    def shard_route(self, key_bytes: int) -> None:
        """Charge routing one key to its shard (hash + bucket math)."""
        self._charge_user(key_bytes * self.params.hash_ns_per_byte
                          + self.params.shard_route_ns,
                          cache_misses=key_bytes // 256)

    def shard_fanout(self, n_shards: int) -> None:
        """Charge scattering one batch to ``n_shards`` sub-batches."""
        if n_shards > 0:
            self._charge_user(n_shards * self.params.shard_fanout_ns)

    # -- replicated engine ----------------------------------------------------

    def replica_ship(self, n_links: int) -> None:
        """Charge enqueueing one record onto ``n_links`` replica links."""
        if n_links > 0:
            self._charge_user(n_links * self.params.replica_ship_ns)

    def quorum_commit(self) -> None:
        """Charge one quorum-commit acknowledgement decision."""
        self._charge_user(self.params.quorum_commit_ns)

    # -- learned index ---------------------------------------------------------

    def lindex_segment_search(self, steps: int) -> None:
        """Charge ``steps`` binary-search steps over the segment directory."""
        if steps > 0:
            self._charge_user(steps * self.params.lindex_segment_search_ns)

    def lindex_predict(self) -> None:
        """Charge one linear-model evaluation (slope * x + intercept)."""
        self._charge_user(self.params.lindex_predict_ns)

    def lindex_last_mile(self, entries: int) -> None:
        """Charge touching ``entries`` entries inside the epsilon window
        (bounded last-mile search, delta-buffer probe, or range-scan emit)."""
        if entries > 0:
            self._charge_user(entries * self.params.lindex_scan_ns_per_entry,
                              cache_misses=entries // 8)

    def lindex_retrain(self, nbytes: int) -> None:
        """Charge retraining one segment: ``nbytes`` moved (read + write)."""
        if nbytes > 0:
            ns = nbytes * self.params.lindex_retrain_ns_per_byte
            self._charge_user(ns, cache_misses=nbytes // 256)
            self.io_time_ns += ns
