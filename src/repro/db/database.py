"""BlobDB: the transactional storage engine facade.

A :class:`BlobDB` owns one simulated device laid out as superblock /
catalog slots / WAL ring / data area, a buffer pool (vmcache or hash
table), the extent allocator, a WAL with group commit, and the BLOB
manager.  Tables map byte keys to either inline byte values or Blob
States; all mutations run under strict 2PL with logical undo.

Crash & recovery: :meth:`crash` drops every volatile structure and
returns the surviving device; :meth:`recover` rebuilds an engine from the
superblock, the latest catalog checkpoint, and the WAL tail — validating
every committed BLOB's SHA-256 exactly as Section III-C describes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace as dc_replace
from typing import Iterator

from repro.btree import BTree
from repro.buffer.frames import BlobView
from repro.buffer.hashtable_pool import HashTablePool
from repro.buffer.vmcache import VmcachePool
from repro.core.allocator import ExtentAllocator
from repro.core.blob_manager import BlobManager
from repro.core.blob_state import BlobState
from repro.core.extent import Extent
from repro.core.log_policy import make_policy
from repro.core.tier import ExtentTier
from repro.db.catalog import CatalogSnapshot, Superblock, encode_value
from repro.db.config import EngineConfig
from repro.db.errors import (
    ChecksumMismatchError,
    DuplicateKeyError,
    KeyNotFoundError,
    TableNotFoundError,
    TransactionConflict,
    TransactionStateError,
)
from repro.db.transaction import LockMode, LockTable, Transaction, TxnStatus
from repro.sha.fast import simulate_state_loss
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe
from repro.storage.factory import StorageSet, build_storage
from repro.wal.records import InsertRecord, DeleteRecord, TxnBeginRecord, UpdateRecord
from repro.wal.writer import WalFullError, WalWriter

#: System table listing user tables (so DDL survives recovery).
_TABLES_TABLE = "\x00tables"


@dataclass
class ScrubStats:
    """Counters of the background integrity scrub (:meth:`BlobDB.scrub`)."""

    blobs_scanned: int = 0
    bytes_scanned: int = 0
    corrupt_found: int = 0


class BlobDB:
    """The engine facade.  See the package docstring for the model."""

    def __init__(self, config: EngineConfig | None = None,
                 device: SimulatedNVMe | StorageSet | None = None,
                 model: CostModel | None = None,
                 _skip_format: bool = False) -> None:
        self.config = config or EngineConfig()
        self.model = model or CostModel()
        if device is None:
            storage = build_storage(self.config, self.model)
        elif isinstance(device, StorageSet):
            storage = device
        else:
            storage = StorageSet(data=device, meta=device, wal=device)
        #: The device set placement policy chose (data / meta / wal may
        #: alias); subsystems below bind to the tier they persist through.
        self.storage = storage
        #: Data tier: blobs and the extent area.
        self.device = storage.data
        #: Superblock + catalog checkpoint slots (PMem tier when present).
        self.meta_device = storage.meta
        #: The device hosting the WAL ring.
        self.wal_device = storage.wal
        cfg = self.config
        self.tiers = ExtentTier(tiers_per_level=cfg.tiers_per_level,
                                max_levels=cfg.max_levels)
        pool_cls = VmcachePool if cfg.pool == "vmcache" else HashTablePool
        pool_kwargs = {"eviction_seed": cfg.eviction_seed}
        if cfg.pool == "vmcache":
            pool_kwargs.update(n_workers=cfg.n_workers,
                               worker_local_pages=cfg.worker_local_pages)
        self.pool = pool_cls(self.device, self.model,
                             capacity_pages=cfg.buffer_pool_pages,
                             **pool_kwargs)
        self.pool.io.queue_depth = cfg.io_queue_depth
        self.pool.io.max_merge_pages = cfg.io_max_merge_pages
        # The data area spans the device's (possibly logical) page space.
        self.allocator = ExtentAllocator(
            self.tiers, cfg.data_start_pid,
            self.device.capacity_pages - cfg.data_start_pid,
            model=self.model)
        self.wal = WalWriter(self.wal_device, self.model,
                             region_pid=cfg.wal_region_pid,
                             region_pages=cfg.wal_pages,
                             buffer_bytes=cfg.wal_buffer_bytes,
                             checkpoint_cb=self._forced_checkpoint)
        # Shared bounded-retry policy for transient device faults, used
        # by the pool, the WAL writer, formatting, and checkpoints.
        # Imported lazily: faults.py imports repro.db.errors.
        from repro.storage.faults import RetryPolicy
        self.retry = RetryPolicy(self.model, attempts=cfg.io_retries,
                                 base_delay_ns=cfg.io_retry_base_ns)
        self.pool.retry = self.retry
        self.wal.retry = self.retry
        #: Keys whose durable content failed its digest and could not be
        #: repaired; reads surface ``ChecksumMismatchError``.
        self._quarantined: set[tuple[str, bytes]] = set()
        self.quarantined_extents = 0
        self.scrub_stats = ScrubStats()
        #: RecoveredState of the recovery that built this engine, if any.
        self.recovery_info = None
        self.blobs = BlobManager(self.pool, self.allocator, self.tiers,
                                 self.model, cfg.page_size,
                                 hasher_kind=cfg.hasher,
                                 use_tail_extents=cfg.use_tail_extents)
        self.policy = make_policy(cfg.log_policy, self.wal)
        self.policy.commit_window_ns = cfg.group_commit_window_ns
        self.locks = LockTable(self.model)
        self._tables: dict[str, BTree] = {
            _TABLES_TABLE: self._new_btree()}
        self._active: dict[int, Transaction] = {}
        self._next_txn_id = 1
        self._checkpoint_id = 0
        self.checkpoints_taken = 0
        #: OCC record versions (volatile: no transactions span a crash).
        self._versions: dict[tuple[str, bytes], int] = {}
        self.occ_aborts = 0
        #: Nullable namespace accelerator hook (interval numbering over
        #: the key hierarchy, :mod:`repro.namespace`).  When attached,
        #: committed key mutations are replayed into it; aborted
        #: transactions leave it untouched.
        self.ns = None
        if not _skip_format:
            self._format()

    def _new_btree(self):
        """Create a relation index (B-Tree, ART, or learned, per config)."""
        kind = self.config.index_structure
        if kind == "art":
            from repro.art import ArtTree
            return ArtTree(model=self.model)
        if kind == "learned":
            from repro.lindex import LearnedIndex
            return LearnedIndex(model=self.model,
                                epsilon=self.config.lindex_epsilon,
                                delta_max=self.config.lindex_delta_max)
        return BTree(node_bytes=self.config.page_size, model=self.model,
                     key_size=lambda k: len(k))

    def _format(self) -> None:
        super_block = Superblock(active_slot=-1, catalog_len=0,
                                 checkpoint_id=0)
        self.retry.run(lambda: self.meta_device.write(
            0, super_block.serialize(self.config.page_size),
            category="meta"))

    # -- DDL ------------------------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create a table (auto-committed; survives recovery via the WAL)."""
        if not name or name.startswith("\x00"):
            raise ValueError("table names must be non-empty and not reserved")
        if name in self._tables:
            raise DuplicateKeyError(f"table {name!r} already exists")
        txn = self.begin()
        try:
            self._insert(txn, _TABLES_TABLE, name.encode(), b"")
            self._tables[name] = self._new_btree()
            self.commit(txn)
        except Exception:
            self._tables.pop(name, None)
            self.abort(txn)
            raise

    def drop_table(self, name: str) -> None:
        """Drop a table and free every BLOB it holds (auto-committed)."""
        if name not in self._tables or name.startswith("\x00"):
            raise TableNotFoundError(f"no such table: {name!r}")
        txn = self.begin()
        try:
            for key, _ in list(self._tables[name].scan()):
                self.delete(txn, name, key)
            self.delete(txn, _TABLES_TABLE, name.encode())
            self.commit(txn)
        except Exception:
            self.abort(txn)
            raise
        del self._tables[name]

    def list_tables(self) -> list[str]:
        return sorted(n for n in self._tables if not n.startswith("\x00"))

    def has_table(self, name: str) -> bool:
        """``name in list_tables()`` without building the list."""
        return name in self._tables and not name.startswith("\x00")

    def _table(self, name: str) -> BTree:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"no such table: {name!r}") from None

    # -- transaction control ------------------------------------------------------

    def begin(self) -> Transaction:
        txn = Transaction(self._next_txn_id)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def _ensure_begin(self, txn: Transaction) -> None:
        """Log the begin record lazily, ahead of the first mutation.

        Read-only transactions therefore never append to (or flush) the
        WAL; recovery still sees begin first for every logged txn.
        """
        if not txn.logged:
            txn.logged = True
            self.wal.append(TxnBeginRecord(txn_id=txn.txn_id))

    @property
    def _occ(self) -> bool:
        return self.config.concurrency == "occ"

    def commit(self, txn: Transaction) -> None:
        txn.ensure_active()
        obs = self.model.obs
        if obs is None:
            self._commit_body(txn)
            return
        obs.begin("txn.commit")
        try:
            self._commit_body(txn)
        finally:
            obs.end(txn=txn.txn_id)
            obs.count("txn.commits")

    def _commit_body(self, txn: Transaction) -> None:
        if self._occ:
            self._occ_validate(txn)
        self.policy.on_commit(txn, self.pool)
        # Drop the frames of replaced/deleted extents, then publish the
        # transaction-local temporary free list (III-D).  Order matters:
        # a reuser must find the frame gone before the PID is free.
        for pid in txn.pending_drop:
            self.pool.drop(pid)
        self.allocator.free_extents(txn.pending_free)
        for tail in txn.pending_free_tails:
            self.allocator.free_tail(tail)
        # Out-of-place devices reclaim the physical pages immediately.
        if hasattr(self.device, "trim"):
            for extent in txn.pending_free:
                self.device.trim(extent.pid, extent.npages)
            for tail in txn.pending_free_tails:
                self.device.trim(tail.pid, tail.npages)
        if self._occ:
            for record in txn.write_set:
                self._versions[record] = self._versions.get(record, 0) + 1
        if self.ns is not None and txn.ns_events:
            self.ns.apply_events(txn.ns_events)
        txn.status = TxnStatus.COMMITTED
        self.locks.release_all(txn.txn_id)
        del self._active[txn.txn_id]
        self._maybe_checkpoint()

    def _occ_validate(self, txn: Transaction) -> None:
        """Commit-time read-set validation (OCC, Section III-H).

        Reads took no locks; if any record this transaction read was
        overwritten by a committed writer since, the transaction aborts
        — the classic backward-validation rule.
        """
        for record, seen_version in txn.read_set.items():
            self.model.cpu(40.0)
            if self._versions.get(record, 0) != seen_version:
                self.occ_aborts += 1
                self.abort(txn)
                raise TransactionConflict(
                    f"txn {txn.txn_id} failed OCC validation on {record}")

    def abort(self, txn: Transaction) -> None:
        txn.ensure_active()
        obs = self.model.obs
        if obs is None:
            self._abort_body(txn)
            return
        obs.begin("txn.abort")
        try:
            self._abort_body(txn)
        finally:
            obs.end(txn=txn.txn_id)
            obs.count("txn.aborts")

    def _abort_body(self, txn: Transaction) -> None:
        self._quarantined.update(txn.requarantine)
        # Logical undo, newest first.
        for entry in reversed(txn.undo):
            tree = self._tables.get(entry.table)
            if tree is None:
                continue
            if entry.old_value is None:
                tree.delete(entry.key)
            else:
                tree.insert(entry.key, entry.old_value)
        # Physical undo of in-place deltas (frames never hit the device
        # pre-commit, so restoring the buffered bytes suffices).
        for pid, offset, old in reversed(txn.delta_undo):
            frame = self.pool.get_frame(pid)
            if frame is not None:
                frame.write_at(offset, old)
        # Reclaim extents this transaction allocated; they were never
        # reachable from durable state.  Frames of *pre-existing* extents
        # (delta-updated in place) are only unprotected, never dropped:
        # the restored row still points at them, and under physical
        # logging a dirty frame may hold the only copy of the content.
        allocated_pids = {e.pid for e in txn.allocated}
        allocated_pids.update(t.pid for t in txn.allocated_tails)
        for frame in txn.pending_flush + txn.physlog_frames:
            frame.prevent_evict = False
            if frame.head_pid in allocated_pids:
                frame.clean()
                self.pool.drop(frame.head_pid)
        self.allocator.free_extents(txn.allocated)
        for tail in txn.allocated_tails:
            self.allocator.free_tail(tail)
        self.policy.on_abort(txn, self.pool)
        txn.status = TxnStatus.ABORTED
        self.locks.release_all(txn.txn_id)
        del self._active[txn.txn_id]

    @contextlib.contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """``with db.transaction() as txn:`` — commit on success."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.status is TxnStatus.ACTIVE:
                self.abort(txn)
            raise
        else:
            if txn.status is TxnStatus.ACTIVE:
                self.commit(txn)

    # -- inline (non-BLOB) values ----------------------------------------------------

    def put(self, txn: Transaction, table: str, key: bytes,
            value: bytes) -> None:
        """Insert an inline value (small payloads, e.g. 120 B YCSB rows)."""
        txn.ensure_active()
        self.locks.acquire(txn.txn_id, table, key, LockMode.EXCLUSIVE)
        self._insert(txn, table, key, bytes(value))

    def _insert(self, txn: Transaction, table: str, key: bytes, value) -> None:
        tree = self._table(table)
        if tree.lookup(key) is not None:
            raise DuplicateKeyError(f"{table}[{key!r}] exists")
        self._ensure_begin(txn)
        self.wal.append(InsertRecord(txn_id=txn.txn_id, table=table, key=key,
                                     value=encode_value(value)))
        txn.remember_undo(table, key, None)
        tree.insert(key, value)
        self._ns_note(txn, "put", table, key, value)

    def _ns_note(self, txn: Transaction, op: str, table: str, key: bytes,
                 value=None) -> None:
        """Queue a namespace-accelerator event on ``txn``.

        Events are applied to :attr:`ns` only in ``_commit_body`` — an
        aborting transaction discards them, keeping the interval
        numbering consistent with committed state.  System tables and
        staging keys (``\\x00`` prefixes) never enter the namespace.
        """
        if self.ns is None or table.startswith("\x00") \
                or key.startswith(b"\x00"):
            return
        if op == "del":
            txn.ns_events.append(("del", table, key, 0, ""))
        elif isinstance(value, BlobState):
            txn.ns_events.append(
                ("put", table, key, value.size, value.sha256.hex()))
        else:
            size = len(value) if isinstance(value, (bytes, bytearray)) else 0
            txn.ns_events.append(("put", table, key, size, ""))

    def get(self, table: str, key: bytes,
            txn: Transaction | None = None) -> bytes:
        value = self._lookup(table, key, txn)
        if isinstance(value, BlobState):
            raise TypeError(f"{table}[{key!r}] is a BLOB; use read_blob")
        return value

    def _lookup(self, table: str, key: bytes, txn: Transaction | None):
        if txn is not None:
            txn.ensure_active()
            if self._occ:
                # OCC: reads never block committed data — but because
                # this engine applies writes in place (no private write
                # buffer), a record under another transaction's write
                # marker holds *uncommitted* bytes; reading it would be
                # a dirty read if the writer aborts.  Such reads conflict
                # immediately.
                holders = self.locks.held_by(table, key)
                if holders and txn.txn_id not in holders:
                    self.model.latch(contended=True)
                    raise TransactionConflict(
                        f"txn {txn.txn_id} read of {table}[{key!r}] "
                        f"hit an uncommitted write by {sorted(holders)}")
                txn.read_set[(table, key)] = \
                    self._versions.get((table, key), 0)
            else:
                self.locks.acquire(txn.txn_id, table, key, LockMode.SHARED)
        value = self._table(table).lookup(key)
        if value is None:
            raise KeyNotFoundError(f"{table}[{key!r}] not found")
        return value

    def exists(self, table: str, key: bytes) -> bool:
        return self._table(table).lookup(key) is not None

    def scan(self, table: str, start: bytes | None = None,
             end: bytes | None = None) -> Iterator[tuple[bytes, object]]:
        yield from self._table(table).scan(start, end)

    # -- BLOB operations ------------------------------------------------------------------

    def put_blob(self, txn: Transaction, table: str, key: bytes,
                 data: bytes, use_tail: bool | None = None) -> BlobState:
        """Store ``data`` as a BLOB under ``key`` (Figure 2(b) write path)."""
        txn.ensure_active()
        obs = self.model.obs
        if obs is None:
            return self._put_blob_body(txn, table, key, data, use_tail)
        obs.begin("db.put_blob")
        try:
            return self._put_blob_body(txn, table, key, data, use_tail)
        finally:
            obs.end(bytes=len(data))

    def _put_blob_body(self, txn: Transaction, table: str, key: bytes,
                       data: bytes, use_tail: bool | None) -> BlobState:
        self.locks.acquire(txn.txn_id, table, key, LockMode.EXCLUSIVE)
        tree = self._table(table)
        if tree.lookup(key) is not None:
            raise DuplicateKeyError(f"{table}[{key!r}] exists")
        self._ensure_begin(txn)
        result = self.blobs.create(data, use_tail=use_tail)
        txn.allocated.extend(result.new_extents)
        if result.new_tail is not None:
            txn.allocated_tails.append(result.new_tail)
        self.policy.log_blob_content(txn, table, key, data, 0,
                                     result.dirty_frames)
        self.wal.append(InsertRecord(txn_id=txn.txn_id, table=table, key=key,
                                     value=encode_value(result.state)))
        txn.remember_undo(table, key, None)
        tree.insert(key, result.state)
        self._ns_note(txn, "put", table, key, result.state)
        return result.state

    def put_blob_stream(self, txn: Transaction, table: str, key: bytes,
                        chunks, use_tail: bool | None = None) -> BlobState:
        """Store a BLOB from an iterable of chunks, constant memory.

        The first chunk creates the BLOB; every further chunk appends,
        resuming the stored intermediate hash — so a multi-gigabyte
        object streams in without the writer ever holding (or the engine
        re-reading) more than one chunk.
        """
        state: BlobState | None = None
        for chunk in chunks:
            chunk = bytes(chunk)
            if state is None:
                state = self.put_blob(txn, table, key, chunk,
                                      use_tail=use_tail)
            elif chunk:
                state = self.append_blob(txn, table, key, chunk)
        if state is None:
            state = self.put_blob(txn, table, key, b"", use_tail=use_tail)
        return state

    def get_state(self, table: str, key: bytes,
                  txn: Transaction | None = None) -> BlobState:
        value = self._lookup(table, key, txn)
        if not isinstance(value, BlobState):
            raise TypeError(f"{table}[{key!r}] is not a BLOB")
        if (table, key) in self._quarantined:
            raise ChecksumMismatchError(
                f"{table}[{key!r}] is quarantined: its durable content "
                f"no longer matches its recorded SHA-256")
        return value

    def read_blob(self, table: str, key: bytes,
                  txn: Transaction | None = None, worker_id: int = 0) -> bytes:
        """Full content as bytes (one relation lookup + one client copy)."""
        obs = self.model.obs
        if obs is None:
            state = self.get_state(table, key, txn)
            return self.blobs.read_bytes(state, worker_id=worker_id)
        obs.begin("db.read_blob")
        nbytes = 0
        try:
            state = self.get_state(table, key, txn)
            nbytes = state.size
            return self.blobs.read_bytes(state, worker_id=worker_id)
        finally:
            obs.end(bytes=nbytes)

    def read_blob_view(self, table: str, key: bytes,
                       txn: Transaction | None = None,
                       worker_id: int = 0) -> BlobView:
        """Zero-copy contiguous view (vmcache aliasing / HT staging copy)."""
        state = self.get_state(table, key, txn)
        return self.blobs.read(state, worker_id=worker_id)

    def read_blob_range(self, table: str, key: bytes, offset: int,
                        length: int, txn: Transaction | None = None,
                        worker_id: int = 0) -> bytes:
        """``pread``-style partial read: only overlapping extents load."""
        state = self.get_state(table, key, txn)
        return self.blobs.read_range(state, offset, length,
                                     worker_id=worker_id)

    def append_blob(self, txn: Transaction, table: str, key: bytes,
                    extra: bytes) -> BlobState:
        """Grow a BLOB (Figure 3): resume the hash, touch only new pages."""
        txn.ensure_active()
        obs = self.model.obs
        if obs is None:
            return self._append_blob_body(txn, table, key, extra)
        obs.begin("db.append_blob")
        try:
            return self._append_blob_body(txn, table, key, extra)
        finally:
            obs.end(bytes=len(extra))

    def _append_blob_body(self, txn: Transaction, table: str, key: bytes,
                          extra: bytes) -> BlobState:
        self.locks.acquire(txn.txn_id, table, key, LockMode.EXCLUSIVE)
        old_state = self.get_state(table, key)
        self._ensure_begin(txn)
        result = self.blobs.grow(old_state, extra)
        txn.allocated.extend(result.new_extents)
        if result.freed_tail is not None:
            txn.pending_free_tails.append(result.freed_tail)
            txn.pending_drop.append(result.freed_tail.pid)
        if result.clone_log is not None:
            # The tail clone relocated live content: flush it with this
            # transaction (and re-log it under physical logging).
            clone_off, clone_bytes, clone_frame = result.clone_log
            self.policy.log_blob_content(txn, table, key, clone_bytes,
                                         clone_off, [clone_frame])
        self.policy.log_blob_content(txn, table, key, extra, old_state.size,
                                     result.dirty_frames)
        self.wal.append(UpdateRecord(
            txn_id=txn.txn_id, table=table, key=key,
            old_value=encode_value(old_state),
            new_value=encode_value(result.state)))
        txn.remember_undo(table, key, old_state)
        self._table(table).insert(key, result.state)
        self._ns_note(txn, "put", table, key, result.state)
        return result.state

    def update_blob_range(self, txn: Transaction, table: str, key: bytes,
                          offset: int, data: bytes,
                          scheme: str = "auto") -> BlobState:
        """Overwrite part of a BLOB via the delta or clone scheme (III-D)."""
        txn.ensure_active()
        obs = self.model.obs
        if obs is None:
            return self._update_blob_range_body(txn, table, key, offset,
                                                data, scheme)
        obs.begin("db.update_blob")
        try:
            return self._update_blob_range_body(txn, table, key, offset,
                                                data, scheme)
        finally:
            obs.end(offset=offset, bytes=len(data), scheme=scheme)

    def _update_blob_range_body(self, txn: Transaction, table: str,
                                key: bytes, offset: int, data: bytes,
                                scheme: str) -> BlobState:
        self.locks.acquire(txn.txn_id, table, key, LockMode.EXCLUSIVE)
        old_state = self.get_state(table, key)
        self._ensure_begin(txn)
        if scheme in ("auto", "delta"):
            # Capture pre-images for abort before the in-place write.
            self._capture_delta_preimages(txn, old_state, offset, len(data))
        result = self.blobs.update_range(old_state, offset, data, scheme)
        if result.scheme_used == "delta":
            deltas = [dc_replace(d, table=table, key=key)
                      for d in result.delta_records]
            self.policy.log_deltas(txn, deltas)
            txn.remember_flush(result.dirty_frames)
            for frame in result.dirty_frames:
                frame.prevent_evict = True
        else:
            txn.pending_free.extend(result.freed_extents)
            txn.pending_drop.extend(e.pid for e in result.freed_extents)
            if result.freed_tail is not None:
                txn.pending_free_tails.append(result.freed_tail)
                txn.pending_drop.append(result.freed_tail.pid)
            new_pids = set(result.state.extent_pids) - set(old_state.extent_pids)
            for i, pid in enumerate(result.state.extent_pids):
                if pid in new_pids:
                    txn.allocated.append(
                        Extent(pid=pid, npages=self.tiers.size(i),
                               tier_index=i))
            if (result.state.tail_extent is not None
                    and result.state.tail_extent != old_state.tail_extent):
                txn.allocated_tails.append(result.state.tail_extent)
            txn.remember_flush(result.dirty_frames)
        self.wal.append(UpdateRecord(
            txn_id=txn.txn_id, table=table, key=key,
            old_value=encode_value(old_state),
            new_value=encode_value(result.state)))
        txn.remember_undo(table, key, old_state)
        self._table(table).insert(key, result.state)
        self._ns_note(txn, "put", table, key, result.state)
        return result.state

    def _capture_delta_preimages(self, txn: Transaction, state: BlobState,
                                 offset: int, length: int) -> None:
        ranges = state.page_ranges(self.tiers)
        pos = 0
        ps = self.config.page_size
        for pid, npages in ranges:
            lo = max(pos, offset)
            hi = min(pos + npages * ps, offset + length)
            if lo < hi:
                frames = self.pool.fetch_extents([(pid, npages)])
                old = bytes(frames[0].data[lo - pos:hi - pos])
                self.pool.unpin(frames)
                txn.delta_undo.append((pid, lo - pos, old))
            pos += npages * ps

    def delete_blob(self, txn: Transaction, table: str, key: bytes) -> None:
        """Delete a BLOB; its extents join the free lists at commit."""
        txn.ensure_active()
        obs = self.model.obs
        if obs is None:
            self._delete_blob_body(txn, table, key)
            return
        obs.begin("db.delete_blob")
        try:
            self._delete_blob_body(txn, table, key)
        finally:
            obs.end()

    def _delete_blob_body(self, txn: Transaction, table: str,
                          key: bytes) -> None:
        self.locks.acquire(txn.txn_id, table, key, LockMode.EXCLUSIVE)
        # Bypass the quarantine gate: deleting a corrupt BLOB is how an
        # operator clears it, and the Blob State itself is intact.
        old_state = self._lookup(table, key, None)
        if not isinstance(old_state, BlobState):
            raise TypeError(f"{table}[{key!r}] is not a BLOB")
        self._ensure_begin(txn)
        self.wal.append(DeleteRecord(txn_id=txn.txn_id, table=table, key=key,
                                     old_value=encode_value(old_state)))
        extents, tail = self.blobs.delete(old_state)
        txn.pending_free.extend(extents)
        txn.pending_drop.extend(
            pid for pid, _ in old_state.page_ranges(self.tiers))
        if tail is not None:
            txn.pending_free_tails.append(tail)
        txn.remember_undo(table, key, old_state)
        if (table, key) in self._quarantined:
            # Restore the flag if this delete is undone by an abort.
            txn.requarantine.append((table, key))
            self._quarantined.discard((table, key))
        self._table(table).delete(key)
        self._ns_note(txn, "del", table, key)

    def delete(self, txn: Transaction, table: str, key: bytes) -> None:
        """Delete any row (BLOB or inline)."""
        value = self._table(table).lookup(key)
        if value is None:
            raise KeyNotFoundError(f"{table}[{key!r}] not found")
        if isinstance(value, BlobState):
            self.delete_blob(txn, table, key)
            return
        txn.ensure_active()
        self.locks.acquire(txn.txn_id, table, key, LockMode.EXCLUSIVE)
        self._ensure_begin(txn)
        self.wal.append(DeleteRecord(txn_id=txn.txn_id, table=table, key=key,
                                     old_value=encode_value(value)))
        txn.remember_undo(table, key, value)
        self._table(table).delete(key)
        self._ns_note(txn, "del", table, key)

    # -- checkpointing -----------------------------------------------------------------------

    def drain_commit_window(self) -> None:
        """Settle any open group-commit window (see the log policy)."""
        self.policy.drain_commit_window(self.pool)

    def _maybe_checkpoint(self) -> None:
        if (self.wal.used_fraction() > self.config.checkpoint_threshold
                and not self._active):
            self.checkpoint()

    def _forced_checkpoint(self) -> None:
        """WAL ring exhausted mid-flush; only safe with no active txns."""
        if self._active:
            raise WalFullError(
                "WAL region exhausted while transactions are active; "
                "enlarge wal_pages for this workload")
        self._write_snapshot()

    def checkpoint(self) -> None:
        """Snapshot tables + allocator to the inactive slot, rewind WAL."""
        if self._active:
            raise TransactionStateError(
                "checkpoint requires no active transactions")
        self._write_snapshot()
        self.wal.reset()

    def _write_snapshot(self) -> None:
        obs = self.model.obs
        if obs is None:
            self._write_snapshot_body()
            return
        obs.begin("db.checkpoint")
        try:
            self._write_snapshot_body()
        finally:
            obs.end(checkpoint_id=self._checkpoint_id)
            obs.count("db.checkpoints")

    def _write_snapshot_body(self) -> None:
        # Deferred group commits must settle before the WAL records that
        # cover them can be discarded by the ring rewind.
        self.policy.drain_commit_window(self.pool)
        # Physlog leaves committed BLOB content dirty in the pool; a
        # checkpoint must push it out (the second write) before the WAL
        # chunks that could redo it are discarded.
        self.pool.flush_all_dirty(category="data", background=True)
        self._checkpoint_id += 1
        next_pid, free_extents, free_tails = self.allocator.snapshot()
        snap = CatalogSnapshot(
            checkpoint_id=self._checkpoint_id,
            next_txn_id=self._next_txn_id,
            allocator_next_pid=next_pid,
            free_extents=free_extents,
            free_tails=free_tails,
            tables={name: [(k, encode_value(v)) for k, v in tree.scan()]
                    for name, tree in self._tables.items()},
        )
        raw = snap.serialize()
        ps = self.config.page_size
        npages = (len(raw) + ps - 1) // ps
        if npages > self.config.catalog_pages:
            raise WalFullError(
                f"catalog snapshot needs {npages} pages, slot holds "
                f"{self.config.catalog_pages}; enlarge catalog_pages")
        slot = self._checkpoint_id % 2
        slot_pid = (self.config.catalog_a_pid if slot == 0
                    else self.config.catalog_b_pid)
        self.retry.run(lambda: self.meta_device.write(
            slot_pid, raw.ljust(npages * ps, b"\x00"),
            category="meta", background=True))
        super_block = Superblock(active_slot=slot, catalog_len=len(raw),
                                 checkpoint_id=self._checkpoint_id)
        self.retry.run(lambda: self.meta_device.write(
            0, super_block.serialize(ps), category="meta", background=True))
        self.checkpoints_taken += 1

    # -- integrity scrub ---------------------------------------------------------------------

    def scrub(self) -> ScrubStats:
        """Background scrub: re-digest every live BLOB against its state.

        Reads content unverified (the digest is the stronger check),
        retries transient faults, and quarantines any BLOB whose
        recomputed SHA no longer matches — after which reads surface
        :class:`~repro.db.errors.ChecksumMismatchError` instead of wrong
        bytes.  All device reads and hashing are charged to the cost
        model: scrubbing is real, priced background work.
        """
        obs = self.model.obs
        if obs is None:
            return self._scrub_body()
        obs.begin("db.scrub")
        try:
            return self._scrub_body()
        finally:
            obs.end(blobs=self.scrub_stats.blobs_scanned,
                    corrupt=self.scrub_stats.corrupt_found)

    def _scrub_body(self) -> ScrubStats:
        from repro.core.hashing import new_hasher
        ps = self.config.page_size
        for table in [_TABLES_TABLE] + self.list_tables():
            for key, value in list(self._tables[table].scan()):
                if not isinstance(value, BlobState):
                    continue
                if (table, key) in self._quarantined:
                    continue
                hasher = new_hasher(self.config.hasher)
                remaining = value.size
                for pid, npages in value.page_ranges(self.tiers):
                    if remaining <= 0:
                        break
                    raw = self.retry.run(
                        lambda p=pid, n=npages: self.device.read(
                            p, n, verify=False))
                    take = min(remaining, npages * ps)
                    hasher.update(raw[:take])
                    remaining -= take
                self.model.hash_bytes(value.size)
                self.scrub_stats.blobs_scanned += 1
                self.scrub_stats.bytes_scanned += value.size
                if hasher.digest() != value.sha256:
                    self.scrub_stats.corrupt_found += 1
                    self._quarantined.add((table, key))
                    self.quarantined_extents += value.num_extents + \
                        (1 if value.tail_extent is not None else 0)
        return self.scrub_stats

    # -- crash & recovery ------------------------------------------------------------------------

    def crash(self) -> SimulatedNVMe | StorageSet:
        """Drop all volatile state; returns the surviving device(s).

        A heterogeneous engine survives as its whole :class:`StorageSet`
        (PMem metadata + NVMe data are separate surviving media); the
        homogeneous case keeps returning the bare device.
        """
        self.pool.drop_all_volatile()
        simulate_state_loss()
        self._tables.clear()
        self._active.clear()
        # The namespace accelerator is volatile; rebuild it after
        # recovery with ``NamespaceIndex.build`` (deterministic from the
        # recovered tables).
        self.ns = None
        return self.storage if self.storage.heterogeneous else self.device

    @classmethod
    def recover(cls, device: SimulatedNVMe | StorageSet,
                config: EngineConfig,
                model: CostModel | None = None) -> "BlobDB":
        """Rebuild an engine from a crashed device (Section III-C)."""
        from repro.core.recovery import recover_state
        data = device.data if isinstance(device, StorageSet) else device
        db = cls(config=config, device=device,
                 model=model or data.model, _skip_format=True)
        recovered = recover_state(data, config, db.model, db.tiers,
                                  retry=db.retry,
                                  meta_device=db.meta_device,
                                  wal_device=db.wal_device)
        registry = recovered.tables.get(_TABLES_TABLE, {})
        registered = {name.decode() for name in registry}
        for name in recovered.tables:
            if name != _TABLES_TABLE and name not in registered:
                continue  # the table was dropped before the crash
            if name not in db._tables:
                db._tables[name] = db._new_btree()
            tree = db._tables[name]
            for key, value in recovered.tables[name].items():
                tree.insert(key, value)
        db.allocator.restore(recovered.allocator_next_pid,
                             recovered.free_extents, recovered.free_tails)
        db._next_txn_id = recovered.next_txn_id
        db._checkpoint_id = recovered.checkpoint_id
        # Restart ends with a checkpoint: the recovered state becomes
        # durable in the catalog before the WAL ring is reused, so a
        # second crash cannot depend on the overwritten old records.
        db._write_snapshot()
        db.wal.reset()
        db.wal.set_seq_floor(recovered.wal_max_seq)
        db.failed_txns = recovered.failed_txns
        db._quarantined = set(recovered.quarantined)
        db.quarantined_extents = recovered.extents_quarantined
        db.recovery_info = recovered
        return db

    # -- introspection -------------------------------------------------------------------------------

    def table_size(self, table: str) -> int:
        return len(self._table(table))

    def read_chunks_of(self, state: BlobState) -> Iterator[bytes]:
        """Chunk reader for comparators/indexes bound to this engine."""
        return self.blobs.read_chunks(state)

    def stats_report(self):
        """One structured snapshot of every subsystem's counters."""
        from repro.db.stats import build_report
        return build_report(self)
