"""BLOB operations over the buffer pool and extent allocator (III-C/D).

The :class:`BlobManager` owns the mechanics of the paper's BLOB
life-cycle — planning and allocating extent sequences, writing content
into protected buffer frames, resumable hashing, growth, the two update
schemes, and deletion — while transactional concerns (WAL ordering,
commit-time flushing, free-list publication) stay in the database layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.buffer.frames import BlobView, ExtentFrame
from repro.buffer.pool import BufferPoolBase
from repro.core.allocator import ExtentAllocator
from repro.core.blob_state import PREFIX_LEN, BlobState
from repro.core.extent import Extent, TailExtent, plan_create, plan_growth
from repro.core.hashing import new_hasher, resume_or_rehash
from repro.core.tier import TierTable
from repro.sim.cost import CostModel
from repro.wal.records import BlobDeltaRecord


@dataclass
class UpdateResult:
    """Outcome of an in-range BLOB update."""

    state: BlobState
    dirty_frames: list[ExtentFrame]
    delta_records: list[BlobDeltaRecord]
    freed_extents: list[Extent]
    freed_tail: TailExtent | None = None
    scheme_used: str = "delta"


@dataclass
class CreateResult:
    state: BlobState
    dirty_frames: list[ExtentFrame]
    #: Extents/tail to roll back if the transaction aborts.
    new_extents: list[Extent] = field(default_factory=list)
    new_tail: TailExtent | None = None
    #: Tail extent replaced by a clone during growth; the caller frees it
    #: at commit (its space is reusable only once the txn is durable).
    freed_tail: TailExtent | None = None
    #: Content relocated by the tail clone: ``(logical_offset, bytes,
    #: frame)``.  The caller must route it through the logging policy so
    #: the clone is flushed at commit (and, under physical logging,
    #: re-logged at its new location).
    clone_log: tuple[int, bytes, ExtentFrame] | None = None


class BlobManager:
    """Implements BLOB create / read / grow / update / delete."""

    def __init__(self, pool: BufferPoolBase, allocator: ExtentAllocator,
                 tiers: TierTable, model: CostModel, page_size: int,
                 hasher_kind: str = "fast",
                 use_tail_extents: bool = False) -> None:
        self.pool = pool
        self.allocator = allocator
        self.tiers = tiers
        self.model = model
        self.page_size = page_size
        self.hasher_kind = hasher_kind
        self.use_tail_extents = use_tail_extents

    # -- create -----------------------------------------------------------

    def create(self, data: bytes, use_tail: bool | None = None) -> CreateResult:
        """Allocate the smallest extent sequence and fill it with ``data``.

        The returned frames are ``prevent_evict``-protected and dirty;
        the commit protocol flushes them and lifts the protection.
        """
        if use_tail is None:
            use_tail = self.use_tail_extents
        hasher = new_hasher(self.hasher_kind, data)
        self.model.hash_bytes(len(data))
        if not data:
            state = BlobState(size=0, sha256=hasher.digest(),
                              sha_state=hasher.state(), prefix=b"")
            return CreateResult(state=state, dirty_frames=[])
        npages = (len(data) + self.page_size - 1) // self.page_size
        plan = plan_create(npages, self.tiers, use_tail=use_tail)
        extents, tail = self.allocator.allocate_plan(plan)
        frames = [self.pool.allocate_frame(e.pid, e.npages) for e in extents]
        if tail is not None:
            frames.append(self.pool.allocate_frame(tail.pid, tail.npages))
        self._write_across(frames, 0, data)
        self.model.memcpy(len(data))
        state = BlobState(
            size=len(data), sha256=hasher.digest(), sha_state=hasher.state(),
            prefix=data[:PREFIX_LEN],
            extent_pids=tuple(e.pid for e in extents), tail_extent=tail)
        return CreateResult(state=state, dirty_frames=frames,
                            new_extents=extents, new_tail=tail)

    # -- read --------------------------------------------------------------

    def read(self, state: BlobState, worker_id: int = 0) -> BlobView:
        """Present the BLOB as contiguous memory (pool-specific strategy)."""
        if state.size == 0:
            return BlobView([], 0)
        return self.pool.read_blob(state.page_ranges(self.tiers), state.size,
                                   worker_id=worker_id)

    def read_bytes(self, state: BlobState, worker_id: int = 0) -> bytes:
        """Convenience: the full content as ``bytes`` (one client memcpy)."""
        with self.read(state, worker_id) as view:
            return view.copy_to_client(self.model)

    def read_chunks(self, state: BlobState) -> Iterator[bytes]:
        """Yield content one extent at a time (incremental comparator)."""
        remaining = state.size
        for pid, npages in state.page_ranges(self.tiers):
            if remaining <= 0:
                return
            frames = self.pool.fetch_extents([(pid, npages)])
            take = min(remaining, npages * self.page_size)
            chunk = bytes(frames[0].data[:take])
            self.pool.unpin(frames)
            remaining -= take
            yield chunk

    def read_range(self, state: BlobState, offset: int, length: int,
                   worker_id: int = 0) -> bytes:
        """Read ``length`` bytes at ``offset`` touching only the extents
        that overlap the range.

        This is the ``pread``-shaped access path (the FUSE ``read`` of
        Listing 1): a 4 KB read from a multi-gigabyte BLOB fetches one
        extent, not the whole object.  The copy-out of the requested
        bytes is charged as the single client memcpy.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        if offset >= state.size or length == 0:
            return b""
        length = min(length, state.size - offset)
        end = offset + length
        ranges = []
        windows = []
        logical = 0
        for pid, npages in state.page_ranges(self.tiers):
            ext_bytes = npages * self.page_size
            lo = max(logical, offset)
            hi = min(logical + ext_bytes, end)
            if lo < hi:
                ranges.append((pid, npages))
                windows.append((logical, lo, hi))
            logical += ext_bytes
        frames = self.pool.fetch_extents(ranges, pin=True)
        try:
            # One copy: ``join`` reads the memoryview windows in place.
            data = b"".join([memoryview(frame.data)[lo - base:hi - base]
                             for frame, (base, lo, hi)
                             in zip(frames, windows)])
        finally:
            self.pool.unpin(frames)
        self.model.memcpy(length)
        return data

    # -- grow ----------------------------------------------------------------

    def grow(self, state: BlobState, extra: bytes) -> CreateResult:
        """Append ``extra`` to the BLOB (Section III-D, Figure 3).

        Hashing resumes from the stored intermediate digest, so existing
        content is *not* re-read; only the partially-filled last extent
        and the newly allocated extents are touched.
        """
        if not extra:
            return CreateResult(state=state, dirty_frames=[])
        new_extents: list[Extent] = []
        freed_tail: TailExtent | None = None
        clone_log: tuple[int, bytes, ExtentFrame] | None = None
        if state.tail_extent is not None:
            state, cloned, freed_tail, clone_log = self._clone_tail(state)
            new_extents.append(cloned)

        old_size = state.size
        capacity = state.capacity_pages(self.tiers)
        total_pages = (old_size + len(extra) + self.page_size - 1) \
            // self.page_size
        plan = plan_growth(state.num_extents, capacity, total_pages, self.tiers)
        grown = [self.allocator.allocate_extent(i) for i in plan.tier_indices]
        new_extents.extend(grown)
        new_frames = [self.pool.allocate_frame(e.pid, e.npages) for e in grown]

        dirty: list[ExtentFrame] = list(new_frames)
        all_pids = list(state.extent_pids) + [e.pid for e in grown]
        # The write begins inside the current last extent when it has
        # room; only extents overlapping the appended range are fetched,
        # and they stay pinned for the duration of the write.
        touched = self._write_pinned(all_pids, old_size, extra)
        for frame in touched:
            if frame not in dirty:
                dirty.append(frame)
        self.model.memcpy(len(extra))

        hasher = resume_or_rehash(self.hasher_kind, state.sha_state,
                                  lambda: self.read_chunks(state))
        hasher.update(extra)
        self.model.hash_bytes(len(extra))
        prefix = state.prefix
        if old_size < PREFIX_LEN:
            prefix = (prefix + extra)[:PREFIX_LEN]
        new_state = BlobState(
            size=old_size + len(extra), sha256=hasher.digest(),
            sha_state=hasher.state(), prefix=prefix,
            extent_pids=tuple(all_pids), tail_extent=None)
        return CreateResult(state=new_state, dirty_frames=dirty,
                            new_extents=new_extents, freed_tail=freed_tail,
                            clone_log=clone_log)

    def _clone_tail(self, state: BlobState) \
            -> tuple[BlobState, Extent, TailExtent,
                     tuple[int, bytes, ExtentFrame]]:
        """Clone the tail extent into the next tiered extent (III-D).

        Returns the relocated content with its logical offset so the
        caller can log/flush it: the clone holds live data that exists
        nowhere else durable until the commit-time flush.
        """
        tail = state.tail_extent
        assert tail is not None
        tier_index = state.num_extents
        clone = self.allocator.allocate_extent(tier_index)
        frame = self.pool.allocate_frame(clone.pid, clone.npages)
        src = self.pool.fetch_extents([(tail.pid, tail.npages)])
        payload = bytes(src[0].data)
        self.pool.unpin(src)
        frame.write_at(0, payload)
        self.model.memcpy(len(payload))
        new_state = BlobState(
            size=state.size, sha256=state.sha256, sha_state=state.sha_state,
            prefix=state.prefix,
            extent_pids=state.extent_pids + (clone.pid,), tail_extent=None)
        clone_offset = self.tiers.cumulative(state.num_extents) \
            * self.page_size
        live_bytes = payload[:max(0, state.size - clone_offset)]
        return new_state, clone, tail, (clone_offset, live_bytes, frame)

    # -- update -----------------------------------------------------------------

    def update_range(self, state: BlobState, offset: int, data: bytes,
                     scheme: str = "auto") -> UpdateResult:
        """Overwrite ``data`` at ``offset`` (Section III-D).

        ``delta``: log a physical delta and update extents in place (new
        data written twice: WAL + extent).  ``clone``: allocate same-tier
        clone extents and redirect the Blob State (old data written once
        more).  ``auto`` picks the cheaper by bytes written.
        """
        if offset < 0 or offset + len(data) > state.size:
            raise ValueError("update range outside BLOB bounds")
        if not data:
            return UpdateResult(state=state, dirty_frames=[],
                                delta_records=[], freed_extents=[])
        ranges = state.page_ranges(self.tiers)
        touched = self._touched_extents(ranges, offset, len(data))
        touched_bytes = sum(ranges[i][1] for i in touched) * self.page_size
        if scheme == "auto":
            scheme = "delta" if 2 * len(data) <= touched_bytes else "clone"
        if scheme == "delta":
            result = self._update_delta(state, ranges, offset, data)
        elif scheme == "clone":
            result = self._update_clone(state, ranges, touched, offset, data)
        else:
            raise ValueError(f"unknown update scheme {scheme!r}")
        result.state = self._rehash_after_update(result.state, offset, data)
        return result

    def _update_delta(self, state: BlobState, ranges, offset: int,
                      data: bytes) -> UpdateResult:
        windows = self._layout_ranges(ranges)
        deltas: list[BlobDeltaRecord] = []
        dirty: list[ExtentFrame] = []
        for (pid, npages), (start, end) in zip(ranges, windows):
            lo = max(start, offset)
            hi = min(end, offset + len(data))
            if lo >= hi:
                continue
            frames = self.pool.fetch_extents([(pid, npages)])
            frame = frames[0]
            piece = data[lo - offset:hi - offset]
            frame.write_at(lo - start, piece)
            self.model.memcpy(len(piece))
            deltas.append(BlobDeltaRecord(
                pid=frame.head_pid, offset=lo - start, data=piece))
            dirty.append(frame)
            self.pool.unpin(frames)
        return UpdateResult(state=state, dirty_frames=dirty,
                            delta_records=deltas, freed_extents=[],
                            scheme_used="delta")

    def _update_clone(self, state: BlobState, ranges, touched, offset: int,
                      data: bytes) -> UpdateResult:
        layout = self._layout_ranges(ranges)
        new_pids = list(state.extent_pids)
        new_tail = state.tail_extent
        dirty: list[ExtentFrame] = []
        freed: list[Extent] = []
        for i in touched:
            pid, npages = ranges[i]
            start, end = layout[i]
            old = self.pool.fetch_extents([(pid, npages)])
            old_bytes = bytes(old[0].data)
            self.pool.unpin(old)
            is_tail = state.tail_extent is not None and i == len(ranges) - 1
            if is_tail:
                clone_tail = self.allocator.allocate_tail(npages)
                clone_pid = clone_tail.pid
                new_tail = clone_tail
            else:
                tier_index = i
                clone = self.allocator.allocate_extent(tier_index)
                clone_pid = clone.pid
                new_pids[i] = clone.pid
                freed.append(Extent(pid=pid, npages=npages,
                                    tier_index=tier_index))
            frame = self.pool.allocate_frame(clone_pid, npages)
            frame.write_at(0, old_bytes)       # old data written once more
            self.model.memcpy(len(old_bytes))
            lo = max(start, offset)
            hi = min(end, offset + len(data))
            frame.write_at(lo - start, data[lo - offset:hi - offset])
            self.model.memcpy(hi - lo)
            dirty.append(frame)
        freed_tail = None
        if new_tail is not state.tail_extent and state.tail_extent is not None:
            freed_tail = state.tail_extent
        new_state = BlobState(
            size=state.size, sha256=state.sha256, sha_state=state.sha_state,
            prefix=state.prefix, extent_pids=tuple(new_pids),
            tail_extent=new_tail)
        return UpdateResult(state=new_state, dirty_frames=dirty,
                            delta_records=[], freed_extents=freed,
                            freed_tail=freed_tail, scheme_used="clone")

    def _rehash_after_update(self, state: BlobState, offset: int,
                             data: bytes) -> BlobState:
        """Recompute digest and prefix after an in-range overwrite.

        A middle update invalidates the resumable chain, so the content
        is re-hashed in full — one reason the paper argues whole-BLOB
        replacement is the common, and cheaper, pattern.
        """
        hasher = new_hasher(self.hasher_kind)
        for chunk in self.read_chunks(state):
            hasher.update(chunk)
        self.model.hash_bytes(state.size)
        prefix = state.prefix
        if offset < PREFIX_LEN:
            mutable = bytearray(prefix)
            end = min(PREFIX_LEN, offset + len(data))
            mutable[offset:end] = data[:end - offset]
            prefix = bytes(mutable[:min(state.size, PREFIX_LEN)])
        return state.with_content(size=state.size, sha256=hasher.digest(),
                                  sha_state=hasher.state(), prefix=prefix)

    # -- delete --------------------------------------------------------------------

    def delete(self, state: BlobState) \
            -> tuple[list[Extent], TailExtent | None]:
        """Return the extents for the commit-time free (III-D).

        The extents go onto the transaction's temporary list; the commit
        publishes them to the free lists *and* drops their buffer frames.
        Frames must stay resident until then: if the transaction aborts,
        the restored row still points at them, and under physical logging
        a dirty frame may hold the only copy of the content.
        """
        extents = [Extent(pid=pid, npages=self.tiers.size(i), tier_index=i)
                   for i, pid in enumerate(state.extent_pids)]
        return extents, state.tail_extent

    # -- validation -------------------------------------------------------------------

    def validate(self, state: BlobState) -> bool:
        """Recompute the content digest and compare (recovery analysis)."""
        hasher = new_hasher(self.hasher_kind)
        for chunk in self.read_chunks(state):
            hasher.update(chunk)
        self.model.hash_bytes(state.size)
        return hasher.digest() == state.sha256

    # -- layout helpers ----------------------------------------------------------------

    def _write_pinned(self, pids: list[int], offset: int,
                      data: bytes) -> list[ExtentFrame]:
        """Write ``data`` at logical ``offset``, fetching and pinning
        only the extents that overlap the write window.

        The frames are unpinned before returning; callers that need them
        to survive until commit protect them via the transaction's flush
        list.  Extents outside the window are never materialized — a
        4 KB append to a multi-gigabyte BLOB touches one extent.
        """
        end_off = offset + len(data)
        ranges: list[tuple[int, int]] = []
        windows: list[tuple[int, int, int]] = []
        logical = 0
        for i, pid in enumerate(pids):
            npages = self.tiers.size(i)
            nbytes = npages * self.page_size
            lo = max(logical, offset)
            hi = min(logical + nbytes, end_off)
            if lo < hi:
                ranges.append((pid, npages))
                windows.append((logical, lo, hi))
            logical += nbytes
        frames = self.pool.fetch_extents(ranges, pin=True)
        try:
            for frame, (base, lo, hi) in zip(frames, windows):
                frame.write_at(lo - base, data[lo - offset:hi - offset])
        finally:
            self.pool.unpin(frames)
        return frames

    def _layout_ranges(self, ranges: list[tuple[int, int]]) \
            -> list[tuple[int, int]]:
        """Logical byte windows [start, end) of each physical range."""
        out = []
        offset = 0
        for _, npages in ranges:
            nbytes = npages * self.page_size
            out.append((offset, offset + nbytes))
            offset += nbytes
        return out

    def _touched_extents(self, ranges, offset: int, length: int) -> list[int]:
        windows = self._layout_ranges(ranges)
        return [i for i, (start, end) in enumerate(windows)
                if start < offset + length and end > offset]

    def _write_layout(self, layout, offset: int, data: bytes) \
            -> list[ExtentFrame]:
        """Write ``data`` at logical ``offset`` across the frame layout."""
        touched = []
        end_off = offset + len(data)
        for frame, start, end in layout:
            lo = max(start, offset)
            hi = min(end, end_off)
            if lo >= hi:
                continue
            frame.write_at(lo - start, data[lo - offset:hi - offset])
            touched.append(frame)
        return touched

    def _write_across(self, frames: list[ExtentFrame], offset: int,
                      data: bytes) -> None:
        layout = []
        pos = 0
        for frame in frames:
            nbytes = frame.npages * self.page_size
            layout.append((frame, pos, pos + nbytes))
            pos += nbytes
        self._write_layout(layout, offset, data)
