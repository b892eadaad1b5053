"""Common buffer-pool machinery: residency, fair eviction, write-back."""

from __future__ import annotations

import random
from collections.abc import Container
from dataclasses import dataclass

from repro.buffer.frames import BlobView, ExtentFrame
from repro.io import IoScheduler
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe


@dataclass
class PoolStats:
    """Counters for the buffer experiments (Figs. 9, 10)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferPoolBase:
    """Extent-granular buffer pool over a simulated device.

    Subclasses implement the translation cost (:meth:`_translate`) and the
    materialization strategy (:meth:`read_blob`): that is exactly where
    the hash-table design and vmcache+exmap differ in the paper.
    """

    def __init__(self, device: SimulatedNVMe, model: CostModel,
                 capacity_pages: int, eviction_seed: int = 0,
                 eviction_policy: str = "fair", *,
                 io_queue_depth: int = 32,
                 io_max_merge_pages: int = 64) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        if eviction_policy not in ("fair", "uniform"):
            raise ValueError("eviction_policy must be 'fair' or 'uniform'")
        self.device = device
        self.model = model
        self.capacity_pages = capacity_pages
        #: SQ/CQ front end: every batched pool I/O (miss loads, flush
        #: batches) goes through one scheduler so adjacent extents
        #: coalesce and batches are priced at its queue depth.
        self.io = IoScheduler(device, model, queue_depth=io_queue_depth,
                              max_merge_pages=io_max_merge_pages)
        #: "fair" accepts a victim with probability proportional to its
        #: page count (Section III-G); "uniform" treats every extent as
        #: equally evictable (the ablation baseline).
        self.eviction_policy = eviction_policy
        #: Optional RetryPolicy; when set, device I/O issued by the pool
        #: survives transient faults (set by the engine, not per-call).
        self.retry = None
        self.stats = PoolStats()
        self._frames: dict[int, ExtentFrame] = {}
        self._used_pages = 0
        self._clockhand = 0
        self._rng = random.Random(eviction_seed)
        self._max_extent_pages = 1

    # -- residency -----------------------------------------------------------

    @property
    def used_pages(self) -> int:
        return self._used_pages

    def is_resident(self, head_pid: int) -> bool:
        return head_pid in self._frames

    def frame_is_current(self, frame: ExtentFrame) -> bool:
        """True while ``frame`` still owns its pages in this pool.

        A deferred group-commit flush uses this to skip frames whose
        blob was dropped or replaced after the commit that queued them:
        their pages may have been reallocated to someone else.
        """
        return self._frames.get(frame.head_pid) is frame

    def get_frame(self, head_pid: int) -> ExtentFrame | None:
        frame = self._frames.get(head_pid)
        if frame is not None:
            self._translate(frame.npages)
            self._touch(frame)
        return frame

    def _touch(self, frame: ExtentFrame) -> None:
        self._clockhand += 1
        frame.last_use = self._clockhand

    def _device_call(self, op):
        """Issue a device operation, retrying transient faults if a
        retry policy is attached."""
        if self.retry is not None:
            return self.retry.run(op)
        return op()

    def _translate(self, npages: int) -> None:
        """Charge the page-translation cost; subclass-specific."""
        raise NotImplementedError

    # -- allocation of fresh frames ----------------------------------------------

    def allocate_frame(self, head_pid: int, npages: int, *,
                       prevent_evict: bool = True) -> ExtentFrame:
        """Create a frame for a newly allocated extent (no device read).

        Freshly allocated BLOB extents are protected from eviction until
        their commit-time flush completes (Section III-C).
        """
        if head_pid in self._frames:
            raise ValueError(f"extent {head_pid} already resident")
        self._make_room(npages)
        frame = ExtentFrame(head_pid=head_pid, npages=npages,
                            page_size=self.device.page_size,
                            prevent_evict=prevent_evict,
                            san=self.model.san,
                            race=self.model.race)
        self._frames[head_pid] = frame
        self._used_pages += npages
        self._max_extent_pages = max(self._max_extent_pages, npages)
        self._touch(frame)
        return frame

    # -- reads ------------------------------------------------------------------

    def fetch_extents(self, ranges: list[tuple[int, int]],
                      pin: bool = True) -> list[ExtentFrame]:
        """Ensure all extents are resident; misses load in ONE async batch.

        This is the paper's read path: "allocates N buffer frames for all
        those extents and reads the extents using a single asynchronous
        IO system call" (Section III-D).  A pid listed twice is loaded
        once, counted as two misses and pinned twice.
        """
        missing: list[tuple[int, int]] = []
        for pid, npages in ranges:
            frame = self._frames.get(pid)
            self._translate(npages)
            if frame is None:
                self.stats.misses += 1
                missing.append((pid, npages))
            else:
                self.stats.hits += 1
        obs = self.model.obs
        if obs is not None:
            obs.count("pool.hits", len(ranges) - len(missing))
            obs.count("pool.misses", len(missing))
        if missing:
            missing = list(dict.fromkeys(missing))  # load a repeat once
            if obs is not None:
                obs.begin("pool.load")
            try:
                # The request's hits stay: evicting one would leave it
                # unreadable below, after the frames before it were pinned.
                self._make_room(sum(n for _, n in missing),
                                keep={pid for pid, _ in ranges})
                tickets = [self.io.submit_read(pid, n)
                           for pid, n in missing]
                self._device_call(self.io.drain)
                for (pid, npages), ticket in zip(missing, tickets):
                    assert ticket.result is not None
                    frame = ExtentFrame(head_pid=pid, npages=npages,
                                        page_size=self.device.page_size,
                                        data=bytearray(ticket.result),
                                        san=self.model.san,
                                        race=self.model.race)
                    self._frames[pid] = frame
                    self._used_pages += npages
                    self._max_extent_pages = max(self._max_extent_pages,
                                                 npages)
            finally:
                if obs is not None:
                    obs.end(extents=len(missing),
                            pages=sum(n for _, n in missing))
        san = self.model.san
        race = self.model.race
        if san is not None and pin:
            # One batch acquisition: pages latched together are unordered
            # with respect to each other (the pool pins them atomically).
            san.on_latch_acquire([pid for pid, _ in ranges])
        frames = [self._frames[pid] for pid, _ in ranges]
        for frame in frames:
            if san is not None:
                frame.san = san
            if race is not None:
                frame.race = race
            self._touch(frame)
            if pin:
                frame.pins += 1
        return frames

    def unpin(self, frames: list[ExtentFrame]) -> None:
        for frame in frames:
            if frame.pins <= 0:
                raise RuntimeError(f"frame {frame.head_pid} is not pinned")
            frame.pins -= 1
            if frame.san is not None:
                frame.san.on_latch_release(frame.head_pid)

    def read_blob(self, ranges: list[tuple[int, int]], size: int,
                  worker_id: int = 0) -> BlobView:
        """Present a possibly multi-extent BLOB as contiguous memory."""
        raise NotImplementedError

    # -- write-back and eviction ---------------------------------------------------

    def write_back(self, frame: ExtentFrame, category: str = "data") -> int:
        """Flush the frame's dirty page range; returns bytes written."""
        if not frame.is_dirty:
            return 0
        san = self.model.san
        if san is not None and category == "data":
            san.on_data_writeback(frame.head_pid)
        payload = frame.dirty_slice()
        obs = self.model.obs
        if obs is not None:
            obs.begin("pool.writeback")
        try:
            self._device_call(lambda: self.device.write(
                frame.head_pid + frame.dirty_from, payload,
                category=category))
        finally:
            if obs is not None:
                obs.end(pid=frame.head_pid, bytes=len(payload))
                obs.count("pool.writebacks")
        frame.clean()
        self.stats.writebacks += 1
        return len(payload)

    def flush_batch(self, frames: list[ExtentFrame], category: str = "data",
                    background: bool = False) -> int:
        """Flush many frames' dirty ranges as one async batch.

        ``background=True`` models work a group committer / checkpointer
        performs off the critical path.  Frames are sorted by head pid
        before submission so the scheduler sees pid-adjacent extents
        next to each other and can coalesce them into larger transfers.
        """
        total = 0
        flushed = 0
        san = self.model.san
        for frame in sorted(frames, key=lambda f: f.head_pid):
            if not frame.is_dirty:
                continue
            if san is not None and category == "data":
                san.on_data_writeback(frame.head_pid)
            payload = frame.dirty_slice()
            self.io.submit_write(frame.head_pid + frame.dirty_from,
                                 payload, category=category)
            total += len(payload)
            flushed += 1
            frame.clean()
            self.stats.writebacks += 1
        if flushed:
            obs = self.model.obs
            if obs is not None:
                obs.begin("pool.flush_batch")
            try:
                self._device_call(
                    lambda: self.io.drain(background=background))
            finally:
                if obs is not None:
                    obs.end(extents=flushed, bytes=total,
                            background=background)
                    obs.count("pool.writebacks", flushed)
        return total

    def flush_all_dirty(self, category: str = "data",
                        background: bool = True,
                        skip_protected: bool = True) -> int:
        """Checkpoint helper: flush every dirty, unprotected frame."""
        victims = [f for f in self._frames.values()
                   if f.is_dirty and not (skip_protected and f.prevent_evict)]
        return self.flush_batch(victims, category=category,
                                background=background)

    def drop(self, head_pid: int) -> None:
        """Remove an extent from the pool (deleted BLOBs); must be clean."""
        frame = self._frames.pop(head_pid, None)
        if frame is not None:
            self._used_pages -= frame.npages
            if frame.san is not None:
                frame.san.on_frame_drop(head_pid)

    def _make_room(self, npages: int, keep: Container[int] = ()) -> None:
        if npages > self.capacity_pages:
            raise ValueError(
                f"extent batch of {npages} pages exceeds pool capacity "
                f"{self.capacity_pages}")
        guard = 0
        while self._used_pages + npages > self.capacity_pages:
            if not self._evict_one(force=guard > 2 * len(self._frames) + 8,
                                   keep=keep):
                guard += 1
                if guard > 4 * len(self._frames) + 16:
                    raise RuntimeError(
                        "buffer pool wedged: everything pinned or protected")

    def _evict_one(self, force: bool = False,
                   keep: Container[int] = ()) -> bool:
        """Fair (size-weighted) eviction of one extent (Section III-G).

        An N-page extent is accepted with probability proportional to N:
        ``rand(MAX_EXT_SIZE) < extent_size`` — so large extents leave the
        pool N times more readily than single pages.  Head pids in
        ``keep`` are never evicted; they are skipped only after their
        acceptance draw, so a run that never draws one of them consumes
        the same random stream as one without ``keep``.

        The visiting order is a partial Fisher–Yates drawn lazily: step
        ``t`` swaps ``t + randrange(n - t)`` into ``t``.  Both draws make
        ``randrange``'s ``getrandbits`` calls inline, ``k`` tracking the
        bit length of ``n - t``.
        """
        candidates = list(self._frames.values())
        getrandbits = self._rng.getrandbits
        fair = self.eviction_policy == "fair" and not force
        bound = self._max_extent_pages
        kbound = bound.bit_length()
        n = len(candidates)
        k = n.bit_length()
        low = 1 << k >> 1  # smallest range size with k bits
        for t in range(n):
            if n - t < low:
                k -= 1
                low >>= 1
            j = getrandbits(k) + t
            while j >= n:
                j = getrandbits(k) + t
            frame = candidates[j]
            candidates[j] = candidates[t]  # position t is never read again
            if frame.prevent_evict or frame.pins > 0:
                continue
            if fair:
                r = getrandbits(kbound)
                while r >= bound:
                    r = getrandbits(kbound)
                if r >= frame.npages:
                    continue
            if frame.head_pid in keep:
                continue
            obs = self.model.obs
            if obs is not None:
                obs.instant("pool.evict", pid=frame.head_pid,
                            npages=frame.npages, dirty=frame.is_dirty)
                obs.count("pool.evictions")
            if frame.is_dirty:
                self.write_back(frame)
            del self._frames[frame.head_pid]
            self._used_pages -= frame.npages
            self.stats.evictions += 1
            return True
        return False

    def drop_all_volatile(self) -> None:
        """Crash simulation: all frames vanish without write-back."""
        self._frames.clear()
        self._used_pages = 0
