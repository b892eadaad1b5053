"""vmcache + exmap buffer pool (``Our`` in the paper, Section IV).

Differences from the hash-table pool, both priced by the cost model:

* **Translation**: vmcache indexes frames by virtual address, so locating
  an extent costs *one* translation regardless of its page count.
* **Materialization**: a multi-extent BLOB is presented as contiguous
  memory by *virtual memory aliasing* — an exmap page-table update plus a
  TLB shootdown on release — instead of ``malloc`` + ``memcpy``.  A
  single-extent BLOB is already contiguous and needs no aliasing at all.
"""

from __future__ import annotations

from repro.buffer.aliasing import AliasingManager
from repro.buffer.frames import BlobView, join_frames
from repro.buffer.pool import BufferPoolBase
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe

#: Default worker-local aliasing area: 16 MB of 4 KiB pages (Section V-F
#: shows 4 MB vs 16 MB perform alike; 16 MB avoids the shared area for
#: the paper's default 10 MB BLOBs).
DEFAULT_WORKER_LOCAL_PAGES = 4096

#: Below this size a multi-extent BLOB is materialized with a plain
#: copy instead of aliased: the paper's own Fig. 10 shows the TLB
#: shootdown outweighs malloc+memcpy for small objects, so the engine
#: picks per size (an engineering refinement of Section V-E's analysis).
DEFAULT_ALIAS_THRESHOLD_BYTES = 64 * 1024


class VmcachePool(BufferPoolBase):
    """Buffer pool with one-translation-per-extent and aliasing reads."""

    def __init__(self, device: SimulatedNVMe, model: CostModel,
                 capacity_pages: int, *, n_workers: int = 1,
                 worker_local_pages: int = DEFAULT_WORKER_LOCAL_PAGES,
                 alias_threshold_bytes: int = DEFAULT_ALIAS_THRESHOLD_BYTES,
                 eviction_seed: int = 0) -> None:
        super().__init__(device, model, capacity_pages,
                         eviction_seed=eviction_seed)
        self.alias_threshold_bytes = alias_threshold_bytes
        # The shared aliasing area matches the buffer pool size, split
        # into worker-local-sized logical blocks (Section IV-B).
        self.aliasing = AliasingManager(
            model, n_workers=n_workers,
            worker_local_pages=worker_local_pages,
            shared_pages=max(capacity_pages, worker_local_pages))

    def _translate(self, npages: int) -> None:
        # One translation per extent, independent of the page count.
        self.model.vmcache_translate()

    def read_blob(self, ranges: list[tuple[int, int]], size: int,
                  worker_id: int = 0) -> BlobView:
        """Alias the BLOB's extents into one contiguous view (zero copy).

        Single-extent BLOBs are contiguous already; small multi-extent
        BLOBs are cheaper to copy than to alias (TLB shootdown), so the
        pool picks by ``alias_threshold_bytes``.
        """
        san = self.model.san
        if san is not None:
            san.set_worker(worker_id)
        frames = self.fetch_extents(ranges, pin=True)
        obs = self.model.obs
        if len(frames) > 1 and size < self.alias_threshold_bytes:
            if obs is not None:
                obs.count("pool.materialize", mode="copy")
            self.model.malloc(size)
            self.model.memcpy(size)
            if san is not None:
                for frame in frames:
                    san.on_frame_read(frame)
            data = join_frames(frames, size)
            return BlobView(frames, size,
                            release=lambda: self.unpin(frames),
                            materialized=data)
        handle = None
        if len(frames) > 1:
            if obs is not None:
                obs.count("pool.materialize", mode="alias")
            total_pages = sum(f.npages for f in frames)
            handle = self.aliasing.acquire(worker_id, total_pages)

        def release() -> None:
            if handle is not None:
                self.aliasing.release(handle)
            self.unpin(frames)

        return BlobView(frames, size, release=release)
