"""Traditional hash-table buffer pool (``Our.ht`` in the paper).

Kept as a faithfully-priced baseline: page-granular hash translation
(N probes for an N-page extent) and ``malloc`` + ``memcpy``
materialization of multi-extent BLOBs, including the first-touch page
faults of the fresh anonymous buffer.  These are precisely the costs the
paper's Fig. 10 attributes the vmcache advantage to.
"""

from __future__ import annotations

from repro.buffer.frames import BlobView, join_frames
from repro.buffer.pool import BufferPoolBase

#: glibc M_MMAP_THRESHOLD: allocations above this use a fresh anonymous
#: mmap (page faults on first touch); smaller ones recycle arena memory.
#: This is why the hash-table pool is competitive at 100 KB but falls
#: behind at 1-10 MB in the paper's Fig. 10.
MMAP_THRESHOLD = 128 * 1024


class HashTablePool(BufferPoolBase):
    """Buffer pool with per-page hash translation and copying reads."""

    def _translate(self, npages: int) -> None:
        # One hash probe per page: "previous buffer pool designs trigger
        # exactly N page translations" (Section IV-A).
        for _ in range(npages):
            self.model.hashtable_probe()

    def read_blob(self, ranges: list[tuple[int, int]], size: int,
                  worker_id: int = 0) -> BlobView:
        """Materialize the BLOB into a fresh contiguous buffer (copy)."""
        san = self.model.san
        if san is not None:
            san.set_worker(worker_id)
        frames = self.fetch_extents(ranges, pin=True)
        if len(frames) == 1:
            # A single extent is contiguous in the frame already.
            return BlobView(frames, size, release=lambda: self.unpin(frames))
        # malloc a staging buffer and memcpy every extent into it; big
        # buffers come from fresh anonymous mmaps that page-fault on
        # first touch, small ones recycle warm arena memory.
        self.model.malloc(size)
        self.model.memcpy(size, faults=size > MMAP_THRESHOLD)
        if san is not None:
            for frame in frames:
                san.on_frame_read(frame)
        data = join_frames(frames, size)
        view = BlobView(frames, size, release=lambda: self.unpin(frames),
                        materialized=data)
        return view
