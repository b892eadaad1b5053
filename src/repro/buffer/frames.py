"""Buffer frames at extent granularity.

The paper synchronizes and evicts at extent granularity (coarse-grained
latching, Section III-G), so a frame covers one whole extent: its head
PID identifies it, and a contiguous dirty range tracks which pages a
commit-time flush must write ("the DBMS only writes the dirty pages",
Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExtentFrame:
    """In-memory image of one extent."""

    head_pid: int
    npages: int
    page_size: int
    data: bytearray = field(repr=False, default_factory=bytearray)
    #: First/last+1 dirty page offsets within the extent; empty when clean.
    dirty_from: int = 0
    dirty_to: int = 0
    #: Set after allocation, cleared when the commit-time flush completes;
    #: the eviction policy never touches a protected extent.
    prevent_evict: bool = False
    #: Readers pin the frame so eviction cannot drop it mid-access.
    pins: int = 0
    #: Monotonic use stamp for eviction candidate ordering.
    last_use: int = 0
    #: Runtime sanitizer hook (``model.san``); ``None`` — the default —
    #: costs one attribute check per access.  Excluded from equality:
    #: frame identity is its content and state, not its instrumentation.
    san: "object | None" = field(default=None, repr=False, compare=False)
    #: Happens-before detector hook (``model.race``), same pattern and
    #: same equality exclusion as ``san``.
    race: "object | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.npages * self.page_size)
        elif len(self.data) != self.npages * self.page_size:
            raise ValueError("frame data does not match extent geometry")

    @property
    def is_dirty(self) -> bool:
        return self.dirty_to > self.dirty_from

    @property
    def dirty_pages(self) -> int:
        return self.dirty_to - self.dirty_from

    def mark_dirty(self, first_page: int, last_page: int) -> None:
        """Extend the dirty range to cover pages [first_page, last_page)."""
        if not (0 <= first_page < last_page <= self.npages):
            raise ValueError(
                f"dirty range [{first_page}, {last_page}) outside extent "
                f"of {self.npages} pages")
        if self.is_dirty:
            self.dirty_from = min(self.dirty_from, first_page)
            self.dirty_to = max(self.dirty_to, last_page)
        else:
            self.dirty_from, self.dirty_to = first_page, last_page

    def clean(self) -> None:
        self.dirty_from = self.dirty_to = 0

    def dirty_slice(self) -> bytes:
        """The bytes of the dirty page range (what a flush writes)."""
        ps = self.page_size
        # One copy: a memoryview slice is free, ``tobytes`` snapshots it.
        return memoryview(self.data)[self.dirty_from * ps:
                                     self.dirty_to * ps].tobytes()

    def write_at(self, offset: int, payload: bytes) -> None:
        """Copy ``payload`` into the extent and dirty the touched pages."""
        if self.san is not None:
            self.san.on_frame_write(self)
        if self.race is not None:
            self.race.on_write(("frame", self.head_pid))
        end = offset + len(payload)
        if end > len(self.data):
            raise ValueError("write beyond extent capacity")
        self.data[offset:end] = payload
        ps = self.page_size
        self.mark_dirty(offset // ps, (end + ps - 1) // ps)


def join_frames(frames: list[ExtentFrame], size: int) -> bytes:
    """The first ``size`` bytes of the frames' data, in one copy.

    ``join`` reads the bytearrays in place; a frame reaching past
    ``size`` contributes a memoryview cut to length.
    """
    parts: list[bytearray | memoryview] = []
    remaining = size
    for frame in frames:
        if remaining <= 0:
            break
        data = frame.data
        if len(data) > remaining:
            data = memoryview(data)[:remaining]
        parts.append(data)
        remaining -= len(data)
    return b"".join(parts)


class BlobView:
    """A BLOB presented as contiguous memory.

    For the vmcache pool this models an *aliasing area*: the frames stay
    where they are and the view is zero-copy; releasing the view triggers
    the unalias (page-table clear + TLB shootdown).  For the hash-table
    pool the view owns a materialized copy.  Either way, the application
    reads the content with exactly one explicit ``copy_to_client`` —
    matching the paper's "only one memory copy is required" argument.
    """

    def __init__(self, frames: list[ExtentFrame], size: int,
                 release: "callable | None" = None,
                 materialized: bytes | None = None) -> None:
        self._frames = frames
        self.size = size
        self._release = release
        self._materialized = materialized
        self._released = False

    def contiguous(self) -> bytes:
        """The BLOB content as one buffer (zero-copy in simulation)."""
        if self._released:
            raise RuntimeError("view used after release")
        if self._materialized is not None:
            return self._materialized
        for frame in self._frames:
            if frame.san is not None:
                frame.san.on_frame_read(frame)
            if frame.race is not None:
                frame.race.on_read(("frame", frame.head_pid))
        return join_frames(self._frames, self.size)

    def copy_to_client(self, model) -> bytes:
        """The application-side read: one memcpy of the BLOB's size."""
        data = self.contiguous()
        model.memcpy(self.size)
        return data

    def release(self) -> None:
        """Return the view (unalias / unpin); idempotent."""
        if self._released:
            return
        self._released = True
        if self._release is not None:
            self._release()

    def __enter__(self) -> "BlobView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
