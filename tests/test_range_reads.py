"""Tests for partial (pread-style) BLOB reads."""

import pytest

from repro.db import BlobDB, EngineConfig
from repro.fuse import BlobFuse


def small_config(**overrides):
    defaults = dict(device_pages=65536, wal_pages=1024, catalog_pages=256,
                    buffer_pool_pages=16384)
    defaults.update(overrides)
    return EngineConfig(**defaults)


@pytest.fixture
def db():
    database = BlobDB(small_config())
    database.create_table("t")
    return database


def striped(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


class TestReadRange:
    def test_range_matches_slice(self, db):
        payload = striped(500_000)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", payload)
        for offset, length in ((0, 10), (4096, 4096), (123_456, 77_777),
                               (499_990, 100), (0, 500_000)):
            assert db.read_blob_range("t", b"k", offset, length) == \
                payload[offset:offset + length]

    def test_range_clamps_at_eof(self, db):
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"0123456789")
        assert db.read_blob_range("t", b"k", 8, 100) == b"89"
        assert db.read_blob_range("t", b"k", 100, 10) == b""
        assert db.read_blob_range("t", b"k", 0, 0) == b""

    def test_negative_arguments_rejected(self, db):
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"x")
        with pytest.raises(ValueError):
            db.read_blob_range("t", b"k", -1, 5)
        with pytest.raises(ValueError):
            db.read_blob_range("t", b"k", 0, -5)

    def test_small_read_touches_only_overlapping_extents(self, db):
        """The point: a 4 KB read of a 40 MB BLOB must not load 40 MB."""
        payload = striped(40 * 1024 * 1024)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"big", payload)
        db.pool.drop_all_volatile()  # cold pool
        before = db.device.stats.bytes_read
        got = db.read_blob_range("t", b"big", 20 * 1024 * 1024, 4096)
        assert got == payload[20 * 1024 * 1024:20 * 1024 * 1024 + 4096]
        read = db.device.stats.bytes_read - before
        # One mid-sequence extent, not the whole BLOB.
        assert read < 40 * 1024 * 1024 / 2
        assert read >= 4096

    def test_range_spanning_extent_boundary(self, db):
        payload = striped(100_000)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", payload)
        # 12288 is the tier-0/1|2 boundary region for 4 KiB pages.
        assert db.read_blob_range("t", b"k", 12_000, 2000) == \
            payload[12_000:14_000]

    def test_range_read_leaves_no_buffer_exports(self, db):
        """The copy-out reads frames through memoryviews; none may stay
        exported, or the pool could not resize or drop a frame."""
        payload = striped(100_000)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", payload)
        state = db.get_state("t", b"k")
        got = db.blobs.read_range(state, 3_000, 60_000)
        assert type(got) is bytes
        assert got == payload[3_000:63_000]
        frames, logical = [], 0
        for pid, npages in state.page_ranges(db.blobs.tiers):
            if logical < 63_000 and logical + npages * 4096 > 3_000:
                frames.append(db.pool._frames[pid])
            logical += npages * 4096
        assert len(frames) >= 3  # the read crossed extent boundaries
        # Resizing an exported bytearray raises BufferError.
        for frame in frames:
            frame.data.append(0)
            del frame.data[-1]
        assert db.blobs.read_range(state, 3_000, 60_000) == got
        for frame in frames:
            frame.data.clear()

    def test_range_on_tail_extent_blob(self, db):
        payload = striped(6 * 4096)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", payload, use_tail=True)
        assert db.read_blob_range("t", b"k", 5 * 4096, 4096) == \
            payload[5 * 4096:]


class TestFuseRangedReads:
    def test_fuse_read_is_partial(self, db):
        payload = striped(8 * 1024 * 1024)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"huge.bin", payload)
        db.pool.drop_all_volatile()
        fuse = BlobFuse(db)
        fh = fuse.open("/t/huge.bin")
        before = db.device.stats.bytes_read
        assert fuse.read(fh, 4096, 1_000_000) == \
            payload[1_000_000:1_004_096]
        assert db.device.stats.bytes_read - before < len(payload) / 2
        fuse.release(fh)

    def test_sequential_file_consumption_still_correct(self, db):
        from repro.fuse import FuseMount
        payload = striped(300_000)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"f", payload)
        mount = FuseMount(db)
        with mount.open("/t/f") as f:
            chunks = []
            while chunk := f.read(65536):
                chunks.append(chunk)
        assert b"".join(chunks) == payload
