"""Tests for the FUSE VFS and the POSIX mount facade (Section III-E)."""

import errno
import io

import pytest

from repro.db import BlobDB, EngineConfig
from repro.fuse import BlobFuse, FuseError, FuseMount


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=128,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


@pytest.fixture
def db():
    database = BlobDB(small_config())
    database.create_table("image")
    database.create_table("document")
    with database.transaction() as txn:
        database.put_blob(txn, "image", b"cat.jpg", b"\xff\xd8meow" * 1000)
        database.put_blob(txn, "image", b"dog.jpg", b"\xff\xd8woof")
        database.put_blob(txn, "document", b"a.txt", b"hello world")
    return database


@pytest.fixture
def fuse(db):
    return BlobFuse(db)


class TestGetattr:
    def test_file_attributes(self, fuse):
        attr = fuse.getattr("/image/cat.jpg")
        assert not attr.is_dir
        assert attr.st_size == len(b"\xff\xd8meow" * 1000)

    def test_file_is_read_only(self, fuse):
        attr = fuse.getattr("/image/cat.jpg")
        assert attr.st_mode & 0o222 == 0  # no write bits

    def test_table_is_directory(self, fuse):
        assert fuse.getattr("/image").is_dir

    def test_root_is_directory(self, fuse):
        assert fuse.getattr("/").is_dir

    def test_missing_file_enoent(self, fuse):
        with pytest.raises(FuseError) as exc:
            fuse.getattr("/image/missing.jpg")
        assert exc.value.errno == errno.ENOENT

    def test_missing_table_enoent(self, fuse):
        with pytest.raises(FuseError) as exc:
            fuse.getattr("/nope")
        assert exc.value.errno == errno.ENOENT

    def test_deep_path_enoent(self, fuse):
        with pytest.raises(FuseError):
            fuse.getattr("/image/sub/dir.jpg")


class TestReaddir:
    def test_root_lists_tables(self, fuse):
        entries = fuse.readdir("/")
        assert "image" in entries and "document" in entries

    def test_table_lists_files(self, fuse):
        entries = fuse.readdir("/image")
        assert "cat.jpg" in entries and "dog.jpg" in entries

    def test_readdir_on_file_raises(self, fuse):
        with pytest.raises(FuseError) as exc:
            fuse.readdir("/image/cat.jpg")
        assert exc.value.errno == errno.ENOTDIR


class TestOpenReadClose:
    def test_read_full_file(self, fuse):
        fh = fuse.open("/document/a.txt")
        assert fuse.read(fh, 1024, 0) == b"hello world"
        fuse.release(fh)

    def test_pread_with_offset(self, fuse):
        fh = fuse.open("/document/a.txt")
        assert fuse.read(fh, 5, 6) == b"world"
        fuse.release(fh)

    def test_read_past_eof_returns_empty(self, fuse):
        fh = fuse.open("/document/a.txt")
        assert fuse.read(fh, 10, 100) == b""
        fuse.release(fh)

    def test_read_clamps_size_listing1(self, fuse):
        """Listing 1: size = min(size, state->size - offset)."""
        fh = fuse.open("/document/a.txt")
        assert fuse.read(fh, 1000, 8) == b"rld"
        fuse.release(fh)

    def test_open_starts_transaction_release_commits(self, fuse, db):
        fh = fuse.open("/document/a.txt")
        assert len(db._active) == 1
        fuse.release(fh)
        assert len(db._active) == 0

    def test_open_missing_file(self, fuse):
        with pytest.raises(FuseError) as exc:
            fuse.open("/document/missing")
        assert exc.value.errno == errno.ENOENT

    def test_open_missing_aborts_transaction(self, fuse, db):
        with pytest.raises(FuseError):
            fuse.open("/document/missing")
        assert len(db._active) == 0

    def test_open_directory_eisdir(self, fuse):
        with pytest.raises(FuseError) as exc:
            fuse.open("/image")
        assert exc.value.errno == errno.EISDIR

    def test_bad_handle_ebadf(self, fuse):
        with pytest.raises(FuseError) as exc:
            fuse.read(999, 10, 0)
        assert exc.value.errno == errno.EBADF

    @pytest.mark.parametrize("size, offset", [(10, -1), (-1, 0), (-5, -5)])
    def test_negative_offset_or_size_einval(self, fuse, size, offset):
        """Like pread(2): EINVAL, not a bare ValueError from below."""
        fh = fuse.open("/document/a.txt")
        with pytest.raises(FuseError) as exc:
            fuse.read(fh, size, offset)
        assert exc.value.errno == errno.EINVAL
        assert fuse.read(fh, 5, 6) == b"world"  # the handle stays usable
        fuse.release(fh)

    def test_read_charges_syscall_lookup_and_range_copy(self):
        """A valid read costs one ``pread`` upcall, one Blob State lookup
        and the bounded copy-out; a rejected one only the upcall."""
        def build():
            database = BlobDB(small_config())
            database.create_table("image")
            with database.transaction() as txn:
                database.put_blob(txn, "image", b"cat.jpg",
                                  b"\xff\xd8meow" * 1000)
            fs = BlobFuse(database)
            return database, fs, fs.open("/image/cat.jpg")

        db, fs, fh = build()
        twin, twin_fs, twin_fh = build()
        assert db.model.clock.now_ns == twin.model.clock.now_ns
        assert fs.read(fh, 3000, 1234) == (b"\xff\xd8meow" * 1000)[1234:4234]
        model = twin.model
        model.syscall("pread")
        txn, table, key = twin_fs._handles[twin_fh]
        twin.blobs.read_range(twin.get_state(table, key, txn), 1234, 3000)
        assert db.model.clock.now_ns == model.clock.now_ns
        assert db.model.counters == model.counters
        with pytest.raises(FuseError):
            fs.read(fh, 10, -1)
        model.syscall("pread")
        assert db.model.clock.now_ns == model.clock.now_ns
        assert db.model.counters == model.counters

    def test_flush_then_release(self, fuse):
        fh = fuse.open("/document/a.txt")
        fuse.flush(fh)
        fuse.release(fh)  # must not double-commit

    def test_write_operations_erofs(self, fuse):
        fh = fuse.open("/document/a.txt")
        for call in (lambda: fuse.open("/document/a.txt", write=True),
                     lambda: fuse.write(fh, b"x", 0),
                     lambda: fuse.truncate("/document/a.txt", 0),
                     lambda: fuse.unlink("/document/a.txt"),
                     lambda: fuse.mkdir("/newdir")):
            with pytest.raises(FuseError) as exc:
                call()
            assert exc.value.errno == errno.EROFS
        fuse.release(fh)

    def test_reads_in_one_open_are_consistent(self, fuse, db):
        """The wrapping transaction isolates the reader from writers."""
        fh = fuse.open("/document/a.txt")
        first = fuse.read(fh, 5, 0)
        # A concurrent writer now conflicts on the lock (2PL no-wait).
        from repro.db.errors import TransactionConflict
        writer = db.begin()
        with pytest.raises(TransactionConflict):
            db.delete_blob(writer, "document", b"a.txt")
        db.abort(writer)
        assert fuse.read(fh, 5, 0) == first
        fuse.release(fh)


class TestFuseMount:
    def test_open_read_close_like_a_file(self, db):
        mount = FuseMount(db)
        with mount.open("/image/dog.jpg") as f:
            assert f.read() == b"\xff\xd8woof"

    def test_mountpoint_prefix_stripped(self, db):
        mount = FuseMount(db, mountpoint="/mnt/blobdb")
        assert mount.read_bytes("/mnt/blobdb/image/dog.jpg") == b"\xff\xd8woof"

    def test_seek_and_tell(self, db):
        mount = FuseMount(db)
        with mount.open("/document/a.txt") as f:
            f.seek(6)
            assert f.tell() == 6
            assert f.read(5) == b"world"
            f.seek(-5, io.SEEK_END)
            assert f.read() == b"world"
            f.seek(0)
            f.seek(2, io.SEEK_CUR)
            assert f.read(3) == b"llo"

    def test_incremental_reads_advance_position(self, db):
        mount = FuseMount(db)
        with mount.open("/document/a.txt") as f:
            assert f.read(5) == b"hello"
            assert f.read(1) == b" "
            assert f.read() == b"world"

    def test_write_mode_rejected(self, db):
        mount = FuseMount(db)
        with pytest.raises(OSError):
            mount.open("/image/cat.jpg", mode="wb")

    def test_write_call_rejected(self, db):
        mount = FuseMount(db)
        with mount.open("/document/a.txt") as f:
            with pytest.raises(OSError):
                f.write(b"nope")

    def test_closed_file_rejects_io(self, db):
        mount = FuseMount(db)
        f = mount.open("/document/a.txt")
        f.close()
        with pytest.raises(ValueError):
            f.read()

    def test_listdir_and_walk(self, db):
        mount = FuseMount(db)
        assert sorted(mount.listdir("/")) == ["document", "image"]
        assert sorted(mount.listdir("/image")) == [b"cat.jpg".decode(),
                                                   "dog.jpg"]
        walked = dict(mount.walk())
        assert "cat.jpg" in walked["image"]

    def test_stat_and_exists(self, db):
        mount = FuseMount(db)
        assert mount.stat("/document/a.txt").st_size == 11
        assert mount.exists("/document/a.txt")
        assert not mount.exists("/document/missing.txt")

    def test_unmodified_consumer_code(self, db):
        """A 'third party' function written for real files works as-is."""
        def count_words(fileobj) -> int:
            return len(fileobj.read().split())

        mount = FuseMount(db)
        with mount.open("/document/a.txt") as f:
            assert count_words(f) == 2

    def test_file_is_buffered_readable(self, db):
        """DbFile integrates with io.BufferedReader like any raw file."""
        mount = FuseMount(db)
        raw = mount.open("/document/a.txt")
        buffered = io.BufferedReader(raw)
        assert buffered.read(5) == b"hello"
        buffered.close()
