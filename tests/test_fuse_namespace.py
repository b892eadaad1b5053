"""Deep-tree FUSE tests for the interval-numbered namespace.

Satellite of the adaptive-indexing PR: trees at least six levels deep,
readdir/getattr correct at every depth with and without the
accelerator, and unlink/mkdir-style churn keeping the interval
numbering consistent across crash/recovery.
"""

import errno

import pytest

from repro.db import BlobDB, EngineConfig
from repro.fuse.vfs import BlobFuse, FuseError
from repro.namespace import NamespaceIndex


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=128,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


#: A seven-component key: /tree/a/b/c/d/e/f/leaf.bin is 8 path levels.
DEEP_KEYS = [
    b"a/b/c/d/e/f/leaf%02d.bin" % i for i in range(4)
] + [
    b"a/b/c/d/e/other.txt",
    b"a/b/side/x/y/z/w/deepest.dat",
    b"a/top.txt",
    b"root.txt",
]


def deep_fs(attach=True, engine="btree"):
    db = BlobDB(small_config(index_structure=engine))
    db.create_table("tree")
    with db.transaction() as txn:
        for i, key in enumerate(DEEP_KEYS):
            db.put(txn, "tree", key, b"#" * (i + 1))
    fs = BlobFuse(db)
    if attach:
        fs.attach_namespace()
    return fs


class TestDeepTreeLookups:
    @pytest.mark.parametrize("attach", [False, True],
                             ids=["baseline", "interval"])
    def test_getattr_at_every_depth(self, attach):
        fs = deep_fs(attach)
        # Every ancestor directory of the deepest file...
        parts = "a/b/c/d/e/f".split("/")
        for depth in range(1, len(parts) + 1):
            path = "/tree/" + "/".join(parts[:depth])
            attr = fs.getattr(path)
            assert attr.is_dir, path
        # ...and the files at assorted depths.
        attr = fs.getattr("/tree/a/b/c/d/e/f/leaf00.bin")
        assert not attr.is_dir and attr.st_size == 1
        attr = fs.getattr("/tree/a/b/side/x/y/z/w/deepest.dat")
        assert not attr.is_dir and attr.st_size == 6
        assert fs.getattr("/tree/root.txt").st_size == 8

    @pytest.mark.parametrize("attach", [False, True],
                             ids=["baseline", "interval"])
    def test_readdir_at_every_depth(self, attach):
        fs = deep_fs(attach)
        assert fs.readdir("/tree") == [".", "..", "a", "root.txt"]
        assert fs.readdir("/tree/a") == [".", "..", "b", "top.txt"]
        assert fs.readdir("/tree/a/b/c/d/e") == \
            [".", "..", "f", "other.txt"]
        assert fs.readdir("/tree/a/b/c/d/e/f") == \
            [".", "..", "leaf00.bin", "leaf01.bin", "leaf02.bin",
             "leaf03.bin"]
        assert fs.readdir("/tree/a/b/side/x/y/z/w") == \
            [".", "..", "deepest.dat"]

    @pytest.mark.parametrize("attach", [False, True],
                             ids=["baseline", "interval"])
    def test_enoent_and_enotdir_at_depth(self, attach):
        fs = deep_fs(attach)
        with pytest.raises(FuseError) as e:
            fs.getattr("/tree/a/b/c/d/e/f/missing.bin")
        assert e.value.errno == errno.ENOENT
        with pytest.raises(FuseError) as e:
            fs.readdir("/tree/a/b/c/d/e/f/leaf00.bin")
        assert e.value.errno == errno.ENOTDIR
        with pytest.raises(FuseError) as e:
            fs.readdir("/tree/a/b/nope")
        assert e.value.errno == errno.ENOENT

    def test_recursive_listing_matches_baseline(self):
        baseline = deep_fs(attach=False)
        interval = deep_fs(attach=True)
        for path in ("/tree", "/tree/a", "/tree/a/b/c", "/tree/a/b/side"):
            assert interval.readdir_recursive(path) == \
                baseline.readdir_recursive(path), path
            assert interval.subtree_statfs(path) == \
                baseline.subtree_statfs(path), path

    def test_subtree_statfs_sums(self):
        fs = deep_fs(attach=True)
        totals = fs.subtree_statfs("/tree")
        assert totals["files"] == len(DEEP_KEYS)
        assert totals["bytes"] == sum(range(1, len(DEEP_KEYS) + 1))
        # Directories on the a/b/c/d/e/f spine, the side branch, and a.
        deep = fs.subtree_statfs("/tree/a/b/side")
        assert deep == {"files": 1, "dirs": 4, "bytes": 6}

    def test_learned_engine_serves_the_same_tree(self):
        btree = deep_fs(attach=True, engine="btree")
        learned = deep_fs(attach=True, engine="learned")
        assert learned.readdir_recursive("/tree") == \
            btree.readdir_recursive("/tree")
        assert learned.subtree_statfs("/tree") == \
            btree.subtree_statfs("/tree")


class TestListingPaths:
    """The accelerated ``readdir_recursive`` builds each path from its
    parent's; it must equal the per-entry ``NsNode.rel_path`` walk."""

    #: ``a`` and ``a/c`` are both a file and a directory (S3-style).
    KEYS = DEEP_KEYS + [b"a", b"a/c", b"a/c/d.txt", b"z/\xff\xfe.bin"]

    @classmethod
    def _fs(cls, attach):
        db = BlobDB(small_config())
        db.create_table("tree")
        with db.transaction() as txn:
            for i, key in enumerate(cls.KEYS):
                db.put(txn, "tree", key, b"#" * (i + 1))
        fs = BlobFuse(db)
        if attach:
            fs.attach_namespace()
        return fs

    @staticmethod
    def _rel_paths(fs, path):
        table, key = fs._split(path)
        ns = fs.ns
        root = ns._root if not table else ns.resolve(table, key or b"")
        return sorted((n.rel_path(root), not n.is_file, n.size)
                      for n in ns.iter_subtree(root))

    @staticmethod
    def _hide_below_files(entries):
        """Drop what the per-level walk cannot see: it takes a node that
        is also a file for a file and does not descend into it."""
        files = {p for p, is_dir, _ in entries if not is_dir}
        return [e for e in entries
                if not any(e[0].startswith(f + "/") for f in files)]

    PATHS = ("/", "/tree", "/tree/a/b", "/tree/a/b/c", "/tree/z")

    def test_paths_match_rel_path_and_per_level_walk(self):
        walk = self._fs(attach=False)
        fs = self._fs(attach=True)
        assert fs.ns.resolve("tree", b"a").is_file
        assert fs.ns.resolve("tree", b"a").is_dir
        for path in self.PATHS:
            got = fs.readdir_recursive(path)
            assert got == self._rel_paths(fs, path), path
            assert self._hide_below_files(got) == \
                walk.readdir_recursive(path), path
        assert ("tree/a/c/d.txt", False, len(self.KEYS) - 1) in \
            fs.readdir_recursive("/")

    def test_paths_survive_renumbering(self):
        fs = self._fs(attach=True)
        before = {path: fs.readdir_recursive(path) for path in self.PATHS}
        renumbers = fs.ns.renumbers
        fs.ns._renumber()
        assert fs.ns.renumbers == renumbers + 1
        assert fs.ns.verify() == []
        for path in self.PATHS:
            got = fs.readdir_recursive(path)
            assert got == before[path], path
            assert got == self._rel_paths(fs, path), path


class TestChurnAndRecovery:
    def test_unlink_mkdir_churn_stays_consistent(self):
        fs = deep_fs(attach=True)
        db = fs.db
        # Unlink-style churn: delete two leaves (one empties its chain
        # of directories), then mkdir-style churn: grow a new branch
        # past the six-level mark, all through committed transactions.
        with db.transaction() as txn:
            db.delete(txn, "tree", b"a/b/side/x/y/z/w/deepest.dat")
            db.delete(txn, "tree", b"a/b/c/d/e/f/leaf03.bin")
        with db.transaction() as txn:
            for i in range(40):
                db.put(txn, "tree", b"new/n1/n2/n3/n4/n5/file%03d" % i,
                       b"+" * 3)
        assert db.ns.verify() == []
        # The emptied side branch is pruned...
        with pytest.raises(FuseError):
            fs.getattr("/tree/a/b/side")
        # ...the surviving siblings are intact...
        assert fs.readdir("/tree/a/b/c/d/e/f") == \
            [".", "..", "leaf00.bin", "leaf01.bin", "leaf02.bin"]
        # ...and the new deep branch lists at every level.
        assert len(fs.readdir("/tree/new/n1/n2/n3/n4/n5")) == 42
        # Strict descendants of new/: the five nested dirs n1..n5.
        totals = fs.subtree_statfs("/tree/new")
        assert totals == {"files": 40, "dirs": 5, "bytes": 120}
        # The accelerated listing still matches a from-scratch walk.
        fresh = NamespaceIndex(db)
        root = fresh.resolve("tree")
        want = sorted(f.key for f in fresh.iter_subtree(root) if f.is_file)
        got = sorted(f.key for f in db.ns.iter_subtree(
            db.ns.resolve("tree")) if f.is_file)
        assert got == want

    def test_churn_survives_crash_recovery(self):
        fs = deep_fs(attach=True)
        db = fs.db
        with db.transaction() as txn:
            db.delete(txn, "tree", b"root.txt")
            for i in range(50):  # forces interval renumbering too
                db.put(txn, "tree", b"burst/d/e/f/g/h/f%04d" % i, b"b")
        before = fs.readdir_recursive("/tree")
        assert db.ns.renumbers >= 0
        assert db.ns.verify() == []
        device = db.crash()
        assert db.ns is None
        db2 = BlobDB.recover(device, small_config())
        fs2 = BlobFuse(db2)
        fs2.attach_namespace()
        assert db2.ns.verify() == []
        assert fs2.readdir_recursive("/tree") == before
        with pytest.raises(FuseError) as e:
            fs2.getattr("/tree/root.txt")
        assert e.value.errno == errno.ENOENT

    def test_aborted_churn_invisible_at_depth(self):
        fs = deep_fs(attach=True)
        db = fs.db
        txn = db.begin()
        db.put(txn, "tree", b"ghost/1/2/3/4/5/6/spooky", b"boo")
        db.delete(txn, "tree", b"a/top.txt")
        db.abort(txn)
        with pytest.raises(FuseError):
            fs.getattr("/tree/ghost")
        assert fs.getattr("/tree/a/top.txt").st_size == 7
        assert db.ns.verify() == []
