"""The FUSE operation set over a :class:`~repro.db.database.BlobDB`.

Paths follow the paper's "relation as a directory" scheme: with a mount
point ``/foo/bar``, the BLOB stored in relation ``image`` under key
``cat.jpg`` appears as ``/foo/bar/image/cat.jpg``.
"""

from __future__ import annotations

import errno
import stat as stat_module
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.blob_state import BlobState
from repro.db.database import BlobDB
from repro.db.errors import KeyNotFoundError, TableNotFoundError
from repro.db.transaction import Transaction, TxnStatus

if TYPE_CHECKING:
    from repro.namespace.intervals import NsNode


class FuseError(OSError):
    """Raised by FUSE operations; carries the errno (like fusepy)."""

    def __init__(self, errno_code: int) -> None:
        super().__init__(errno_code, errno.errorcode.get(errno_code, "?"))
        self.errno = errno_code


@dataclass(frozen=True)
class FileAttr:
    """Subset of ``struct stat`` that ``getattr`` fills."""

    st_mode: int
    st_size: int
    st_nlink: int = 1

    @property
    def is_dir(self) -> bool:
        return stat_module.S_ISDIR(self.st_mode)


_DIR_MODE = stat_module.S_IFDIR | 0o555
#: BLOBs are exposed strictly read-only (Section III-E).
_FILE_MODE = stat_module.S_IFREG | 0o444


def _prefix_end(prefix: bytes) -> bytes | None:
    """Smallest key greater than every key starting with ``prefix``."""
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] != 0xFF:
            return prefix[:i] + bytes([prefix[i] + 1])
    return None


class BlobFuse:
    """In-process implementation of the FUSE operations.

    Keys containing ``/`` appear as nested directories, so the mount
    shows arbitrarily deep trees.  Recursive operations
    (:meth:`readdir_recursive`, :meth:`subtree_statfs`) run as **one**
    interval range scan when a namespace accelerator is attached
    (:meth:`attach_namespace`), and as classic per-level
    ``readdir``+``getattr`` walks otherwise.
    """

    def __init__(self, db: BlobDB) -> None:
        self.db = db
        self._handles: dict[int, tuple[Transaction, str, bytes]] = {}
        self._next_fh = 1

    @property
    def ns(self):
        return self.db.ns

    def attach_namespace(self):
        """Build (or reuse) the interval-numbered namespace accelerator."""
        if self.db.ns is None:
            from repro.namespace import NamespaceIndex
            NamespaceIndex.build(self.db)
        return self.db.ns

    # -- path handling -----------------------------------------------------

    @staticmethod
    def _split(path: str) -> tuple[str, bytes | None]:
        """``/image/cat.jpg`` -> ``("image", b"cat.jpg")``.

        The paper's ``ExtractRelationAndFileName``; deeper paths map
        their remaining components into the ``/``-separated key.
        """
        parts = [p for p in path.split("/") if p]
        if not parts:
            return "", None
        if len(parts) == 1:
            return parts[0], None
        # ``surrogateescape`` inverts the decoding listings use, so a
        # listed non-UTF-8 name resolves back to its key.
        return parts[0], "/".join(parts[1:]).encode("utf-8",
                                                    "surrogateescape")

    def _state(self, table: str, key: bytes,
               txn: Transaction | None = None) -> BlobState:
        try:
            return self.db.get_state(table, key, txn)
        except (KeyNotFoundError, TableNotFoundError):
            raise FuseError(errno.ENOENT) from None
        except TypeError:
            raise FuseError(errno.EINVAL) from None

    # -- FUSE operations ------------------------------------------------------

    def getattr(self, path: str) -> FileAttr:
        """Point query for the Blob State; size comes from the metadata."""
        self.db.model.syscall("generic")  # FUSE upcall dispatch
        table, key = self._split(path)
        if not table:
            return FileAttr(st_mode=_DIR_MODE, st_size=0, st_nlink=2)
        if not self.db.has_table(table):
            raise FuseError(errno.ENOENT)
        if key is None:
            return FileAttr(st_mode=_DIR_MODE, st_size=0, st_nlink=2)
        value = self.db._table(table).lookup(key)
        if value is not None:
            size = value.size if isinstance(value, BlobState) else len(value)
            return FileAttr(st_mode=_FILE_MODE, st_size=size)
        if self._is_dir(table, key):
            return FileAttr(st_mode=_DIR_MODE, st_size=0, st_nlink=2)
        raise FuseError(errno.ENOENT)

    def _is_dir(self, table: str, key: bytes) -> bool:
        """Is ``key`` an implicit directory (some key nests below it)?"""
        if self.ns is not None:
            node = self.ns.resolve(table, key)
            return node is not None and node.is_dir
        prefix = key + b"/"
        for _ in self.db.scan(table, start=prefix, end=_prefix_end(prefix)):
            return True
        return False

    def readdir(self, path: str) -> list[str]:
        self.db.model.syscall("readdir")
        table, key = self._split(path)
        if not table:
            return [".", ".."] + self.db.list_tables()
        if not self.db.has_table(table):
            raise FuseError(errno.ENOENT)
        if key is not None:
            if self.db.exists(table, key):
                raise FuseError(errno.ENOTDIR)
            if not self._is_dir(table, key):
                raise FuseError(errno.ENOENT)
        return [".", ".."] + self._child_names(table, key)

    def _child_names(self, table: str, key: bytes | None) -> list[str]:
        """Immediate children of a directory, sorted."""
        if self.ns is not None:
            node = self.ns.resolve(table, key or b"")
            return sorted(node.children) if node is not None else []
        prefix = b"" if key is None else key + b"/"
        names: set[str] = set()
        for k, _ in self.db.scan(table, start=prefix or None,
                                 end=_prefix_end(prefix)):
            if k.startswith(b"\x00"):
                continue
            head = k[len(prefix):].split(b"/", 1)[0]
            names.add(head.decode("utf-8", "surrogateescape"))
        return sorted(names)

    def readdir_recursive(self, path: str) -> list[tuple[str, bool, int]]:
        """``readdir -R``: every entry under ``path`` as
        ``(relative_path, is_dir, size)``, sorted by path.

        With the namespace accelerator this is **one** range scan over
        the interval index; without it, the classic decomposition — one
        ``readdir`` per directory plus one ``getattr`` per entry.
        """
        self.db.model.syscall("readdir")
        table, key = self._split(path)
        if table and not self.db.has_table(table):
            raise FuseError(errno.ENOENT)
        if table and key is not None and self.db.exists(table, key):
            raise FuseError(errno.ENOTDIR)
        if self.ns is not None:
            root = self.ns._root if not table \
                else self.ns.resolve(table, key or b"")
            if root is None:
                if key is None:  # existing but empty table
                    return []
                raise FuseError(errno.ENOENT)
            # The scan yields every node after its parent, so each path
            # is its parent's path plus one name.
            paths: dict[NsNode, str] = {}
            entries = []
            for n in self.ns.subtree(root):
                rel = n.name if n.parent is root \
                    else paths[n.parent] + "/" + n.name
                paths[n] = rel
                entries.append((rel, not n.is_file, n.size))
            return sorted(entries)
        out: list[tuple[str, bool, int]] = []
        base = "/" + path.strip("/") if path.strip("/") else ""
        stack = [""]
        while stack:
            rel = stack.pop()
            dpath = (base + "/" + rel).rstrip("/") or "/"
            for name in self.readdir(dpath)[2:]:
                crel = f"{rel}/{name}" if rel else name
                attr = self.getattr(f"{dpath.rstrip('/')}/{name}")
                if attr.is_dir:
                    out.append((crel, True, 0))
                    stack.append(crel)
                else:
                    out.append((crel, False, attr.st_size))
        return sorted(out)

    def subtree_statfs(self, path: str) -> dict[str, int]:
        """File/directory/byte totals under ``path``.

        One interval range scan with the accelerator; a full per-level
        walk without it.
        """
        self.db.model.syscall("generic")
        table, key = self._split(path)
        if self.ns is not None:
            root = self.ns._root if not table \
                else self.ns.resolve(table, key or b"")
            if root is None:
                if table and table in self.db.list_tables() and key is None:
                    return {"files": 0, "dirs": 0, "bytes": 0}
                raise FuseError(errno.ENOENT)
            return self.ns.subtree_stats(root)
        files = dirs = total = 0
        for _, is_dir, size in self.readdir_recursive(path):
            if is_dir:
                dirs += 1
            else:
                files += 1
                total += size
        return {"files": files, "dirs": dirs, "bytes": total}

    def open(self, path: str, write: bool = False) -> int:
        """``open()``: starts the wrapping transaction (Listing 1)."""
        self.db.model.syscall("open")
        if write:
            raise FuseError(errno.EROFS)
        table, key = self._split(path)
        if key is None:
            raise FuseError(errno.EISDIR)
        txn = self.db.begin()
        try:
            self._state(table, key, txn)
        except FuseError:
            self.db.abort(txn)
            raise
        fh = self._next_fh
        self._next_fh += 1
        self._handles[fh] = (txn, table, key)
        return fh

    def read(self, fh: int, size: int, offset: int) -> bytes:
        """``pread()``: Blob State lookup, then a bounded copy-out.

        Only the extents overlapping ``[offset, offset+size)`` are
        loaded — a small read from a huge file stays cheap (Listing 1's
        size clamp, taken to the buffer manager).
        """
        self.db.model.syscall("pread")
        if offset < 0 or size < 0:
            raise FuseError(errno.EINVAL)
        txn, table, key = self._resolve(fh)
        state = self._state(table, key, txn)
        if offset >= state.size:
            return b""
        size = min(size, state.size - offset)
        return self.db.blobs.read_range(state, offset, size)

    def flush(self, fh: int) -> None:
        """``close()`` triggers flush: commit the wrapping transaction."""
        txn, _, _ = self._resolve(fh)
        if txn.status is TxnStatus.ACTIVE:
            self.db.commit(txn)

    def release(self, fh: int) -> None:
        self.db.model.syscall("close")
        txn, _, _ = self._handles.pop(fh, (None, None, None))
        if txn is not None:
            if txn.status is TxnStatus.ACTIVE:
                self.db.commit(txn)

    def _resolve(self, fh: int) -> tuple[Transaction, str, bytes]:
        try:
            return self._handles[fh]
        except KeyError:
            raise FuseError(errno.EBADF) from None

    # -- extended attributes / filesystem stats ---------------------------------

    #: xattr names exposed per file (all served from the Blob State).
    XATTRS = ("user.sha256", "user.size", "user.extents")

    def getxattr(self, path: str, name: str) -> bytes:
        """Expose Blob State metadata as extended attributes.

        ``user.sha256`` gives external tools a free content digest —
        e.g. a backup program can skip unchanged files without reading
        them.
        """
        self.db.model.syscall("generic")
        table, key = self._split(path)
        if key is None:
            raise FuseError(errno.ENODATA)
        state = self._state(table, key)
        if name == "user.sha256":
            return state.sha256.hex().encode()
        if name == "user.size":
            return str(state.size).encode()
        if name == "user.extents":
            return str(state.num_extents
                       + (1 if state.tail_extent else 0)).encode()
        raise FuseError(errno.ENODATA)

    def listxattr(self, path: str) -> list[str]:
        self.db.model.syscall("generic")
        table, key = self._split(path)
        if key is None:
            return []
        self._state(table, key)
        return list(self.XATTRS)

    def statfs(self, path: str = "/") -> dict:
        """``statvfs``: capacity figures from the extent allocator."""
        self.db.model.syscall("generic")
        alloc = self.db.allocator
        bsize = self.db.config.page_size
        total = alloc.capacity_pages
        used = alloc.allocated_pages
        return {
            "f_bsize": bsize,
            "f_blocks": total,
            "f_bfree": total - used,
            "f_bavail": total - used,
            "f_files": sum(self.db.table_size(t)
                           for t in self.db.list_tables()),
        }

    # -- write-path operations all refuse (read-only exposure) -----------------

    def write(self, fh: int, data: bytes, offset: int) -> int:
        raise FuseError(errno.EROFS)

    def truncate(self, path: str, length: int) -> None:
        raise FuseError(errno.EROFS)

    def unlink(self, path: str) -> None:
        raise FuseError(errno.EROFS)

    def mkdir(self, path: str) -> None:
        raise FuseError(errno.EROFS)
