"""Tests for the byte-budgeted prefix-compressed B-Tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BTree
from repro.btree.btree import bytes_cmp
from repro.sim.cost import CostModel


def key(i: int) -> bytes:
    return f"key-{i:08d}".encode()


class TestBasicOperations:
    def test_empty_lookup(self):
        assert BTree().lookup(b"missing") is None

    def test_insert_lookup_roundtrip(self):
        tree = BTree()
        tree.insert(b"alpha", 1)
        tree.insert(b"beta", 2)
        assert tree.lookup(b"alpha") == 1
        assert tree.lookup(b"beta") == 2
        assert tree.lookup(b"gamma") is None

    def test_insert_replaces_existing(self):
        tree = BTree()
        tree.insert(b"k", "old")
        tree.insert(b"k", "new")
        assert tree.lookup(b"k") == "new"
        assert len(tree) == 1

    def test_contains(self):
        tree = BTree()
        tree.insert(b"x", 0)
        assert b"x" in tree
        assert b"y" not in tree

    def test_len_tracks_unique_keys(self):
        tree = BTree()
        for i in range(100):
            tree.insert(key(i), i)
        assert len(tree) == 100

    def test_many_inserts_split_and_stay_searchable(self):
        tree = BTree(node_bytes=256)
        n = 2000
        order = list(range(n))
        random.Random(7).shuffle(order)
        for i in order:
            tree.insert(key(i), i * 10)
        for i in range(n):
            assert tree.lookup(key(i)) == i * 10
        assert tree.stats().height > 1

    def test_first(self):
        tree = BTree()
        assert tree.first() is None
        for i in (5, 3, 9):
            tree.insert(key(i), i)
        assert tree.first() == (key(3), 3)


class TestDelete:
    def test_delete_present(self):
        tree = BTree()
        tree.insert(b"k", 1)
        assert tree.delete(b"k") is True
        assert tree.lookup(b"k") is None
        assert len(tree) == 0

    def test_delete_absent(self):
        tree = BTree()
        tree.insert(b"k", 1)
        assert tree.delete(b"zzz") is False
        assert len(tree) == 1

    def test_delete_all_from_deep_tree(self):
        tree = BTree(node_bytes=128)
        n = 500
        for i in range(n):
            tree.insert(key(i), i)
        order = list(range(n))
        random.Random(3).shuffle(order)
        for i in order:
            assert tree.delete(key(i)) is True
        assert len(tree) == 0
        for i in range(n):
            assert tree.lookup(key(i)) is None

    def test_interleaved_insert_delete(self):
        tree = BTree(node_bytes=256)
        shadow = {}
        rng = random.Random(11)
        for _ in range(3000):
            i = rng.randrange(200)
            if rng.random() < 0.6:
                tree.insert(key(i), i)
                shadow[key(i)] = i
            else:
                assert tree.delete(key(i)) == (key(i) in shadow)
                shadow.pop(key(i), None)
        assert len(tree) == len(shadow)
        for k, v in shadow.items():
            assert tree.lookup(k) == v


class TestScan:
    def test_full_scan_is_sorted(self):
        tree = BTree(node_bytes=256)
        items = {key(i): i for i in range(300)}
        for k, v in sorted(items.items(), reverse=True):
            tree.insert(k, v)
        scanned = list(tree.scan())
        assert scanned == sorted(items.items())

    def test_range_scan_half_open(self):
        tree = BTree(node_bytes=256)
        for i in range(100):
            tree.insert(key(i), i)
        got = [v for _, v in tree.scan(start=key(10), end=key(20))]
        assert got == list(range(10, 20))

    def test_scan_from_start_key_missing(self):
        tree = BTree()
        for i in (0, 2, 4, 6):
            tree.insert(key(i), i)
        got = [v for _, v in tree.scan(start=key(1), end=key(5))]
        assert got == [2, 4]

    def test_scan_empty_tree(self):
        assert list(BTree().scan()) == []


class TestCustomComparator:
    def test_reverse_order_comparator(self):
        tree = BTree(cmp=lambda a, b: (a < b) - (a > b),
                     key_size=lambda k: 8)
        for i in range(50):
            tree.insert(i, i)
        keys = [k for k, _ in tree.scan()]
        assert keys == list(range(49, -1, -1))

    def test_object_keys_with_size_function(self):
        tree = BTree(cmp=lambda a, b: (a > b) - (a < b),
                     key_size=lambda k: 100, node_bytes=512)
        for i in range(100):
            tree.insert(i, str(i))
        assert tree.lookup(42) == "42"
        assert tree.stats().leaf_count > 1


class TestStatsAndCompression:
    def test_stats_counts(self):
        tree = BTree(node_bytes=256)
        for i in range(500):
            tree.insert(key(i), i)
        stats = tree.stats()
        assert stats.entry_count == 500
        assert stats.leaf_count > 1
        assert stats.inner_count >= 1
        assert stats.height >= 2
        assert stats.size_bytes > 0

    def test_prefix_compression_shrinks_shared_prefix_keys(self):
        """Keys sharing a long prefix should use far fewer leaf bytes."""
        shared = BTree(node_bytes=4096)
        distinct = BTree(node_bytes=4096)
        prefix = b"p" * 64
        for i in range(200):
            shared.insert(prefix + key(i), i)
            distinct.insert(random.Random(i).randbytes(64) + key(i), i)
        assert shared.stats().leaf_key_bytes < distinct.stats().leaf_key_bytes * 0.6

    def test_byte_budget_drives_leaf_count(self):
        """Bigger keys -> more leaves for the same entry count."""
        small = BTree(node_bytes=4096)
        big = BTree(node_bytes=4096)
        for i in range(300):
            small.insert(key(i), None)
            big.insert(key(i) + bytes(1000 + (i % 7)), None)
        assert big.stats().leaf_count > small.stats().leaf_count * 5

    def test_cost_model_charged_per_node_visit(self):
        model = CostModel()
        tree = BTree(node_bytes=256, model=model)
        for i in range(200):
            tree.insert(key(i), i)
        before = model.clock.now_ns
        tree.lookup(key(100))
        visits = (model.clock.now_ns - before) / model.params.btree_node_ns
        assert visits == pytest.approx(tree.stats().height, abs=1)

    def test_rejects_tiny_node_bytes(self):
        with pytest.raises(ValueError):
            BTree(node_bytes=16)


class TestPropertyBased:
    @given(st.dictionaries(st.binary(min_size=1, max_size=24),
                           st.integers(), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_semantics(self, items):
        tree = BTree(node_bytes=256)
        for k, v in items.items():
            tree.insert(k, v)
        assert len(tree) == len(items)
        for k, v in items.items():
            assert tree.lookup(k) == v
        assert [k for k, _ in tree.scan()] == sorted(items)

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1,
                    max_size=120, unique=True),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_delete_subset_preserves_rest(self, keys, data):
        tree = BTree(node_bytes=256)
        for k in keys:
            tree.insert(k, k)
        to_delete = data.draw(st.lists(st.sampled_from(keys), unique=True))
        for k in to_delete:
            assert tree.delete(k)
        remaining = set(keys) - set(to_delete)
        assert len(tree) == len(remaining)
        for k in remaining:
            assert tree.lookup(k) == k
        for k in to_delete:
            assert tree.lookup(k) is None

    @given(st.lists(st.tuples(st.booleans(),
                              st.binary(min_size=1, max_size=12)),
                    max_size=300),
           st.sampled_from([None, lambda k: 3 * len(k) + 1]))
    @settings(max_examples=60, deadline=None)
    def test_leaf_byte_counters_match_full_recount(self, ops, key_size):
        """Per-leaf key-byte counters survive insert/delete/split streams."""
        tree = BTree(key_size=key_size, node_bytes=128)
        size = key_size or len
        for is_insert, k in ops:
            if is_insert:
                tree.insert(k, k)
            else:
                tree.delete(k)
        leaves = inners = leaf_bytes = inner_bytes = 0
        stack = [tree._root]
        while stack:
            node = stack.pop()
            if node.children:
                inners += 1
                inner_bytes += sum(size(k) for k in node.keys) \
                    + len(node.children) * 16
                stack.extend(node.children)
                continue
            leaves += 1
            recount = sum(size(k) for k in node.keys)
            assert node.kbytes == recount
            n = len(node.keys)
            expected = 0 if n == 0 else recount + n * 16 \
                - tree._node_prefix_len(node) * (n - 1)
            assert tree._leaf_bytes(node) == expected
            leaf_bytes += expected
        stats = tree.stats()
        assert (stats.leaf_count, stats.inner_count) == (leaves, inners)
        assert stats.leaf_key_bytes == leaf_bytes
        assert stats.inner_key_bytes == inner_bytes
        assert stats.size_bytes == leaf_bytes + inner_bytes \
            + (leaves + inners) * 32


def _recursive_scan(tree, node, start, end):
    """The recursive scan the iterative one replaced, as a reference
    for the order of node charges."""
    tree._visit(node)
    if node.is_leaf:
        idx = 0 if start is None else tree._lower_bound(node.keys, start)
        for i in range(idx, len(node.keys)):
            if end is not None and bytes_cmp(node.keys[i], end) >= 0:
                return
            yield node.keys[i], node.values[i]
        return
    ci = 0 if start is None else tree._child_index(node, start)
    for i in range(ci, len(node.children)):
        if i > ci and end is not None and \
                bytes_cmp(node.keys[i - 1], end) >= 0:
            return
        yield from _recursive_scan(tree, node.children[i],
                                   start if i == ci else None, end)


_short_keys = st.binary(min_size=0, max_size=4).map(
    lambda b: bytes(c % 4 + 0x61 for c in b))
_bound = st.one_of(st.none(), _short_keys)


class TestNativeSearchMatchesComparator:
    """The default tree searches with ``bisect``/``==``; a tree given
    ``cmp=bytes_cmp`` takes the comparator loops.  Both must return the
    same results and charge the same node visits in the same order as
    the recursive scan they replaced."""

    @staticmethod
    def _pair():
        models = CostModel(), CostModel()
        trees = (BTree(node_bytes=96, model=models[0]),
                 BTree(cmp=bytes_cmp, node_bytes=96, model=models[1]))
        assert trees[0]._native and not trees[1]._native
        return models, trees

    @staticmethod
    def _trace(items, model, limit):
        """Up to ``limit`` items, each with the clock when it arrived,
        and the clock after the consumer stopped."""
        out = []
        for item in items:
            out.append((item, model.clock.now_ns))
            if len(out) == limit:
                break
        return out, model.clock.now_ns

    def _scans_agree(self, models, trees, start, end, limit):
        """Scan both trees and the recursive reference (on a third model
        started at the same clock); return the items."""
        reference = CostModel()
        reference.clock.now_ns = models[0].clock.now_ns
        ref_tree = BTree(node_bytes=96, model=reference)
        want = self._trace(_recursive_scan(ref_tree, trees[0]._root,
                                           start, end), reference, limit)
        for tree, model in zip(trees, models):
            assert self._trace(tree.scan(start, end), model, limit) == \
                want, (tree._native, start, end)
        return [item for item, _ in want[0]]

    @given(st.lists(st.one_of(
        st.tuples(st.just("insert"), _short_keys),
        st.tuples(st.just("delete"), _short_keys),
        st.tuples(st.just("lookup"), _short_keys),
        st.tuples(st.just("scan"), _bound, _bound,
                  st.integers(min_value=1, max_value=40))),
        max_size=250))
    @settings(max_examples=80, deadline=None)
    def test_random_streams_agree(self, ops):
        models, (native, generic) = self._pair()
        oracle: dict[bytes, int] = {}
        for i, (op, *args) in enumerate(ops):
            if op == "insert":
                results = [t.insert(args[0], i) for t in (native, generic)]
                oracle[args[0]] = i
            elif op == "delete":
                results = [t.delete(args[0]) for t in (native, generic)]
                assert results[0] == (oracle.pop(args[0], None) is not None)
            elif op == "lookup":
                results = [t.lookup(args[0]) for t in (native, generic)]
                assert results[0] == oracle.get(args[0])
            else:
                start, end, limit = args
                in_range = sorted(
                    (k, v) for k, v in oracle.items()
                    if (start is None or k >= start)
                    and (end is None or k < end))
                assert self._scans_agree(models, (native, generic), start,
                                         end, limit) == in_range[:limit]
                results = [None, None]
            assert results[0] == results[1], (op, args)
            assert len(native) == len(generic) == len(oracle)
            assert models[0].clock.now_ns == models[1].clock.now_ns
            assert models[0].counters == models[1].counters

    def test_early_end_and_empty_ranges(self):
        models, trees = self._pair()
        for i in range(400):
            for tree in trees:
                tree.insert(key(i * 3), i)
        assert trees[0].stats().height >= 3
        cases = [(key(30), key(33)),       # cut off inside one leaf
                 (key(0), key(600)),       # cut off a few leaves in
                 (key(601), key(601)),     # empty: start == end
                 (key(900), key(300)),     # empty: end < start
                 (key(5000), None),        # empty: past the last key
                 (None, key(0)),           # empty: before the first key
                 (None, None)]
        for start, end in cases:
            expected = [(key(i * 3), i) for i in range(400)
                        if (start is None or key(i * 3) >= start)
                        and (end is None or key(i * 3) < end)]
            for limit in (1, 7, 10_000):  # the consumer may stop early
                assert self._scans_agree(models, trees, start, end,
                                         limit) == expected[:limit]
        assert models[0].counters == models[1].counters
