"""Tests for the byte-budgeted prefix-compressed B-Tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BTree
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
