"""Unit and property tests for the B+tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import DEFAULT_ORDER, BPlusTree


class TestBasicOperations:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.search(5) == []
        assert list(tree.range_scan()) == []

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert(10, 0)
        tree.insert(20, 1)
        tree.insert(10, 2)
        assert tree.search(10) == [0, 2]
        assert tree.search(20) == [1]
        assert tree.search(15) == []
        assert len(tree) == 3

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    @pytest.mark.parametrize("order, n", [(4, 2000), (64, 5000)])
    def test_many_inserts_stay_balanced(self, order, n):
        tree = BPlusTree(order=order)
        rng = random.Random(99)
        keys = [rng.randrange(10_000) for _ in range(n)]
        for rid, key in enumerate(keys):
            tree.insert(key, rid)
        tree.check_invariants()
        assert len(tree) == n
        assert tree.height > 1

    def test_delete(self):
        tree = BPlusTree(order=4)
        for rid, key in enumerate([5, 5, 7, 9]):
            tree.insert(key, rid)
        assert tree.delete(5, 0)
        assert tree.search(5) == [1]
        assert not tree.delete(5, 0)  # already gone
        assert not tree.delete(100, 0)  # never existed
        assert len(tree) == 3

    def test_delete_last_rid_removes_key(self):
        tree = BPlusTree()
        tree.insert(1, 0)
        assert tree.delete(1, 0)
        assert tree.search(1) == []
        assert list(tree.keys()) == []


class TestRangeScan:
    def _build(self):
        tree = BPlusTree(order=4)
        for rid, key in enumerate(range(0, 100, 2)):  # even keys 0..98
            tree.insert(key, rid)
        return tree

    def test_inclusive_range(self):
        tree = self._build()
        keys = [k for k, _ in tree.range_scan(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self):
        tree = self._build()
        keys = [k for k, _ in tree.range_scan(10, 20, low_inclusive=False, high_inclusive=False)]
        assert keys == [12, 14, 16, 18]

    def test_unbounded_low(self):
        tree = self._build()
        keys = [k for k, _ in tree.range_scan(None, 6)]
        assert keys == [0, 2, 4, 6]

    def test_unbounded_high(self):
        tree = self._build()
        keys = [k for k, _ in tree.range_scan(94, None)]
        assert keys == [94, 96, 98]

    def test_full_scan_sorted(self):
        tree = self._build()
        keys = [k for k, _ in tree.range_scan()]
        assert keys == sorted(keys)

    def test_range_between_keys(self):
        tree = self._build()
        assert [k for k, _ in tree.range_scan(11, 11)] == []

    def test_inclusive_range_over_a_bulk_loaded_tree(self):
        tree = BPlusTree.bulk_load((i, i) for i in range(20_000))
        keys = [k for k, _ in tree.range_scan(1_000, 6_000)]
        assert keys == list(range(1_000, 6_001))


class TestBulkLoad:
    @pytest.mark.parametrize(
        "order, n, domain", [(8, 1500, 500), (DEFAULT_ORDER, 20_000, 20_000)]
    )
    def test_matches_incremental(self, order, n, domain):
        rng = random.Random(5)
        pairs = [(rng.randrange(domain), rid) for rid in range(n)]
        bulk = BPlusTree.bulk_load(pairs, order=order)
        incremental = BPlusTree(order=order)
        for key, rid in pairs:
            incremental.insert(key, rid)
        bulk.check_invariants()
        assert len(bulk) == len(incremental) == n
        for key in range(domain):
            assert sorted(bulk.search(key)) == sorted(incremental.search(key))

    def test_empty_bulk_load(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0

    def test_items_grouped(self):
        tree = BPlusTree.bulk_load([(1, 10), (1, 11), (2, 20)])
        items = list(tree.items())
        assert items[0][0] == 1
        assert sorted(items[0][1]) == [10, 11]


@st.composite
def _operations(draw):
    n = draw(st.integers(1, 150))
    ops = []
    for rid in range(n):
        key = draw(st.integers(0, 50))
        ops.append((key, rid))
    return ops


class TestProperties:
    @given(ops=_operations(), order=st.sampled_from([4, 8, 64]))
    @settings(max_examples=60, deadline=None)
    def test_model_equivalence(self, ops, order):
        """The tree behaves like a sorted multimap."""
        tree = BPlusTree(order=order)
        model = {}
        for key, rid in ops:
            tree.insert(key, rid)
            model.setdefault(key, []).append(rid)
        tree.check_invariants()
        assert len(tree) == sum(len(v) for v in model.values())
        for key in range(51):
            assert tree.search(key) == model.get(key, [])
        scanned = [k for k, _ in tree.range_scan()]
        expected = sorted(k for k, rids in model.items() for _ in rids)
        assert scanned == expected

    @given(
        ops=_operations(),
        low=st.integers(0, 50),
        width=st.integers(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_scan_model(self, ops, low, width):
        tree = BPlusTree(order=4)
        model = []
        for key, rid in ops:
            tree.insert(key, rid)
            model.append((key, rid))
        high = low + width
        got = sorted(tree.range_scan(low, high))
        want = sorted((k, r) for k, r in model if low <= k <= high)
        assert got == want

    @given(ops=_operations())
    @settings(max_examples=40, deadline=None)
    def test_delete_everything(self, ops):
        tree = BPlusTree(order=4)
        for key, rid in ops:
            tree.insert(key, rid)
        for key, rid in ops:
            assert tree.delete(key, rid)
        assert len(tree) == 0
        assert list(tree.keys()) == []
