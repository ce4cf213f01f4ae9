"""Local store allocator tests: the 64 KB constraint that drives §2.1.2."""

import pytest

from repro.sunway.localstore import LocalStore, LocalStoreOverflow


class TestAllocator:
    def test_default_capacity_is_64kb(self):
        assert LocalStore().capacity == 64 * 1024

    def test_alloc_and_free_accounting(self):
        ls = LocalStore(1000)
        ls.alloc("a", 300)
        ls.alloc("b", 200)
        assert ls.used == 500
        assert ls.free == 500
        ls.release("a")
        assert ls.used == 200

    def test_overflow_raises(self):
        ls = LocalStore(100)
        ls.alloc("a", 80)
        with pytest.raises(LocalStoreOverflow, match="exceeds local store"):
            ls.alloc("b", 30)

    def test_duplicate_name_rejected(self):
        ls = LocalStore(100)
        ls.alloc("a", 10)
        with pytest.raises(ValueError, match="already"):
            ls.alloc("a", 10)

    def test_resize_respects_capacity(self):
        ls = LocalStore(100)
        ls.alloc("a", 50)
        ls.resize("a", 90)
        assert ls.used == 90
        with pytest.raises(LocalStoreOverflow):
            ls.resize("a", 200)
        assert ls.buffers["a"] == 90  # rollback on failure

    def test_release_unknown_rejected(self):
        with pytest.raises(KeyError):
            LocalStore(100).release("ghost")

    def test_reset(self):
        ls = LocalStore(100)
        ls.alloc("a", 60)
        ls.reset()
        assert ls.used == 0

    def test_fits(self):
        ls = LocalStore(100)
        ls.alloc("a", 60)
        assert ls.fits(40)
        assert not ls.fits(41)


class TestPaperConstraints:
    def test_traditional_table_cannot_fit(self):
        # The premise of the compaction: a 273 KB coefficient table does
        # not fit a 64 KB local store.
        ls = LocalStore()
        with pytest.raises(LocalStoreOverflow):
            ls.alloc("traditional_table", 5001 * 7 * 8)

    def test_one_compacted_table_fits(self):
        ls = LocalStore()
        ls.alloc("compacted_table", 5001 * 8)  # ~39 KB
        assert ls.free > 20 * 1024  # room for atom blocks

    def test_three_compacted_tables_do_not_fit(self):
        # Why the compacted layout (and our pass structure) exist.
        ls = LocalStore()
        ls.alloc("t1", 5001 * 8)
        with pytest.raises(LocalStoreOverflow):
            ls.alloc("t2", 5001 * 8)
            ls.alloc("t3", 5001 * 8)
