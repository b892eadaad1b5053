"""Tests for buffer frames, pools, eviction, and prevent_evict."""

import random

import pytest

from repro.buffer.frames import BlobView, ExtentFrame, join_frames
from repro.buffer.hashtable_pool import HashTablePool
from repro.buffer.vmcache import VmcachePool
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe

PAGE = 4096


def make_pool(kind, capacity_pages=64, device_pages=4096, seed=0):
    model = CostModel()
    device = SimulatedNVMe(model, capacity_pages=device_pages)
    cls = VmcachePool if kind == "vmcache" else HashTablePool
    return cls(device, model, capacity_pages, eviction_seed=seed)


class TestExtentFrame:
    def test_fresh_frame_is_zeroed_and_clean(self):
        frame = ExtentFrame(head_pid=10, npages=2, page_size=PAGE)
        assert len(frame.data) == 2 * PAGE
        assert not frame.is_dirty

    def test_write_at_dirties_touched_pages_only(self):
        frame = ExtentFrame(head_pid=0, npages=4, page_size=PAGE)
        frame.write_at(PAGE, b"x" * 10)  # within page 1
        assert (frame.dirty_from, frame.dirty_to) == (1, 2)
        assert frame.dirty_pages == 1

    def test_dirty_range_extends(self):
        frame = ExtentFrame(head_pid=0, npages=4, page_size=PAGE)
        frame.write_at(0, b"a")
        frame.write_at(3 * PAGE, b"b")
        assert (frame.dirty_from, frame.dirty_to) == (0, 4)

    def test_dirty_slice_contains_written_bytes(self):
        frame = ExtentFrame(head_pid=0, npages=2, page_size=PAGE)
        frame.write_at(PAGE, b"hello")
        assert frame.dirty_slice()[:5] == b"hello"

    def test_write_beyond_capacity_rejected(self):
        frame = ExtentFrame(head_pid=0, npages=1, page_size=PAGE)
        with pytest.raises(ValueError):
            frame.write_at(PAGE - 2, b"xyz")

    def test_mark_dirty_validates_range(self):
        frame = ExtentFrame(head_pid=0, npages=2, page_size=PAGE)
        with pytest.raises(ValueError):
            frame.mark_dirty(1, 3)

    def test_mismatched_data_rejected(self):
        with pytest.raises(ValueError):
            ExtentFrame(head_pid=0, npages=2, page_size=PAGE,
                        data=bytearray(PAGE))


class TestFetchAndResidency:
    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_fetch_reads_from_device(self, kind):
        pool = make_pool(kind)
        pool.device.write(7, b"\x42" * PAGE)
        frames = pool.fetch_extents([(7, 1)])
        assert bytes(frames[0].data) == b"\x42" * PAGE
        assert pool.stats.misses == 1
        pool.unpin(frames)

    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_second_fetch_hits(self, kind):
        pool = make_pool(kind)
        pool.device.write(7, b"\x42" * PAGE)
        pool.unpin(pool.fetch_extents([(7, 1)]))
        pool.unpin(pool.fetch_extents([(7, 1)]))
        assert pool.stats.hits == 1
        assert pool.stats.hit_ratio == 0.5

    def test_batch_fetch_uses_single_submission(self):
        pool = make_pool("vmcache")
        for pid in (1, 10, 20):
            pool.device.write(pid, b"\x01" * PAGE)
        before = pool.device.stats.read_requests
        pool.unpin(pool.fetch_extents([(1, 1), (10, 1), (20, 1)]))
        # Three commands in the batch, but issued together.
        assert pool.device.stats.read_requests - before == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_fetch_never_evicts_its_own_hits(self, seed):
        """Room for the misses is never made by evicting a hit.

        With the pool full of equal extents, any of them may be drawn
        as the victim; drawing the request's own hit used to raise
        ``KeyError`` after pinning the frames before it.
        """
        pool = make_pool("vmcache", capacity_pages=8, seed=seed)
        for pid in (0, 10, 30, 40, 50):
            pool.device.write(pid, bytes([pid]) * (2 * PAGE))
        for pid in (0, 30, 40, 50):
            pool.unpin(pool.fetch_extents([(pid, 2)]))
        frames = pool.fetch_extents([(30, 2), (0, 2), (10, 2)])
        assert [bytes(f.data[:1]) for f in frames] == [b"\x1e", b"\x00",
                                                       b"\x0a"]
        assert pool.is_resident(0) and pool.is_resident(30)
        assert pool.stats.evictions == 1
        pool.unpin(frames)
        assert all(f.pins == 0 for f in pool._frames.values())

    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_repeated_missing_extent_loads_once(self, kind):
        """A pid listed twice in one fetch is read once and pinned twice;
        loading it twice used to leak its pages after ``drop``."""
        pool = make_pool(kind)
        pool.device.write(10, b"\x0a" * (4 * PAGE))
        frames = pool.fetch_extents([(10, 4), (10, 4)])
        assert frames[0] is frames[1]
        assert frames[0].pins == 2
        assert pool.device.stats.read_requests == 1
        assert pool.used_pages == 4
        assert pool.stats.misses == 2
        pool.unpin(frames)
        assert frames[0].pins == 0
        pool.drop(10)
        assert pool.used_pages == 0

    def test_allocate_frame_is_protected_by_default(self):
        pool = make_pool("vmcache")
        frame = pool.allocate_frame(5, 2)
        assert frame.prevent_evict
        assert pool.used_pages == 2

    def test_allocate_duplicate_rejected(self):
        pool = make_pool("vmcache")
        pool.allocate_frame(5, 1)
        with pytest.raises(ValueError):
            pool.allocate_frame(5, 1)

    def test_oversized_request_rejected(self):
        pool = make_pool("vmcache", capacity_pages=4)
        with pytest.raises(ValueError):
            pool.allocate_frame(0, 8)


class TestWriteBack:
    def test_write_back_flushes_only_dirty_pages(self):
        pool = make_pool("vmcache")
        frame = pool.allocate_frame(10, 4)
        frame.write_at(PAGE, b"dirty!")
        written = pool.write_back(frame)
        assert written == PAGE  # one dirty page, not four
        assert pool.device.peek(11)[:6] == b"dirty!"
        assert not frame.is_dirty

    def test_write_back_clean_frame_is_noop(self):
        pool = make_pool("vmcache")
        frame = pool.allocate_frame(10, 1)
        assert pool.write_back(frame) == 0

    def test_flush_batch(self):
        pool = make_pool("vmcache")
        frames = [pool.allocate_frame(i * 8, 2) for i in range(3)]
        for f in frames:
            f.write_at(0, b"z" * PAGE)
        total = pool.flush_batch(frames)
        assert total == 3 * PAGE
        assert all(not f.is_dirty for f in frames)
        assert pool.device.stats.write_requests == 3


class TestEviction:
    def test_eviction_frees_space(self):
        pool = make_pool("vmcache", capacity_pages=8)
        for i in range(4):
            frame = pool.allocate_frame(i * 2, 2, prevent_evict=False)
            frame.clean()
        pool.allocate_frame(100, 2, prevent_evict=False)  # forces eviction
        assert pool.used_pages <= 8
        assert pool.stats.evictions >= 1

    def test_prevent_evict_is_honoured(self):
        pool = make_pool("vmcache", capacity_pages=8)
        protected = [pool.allocate_frame(i * 2, 2) for i in range(3)]
        victim = pool.allocate_frame(50, 2, prevent_evict=False)
        pool.allocate_frame(100, 2, prevent_evict=False)
        assert all(pool.is_resident(f.head_pid) for f in protected)
        assert not pool.is_resident(victim.head_pid)

    def test_pinned_frames_not_evicted(self):
        pool = make_pool("vmcache", capacity_pages=8, device_pages=4096)
        pool.device.write(30, b"\x07" * (2 * PAGE))
        pinned = pool.fetch_extents([(30, 2)], pin=True)
        for i in range(3):
            pool.allocate_frame(i * 2, 2, prevent_evict=False)
        pool.allocate_frame(100, 2, prevent_evict=False)
        assert pool.is_resident(30)
        pool.unpin(pinned)

    def test_eviction_writes_back_dirty_victims(self):
        pool = make_pool("vmcache", capacity_pages=4)
        frame = pool.allocate_frame(10, 2, prevent_evict=False)
        frame.write_at(0, b"persist me")
        pool.allocate_frame(20, 2, prevent_evict=False)
        pool.allocate_frame(30, 2, prevent_evict=False)  # evicts pid 10 or 20
        assert pool.stats.evictions >= 1
        # If pid 10 was the victim its dirty content must be on the device.
        if not pool.is_resident(10):
            assert pool.device.peek(10)[:10] == b"persist me"

    def test_everything_protected_raises(self):
        pool = make_pool("vmcache", capacity_pages=4)
        pool.allocate_frame(0, 2)  # protected
        pool.allocate_frame(10, 2)
        with pytest.raises(RuntimeError):
            pool.allocate_frame(20, 2)

    def test_fair_eviction_prefers_large_extents(self):
        """Size-weighted acceptance: large extents evict ~N× more often."""
        evicted_large = 0
        trials = 40
        for seed in range(trials):
            pool = make_pool("vmcache", capacity_pages=20, seed=seed)
            pool.allocate_frame(0, 16, prevent_evict=False)   # large
            for i in range(4):
                pool.allocate_frame(100 + i, 1, prevent_evict=False)
            pool.allocate_frame(200, 8, prevent_evict=False)  # forces eviction
            if not pool.is_resident(0):
                evicted_large += 1
        # The 16-page extent is 16x more likely than a 1-page extent.
        assert evicted_large > trials * 0.5

    def test_drop_all_volatile(self):
        pool = make_pool("vmcache")
        pool.allocate_frame(0, 4)
        pool.drop_all_volatile()
        assert pool.used_pages == 0
        assert not pool.is_resident(0)

    def test_drop_single(self):
        pool = make_pool("vmcache")
        pool.allocate_frame(0, 4)
        pool.drop(0)
        assert pool.used_pages == 0


def reference_evict_one(pool, force=False, keep=()):
    """``_evict_one`` written plainly: a partial Fisher–Yates drawn with
    ``Random.randrange``, returning the victim without evicting it."""
    rng = pool._rng
    candidates = list(pool._frames.values())
    n = len(candidates)
    for t in range(n):
        j = t + rng.randrange(n - t)
        candidates[t], candidates[j] = candidates[j], candidates[t]
        frame = candidates[t]
        if frame.prevent_evict or frame.pins > 0:
            continue
        if pool.eviction_policy == "fair" and not force \
                and rng.randrange(pool._max_extent_pages) >= frame.npages:
            continue
        if frame.head_pid in keep:
            continue
        return frame
    return None


class Probe:
    """Stands in for a frame and records each time eviction visits it."""

    def __init__(self, head_pid, npages, visits, *, prevent_evict=False,
                 pins=0):
        self.head_pid = head_pid
        self.npages = npages
        self.pins = pins
        self.is_dirty = False
        self._prevent_evict = prevent_evict
        self._visits = visits

    @property
    def prevent_evict(self):
        self._visits.append(self.head_pid)
        return self._prevent_evict


def probe_pool(npages, visits, policy="fair", seed=0, **flags):
    pool = make_pool("vmcache", capacity_pages=1 << 16, seed=seed)
    pool.eviction_policy = policy
    for pid, n in enumerate(npages):
        pool._frames[pid] = Probe(pid, n, visits, **flags)
        pool._used_pages += n
    pool._max_extent_pages = max(npages)
    return pool


class TestLazyEvictionDraw:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_randrange_reference(self, seed):
        """Same victim (or ``False``) and the same generator state after
        each pass (so the same next ``getrandbits(32)``) as the plain
        ``randrange`` reference, on random pools with protected, pinned
        and kept frames, both policies, with and without ``force``."""
        rng = random.Random(seed)
        policy = rng.choice(["fair", "uniform"])
        pools = [make_pool("vmcache", capacity_pages=1 << 16, seed=seed)
                 for _ in range(2)]
        for _ in range(rng.randrange(0, 120)):
            pid, npages = rng.randrange(1 << 20), rng.randint(1, 40)
            if pools[0].is_resident(pid):
                continue
            protect, pinned = rng.random() < 0.2, rng.random() < 0.2
            for pool in pools:
                pool.eviction_policy = policy
                frame = pool.allocate_frame(pid, npages,
                                            prevent_evict=protect)
                frame.pins = int(pinned)
        ours, ref = pools
        for _ in range(30):
            pids = sorted(ours._frames)
            keep = set(rng.sample(pids, rng.randrange(len(pids) + 1)))
            force = rng.random() < 0.25
            victim = reference_evict_one(ref, force=force, keep=keep)
            before = set(ours._frames)
            assert ours._evict_one(force=force, keep=keep) is \
                (victim is not None)
            if victim is not None:
                ref.drop(victim.head_pid)
                assert before - set(ours._frames) == {victim.head_pid}
            assert set(ours._frames) == set(ref._frames)
            assert ours.used_pages == ref.used_pages
            assert ours._rng.getstate() == ref._rng.getstate()

    @pytest.mark.parametrize("policy,force", [("fair", False),
                                              ("fair", True),
                                              ("uniform", False)])
    @pytest.mark.parametrize("blocker", ["protected", "pinned", "kept"])
    def test_nothing_evictable_visits_each_frame_once(self, policy, force,
                                                      blocker):
        visits = []
        npages = [1, 3, 8, 2, 5, 1, 13]
        flags = {"protected": {"prevent_evict": True},
                 "pinned": {"pins": 1}, "kept": {}}[blocker]
        pool = probe_pool(npages, visits, policy, **flags)
        keep = set(range(len(npages))) if blocker == "kept" else ()
        assert pool._evict_one(force=force, keep=keep) is False
        assert sorted(visits) == list(range(len(npages)))
        assert pool.used_pages == sum(npages)

    def test_first_visit_is_uniform(self):
        """Chi-square of the first visited frame over 10 frames."""
        visits = []
        pool = probe_pool([1, 2, 4, 8, 16, 1, 2, 4, 8, 16], visits,
                          prevent_evict=True)
        trials = 5000
        counts = [0] * 10
        for _ in range(trials):
            visits.clear()
            assert pool._evict_one() is False
            counts[visits[0]] += 1
        expected = trials / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 27.88  # 9 degrees of freedom, p = 0.001

    def test_acceptance_is_proportional_to_size(self):
        """A visited N-page frame is accepted with probability
        N / MAX_EXT_SIZE."""
        visits = []
        npages = [1, 2, 4, 8, 16]
        pool = probe_pool(npages, visits)
        seen, taken = [0] * 5, [0] * 5
        for _ in range(4000):
            visits.clear()
            before = set(pool._frames)
            assert pool._evict_one() is True
            (victim,) = before - set(pool._frames)
            for pid in visits:
                seen[pid] += 1
            taken[victim] += 1
            pool._frames[victim] = Probe(victim, npages[victim], visits)
            pool._used_pages += npages[victim]
        assert taken[4] == seen[4]  # the largest extent is always taken
        for pid, n in enumerate(npages[:-1]):
            p = n / 16
            rate = taken[pid] / seen[pid]
            assert abs(rate - p) < 4 * (p * (1 - p) / seen[pid]) ** 0.5, pid


class TestReadBlobViews:
    @pytest.mark.parametrize("size", [0, 1, PAGE - 1, PAGE, PAGE + 1,
                                      3 * PAGE, 6 * PAGE, 7 * PAGE])
    def test_join_frames_matches_copying_reference(self, size):
        frames = [ExtentFrame(head_pid=i * 10, npages=n, page_size=PAGE,
                              data=bytearray(bytes([65 + i])) * (n * PAGE))
                  for i, n in enumerate((1, 3, 2))]
        reference = b"".join(bytes(f.data) for f in frames)[:size]
        joined = join_frames(frames, size)
        assert type(joined) is bytes
        assert joined == reference

    def test_vmcache_multi_extent_read_is_zero_copy(self):
        pool = make_pool("vmcache")
        pool.alias_threshold_bytes = 0  # always alias for this test
        pool.device.write(0, b"A" * PAGE)
        pool.device.write(10, b"B" * (2 * PAGE))
        with pool.read_blob([(0, 1), (10, 2)], size=PAGE + 100) as view:
            data = view.contiguous()
            assert data == b"A" * PAGE + b"B" * 100
        assert pool.aliasing.stats.local_acquires == 1
        assert pool.aliasing.stats.tlb_shootdowns == 1

    def test_vmcache_small_multi_extent_read_copies_instead(self):
        """Below the threshold the pool copies: TLB flush > memcpy for
        small BLOBs (the paper's Fig. 10 crossover)."""
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        pool.device.write(10, b"B" * PAGE)
        with pool.read_blob([(0, 1), (10, 1)], size=2 * PAGE) as view:
            assert view.contiguous() == b"A" * PAGE + b"B" * PAGE
        assert pool.aliasing.stats.local_acquires == 0
        assert pool.aliasing.stats.tlb_shootdowns == 0

    def test_vmcache_large_blob_uses_aliasing(self):
        pool = make_pool("vmcache", capacity_pages=128)
        npages = 40  # 160 KB > the 64 KB threshold
        pool.device.write(0, b"C" * (npages * PAGE))
        pool.device.write(100, b"D" * PAGE)
        size = (npages + 1) * PAGE
        with pool.read_blob([(0, npages), (100, 1)], size=size) as view:
            assert len(view.contiguous()) == size
        assert pool.aliasing.stats.local_acquires == 1

    def test_vmcache_single_extent_needs_no_aliasing(self):
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        with pool.read_blob([(0, 1)], size=50) as view:
            assert view.contiguous() == b"A" * 50
        assert pool.aliasing.stats.local_acquires == 0

    def test_hashtable_multi_extent_read_copies(self):
        pool = make_pool("hashtable")
        pool.device.write(0, b"A" * PAGE)
        pool.device.write(10, b"B" * PAGE)
        before = pool.model.memcpy_bytes
        with pool.read_blob([(0, 1), (10, 1)], size=2 * PAGE) as view:
            assert view.contiguous() == b"A" * PAGE + b"B" * PAGE
        assert pool.model.memcpy_bytes - before == 2 * PAGE

    def test_view_release_unpins(self):
        pool = make_pool("vmcache", capacity_pages=8)
        pool.device.write(0, b"A" * PAGE)
        view = pool.read_blob([(0, 1)], size=PAGE)
        view.release()
        view.release()  # idempotent
        # Frame can now be evicted to make room.
        for i in range(4):
            pool.allocate_frame(100 + i * 2, 2, prevent_evict=False)
        assert pool.used_pages <= 8

    def test_view_after_release_raises(self):
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        view = pool.read_blob([(0, 1)], size=PAGE)
        view.release()
        with pytest.raises(RuntimeError):
            view.contiguous()

    def test_copy_to_client_charges_one_memcpy(self):
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        with pool.read_blob([(0, 1)], size=PAGE) as view:
            before = pool.model.memcpy_bytes
            view.copy_to_client(pool.model)
            assert pool.model.memcpy_bytes - before == PAGE


class TestTranslationCosts:
    def test_vmcache_translation_cheaper_for_large_extents(self):
        """N-page extent: N hash probes vs one vmcache translation."""
        vm = make_pool("vmcache")
        ht = make_pool("hashtable")
        for pool in (vm, ht):
            pool.device.write(0, b"x" * (32 * PAGE))
            pool.unpin(pool.fetch_extents([(0, 32)]))  # load
            t0 = pool.model.clock.now_ns
            pool.unpin(pool.fetch_extents([(0, 32)]))  # hit: translation only
            pool.translation_ns = pool.model.clock.now_ns - t0
        assert vm.translation_ns < ht.translation_ns / 10
