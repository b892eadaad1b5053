"""Tests for the workload generators."""

import math
import random
import struct

import pytest

from repro.workloads.gitclone import GitCloneTrace
from repro.workloads.wikipedia import WikipediaCorpus
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload, zipf_sampler


class TestZipf:
    def test_skewed_toward_low_indices(self):
        sample = zipf_sampler(1000, 0.99, random.Random(1))
        hits = [sample() for _ in range(20000)]
        assert all(0 <= h < 1000 for h in hits)
        top10 = sum(1 for h in hits if h < 10)
        assert top10 > len(hits) * 0.2  # heavy head

    def test_deterministic_for_seed(self):
        a = zipf_sampler(100, 0.99, random.Random(5))
        b = zipf_sampler(100, 0.99, random.Random(5))
        assert [a() for _ in range(50)] == [b() for _ in range(50)]

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            zipf_sampler(0, 0.99, random.Random(1))
        with pytest.raises(ValueError):
            zipf_sampler(10, 1.5, random.Random(1))


class TestYcsb:
    def test_load_phase_covers_all_records(self):
        wl = YcsbWorkload(YcsbConfig(n_records=50, payload=100))
        loaded = list(wl.load_phase())
        assert len(loaded) == 50
        assert len({k for k, _ in loaded}) == 50
        assert all(len(v) == 100 for _, v in loaded)

    def test_fixed_payload_size(self):
        wl = YcsbWorkload(YcsbConfig(payload=1234))
        assert len(wl.payload_for(3)) == 1234

    def test_mixed_payload_range(self):
        wl = YcsbWorkload(YcsbConfig(payload=(4096, 10 * 1024 * 1024)))
        sizes = [len(wl.payload_for(i)) for i in range(20)]
        assert all(4096 <= s <= 10 * 1024 * 1024 for s in sizes)
        assert len(set(sizes)) > 5  # actually mixed

    def test_payloads_are_distinct(self):
        wl = YcsbWorkload(YcsbConfig(payload=120))
        assert wl.payload_for(1) != wl.payload_for(1)  # stamped

    def test_payload_matches_three_copy_formula(self):
        """Same bytes and the same generator calls as the old
        ``(stamp + body * reps)[:size]``, at the edges of the stamp and
        of the base buffer, and across several base copies."""
        wl = YcsbWorkload(YcsbConfig(payload=(0, 3 << 20), seed=9))
        ref_rng = random.Random(9)
        ref_rng.setstate(wl._rng.getstate())
        base = wl._base
        assert len(base) == 1 << 20
        sizes = [0, 1, 12, 13, len(base) - 1, len(base), len(base) + 1,
                 len(base) + 12, len(base) + 13, 2 * len(base) + 12,
                 1 << 20, 3 << 20]
        stamp_no = 0

        def old(index, size):
            nonlocal stamp_no
            stamp_no += 1
            stamp = struct.pack(">IQ", index & 0xFFFFFFFF, stamp_no)
            if size <= len(stamp):
                return stamp[:size]
            reps = math.ceil((size - len(stamp)) / len(base))
            return (stamp + base * reps)[:size]

        for i, size in enumerate(sizes):
            wl.config.payload = size  # fixed size: no draw
            assert wl.payload_for(i) == old(i, size), size
        wl.config.payload = (0, 3 << 20)
        for i in range(20):
            size = ref_rng.randint(0, 3 << 20)
            got = wl.payload_for(i)
            assert type(got) is bytes
            assert got == old(i, size)
        assert wl._rng.getstate() == ref_rng.getstate()

    def test_read_ratio(self):
        wl = YcsbWorkload(YcsbConfig(n_records=100, payload=64,
                                     read_ratio=0.5))
        ops = list(wl.operations(4000))
        reads = sum(1 for op, _, _ in ops if op == "read")
        assert 0.42 < reads / len(ops) < 0.58

    def test_writes_carry_payloads(self):
        wl = YcsbWorkload(YcsbConfig(n_records=10, payload=64,
                                     read_ratio=0.0))
        for op, _, payload in wl.operations(20):
            assert op == "write"
            assert len(payload) == 64

    def test_keys_within_range(self):
        wl = YcsbWorkload(YcsbConfig(n_records=10, payload=8))
        for _, key, _ in wl.operations(200):
            assert int(key[4:]) < 10


class TestWikipedia:
    def test_quantile_anchors(self):
        """The fitted distribution matches the paper's two anchors."""
        corpus = WikipediaCorpus(n_articles=20000, seed=1)
        over_767 = corpus.fraction_larger_than(767)
        over_8191 = corpus.fraction_larger_than(8191)
        assert 0.37 <= over_767 <= 0.49      # paper: 43 %
        assert 0.03 <= over_8191 <= 0.09     # paper: ~5 %

    def test_content_matches_size(self):
        corpus = WikipediaCorpus(n_articles=50)
        for article in corpus.articles[:10]:
            assert len(corpus.content(article)) == article.size

    def test_content_deterministic(self):
        corpus = WikipediaCorpus(n_articles=10)
        a = corpus.content(corpus.articles[0])
        b = corpus.content(corpus.articles[0])
        assert a == b

    def test_shared_prefixes_exist(self):
        """Many articles share multi-KB lead-ins (defeats prefix indexes)."""
        corpus = WikipediaCorpus(n_articles=600, shared_prefix_fraction=0.5)
        prefixes = {}
        for article in corpus.articles:
            if article.size < 1024:
                continue
            head = corpus.content(article)[:1024]
            prefixes[head] = prefixes.get(head, 0) + 1
        assert max(prefixes.values()) > 3

    def test_view_sampler_prefers_popular(self):
        corpus = WikipediaCorpus(n_articles=500)
        sample = corpus.view_sampler(seed=3)
        hits = [sample() for _ in range(5000)]
        first_article_hits = sum(1 for a in hits if a is corpus.articles[0])
        assert first_article_hits > 5000 / 500  # above uniform share

    def test_total_bytes_positive(self):
        assert WikipediaCorpus(n_articles=100).total_bytes > 100 * 16


class TestGitCloneTrace:
    def test_metadata_ops_dominate(self):
        trace = GitCloneTrace()
        hist = trace.op_histogram()
        metadata_ops = hist["create"] + hist["fstat"] + hist["close"]
        data_ops = hist["write"] + hist["read"]
        assert metadata_ops > data_ops

    def test_create_per_file_plus_pack(self):
        trace = GitCloneTrace(n_files=100, n_dirs=10)
        hist = trace.op_histogram()
        assert hist["create"] == 101
        assert hist["mkdir"] == 10
        assert hist["fstat"] == 101

    def test_pack_dominates_bytes(self):
        trace = GitCloneTrace()
        pack_writes = sum(op.size for op in trace.operations()
                          if op.op == "write" and "pack" in op.path)
        total_writes = sum(op.size for op in trace.operations()
                           if op.op == "write")
        assert pack_writes / total_writes > 0.5

    def test_deterministic(self):
        a = list(GitCloneTrace(seed=5).operations())
        b = list(GitCloneTrace(seed=5).operations())
        assert a == b

    def test_total_bytes(self):
        trace = GitCloneTrace(n_files=10, pack_bytes=1 << 20)
        assert trace.total_bytes > 1 << 20
