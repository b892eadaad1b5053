"""Tests for the deterministic bench baseline suite and regression gate."""

import copy
import json
import math
import pathlib

import pytest

from repro.bench import baseline


class TestSuite:
    def test_runs_all_workloads(self, suite_doc):
        assert set(suite_doc["workloads"]) == \
            {"ycsb_4k", "ycsb_100k", "wikipedia",
             "iodepth_qd1", "iodepth_qd4", "iodepth_qd16", "iodepth_qd64",
             "shards_s1", "shards_s2", "shards_s4", "shards_s8",
             "shards_s8_zipf99",
             "replication_q1", "replication_q2", "replication_q3",
             "pmem_wal_nvme_w0us", "pmem_wal_pmem_w0us",
             "pmem_wal_nvme_w20us", "pmem_wal_pmem_w20us",
             "pmem_wal_nvme_w80us", "pmem_wal_pmem_w80us",
             "stripe_k1", "stripe_k2", "stripe_k4",
             "traffic_closed", "traffic_x025", "traffic_x10",
             "traffic_x20", "traffic_x40",
             "traffic_admit_shed", "traffic_admit_queue",
             "index_btree_uniform", "index_art_uniform",
             "index_learned_uniform",
             "index_btree_zipf99", "index_art_zipf99",
             "index_learned_zipf99",
             "ns_scan_gitclone", "ns_scan_wikipedia"}
        assert suite_doc["suite_version"] == baseline.SUITE_VERSION

    def test_workload_shape(self, suite_doc):
        for name, wl in suite_doc["workloads"].items():
            assert wl["ops"] > 0, name
            assert wl["throughput_ops_s"] > 0, name
            assert wl["latency_us"]["p50"] <= wl["latency_us"]["p99"] \
                <= wl["latency_us"]["max"], name
            if name.startswith("index_"):
                # Bare-index crossover points: no device below the
                # tree, so write amplification is pinned to zero.
                assert wl["engine"] in ("btree", "art", "learned"), name
                assert wl["entries"] > 0, name
                assert wl["write_amplification"] == 0.0, name
                continue
            if name.startswith("ns_scan_"):
                assert wl["listings_match"], name
                assert wl["speedup"] >= 1.0, name
                assert wl["range_scans"] >= 2, name
                assert wl["write_amplification"] == 0.0, name
                continue
            assert wl["write_amplification"] > 0, name
            assert wl["payload_bytes"] > 0, name
            if name.startswith("iodepth_"):
                assert wl["queue_depth"] >= 1, name
                continue
            if name.startswith("shards_"):
                assert wl["n_shards"] >= 1, name
                assert sum(wl["shard"]["keys_per_shard"]) == \
                    wl["shard"]["routed_keys"], name
                continue
            if name.startswith("replication_"):
                assert wl["quorum"] >= 1, name
                assert wl["replication"]["acked_writes"] > 0, name
                assert wl["replication"]["records_shipped"] > 0, name
                continue
            if name.startswith("pmem_wal_"):
                assert wl["wal_on"] in ("nvme", "pmem"), name
                assert wl["wal"]["records"] > 0, name
                continue
            if name.startswith("stripe_"):
                assert wl["n_devices"] >= 1, name
                assert wl["io"]["requests_in"] > 0, name
                continue
            if name.startswith("traffic_"):
                assert wl["offered"] == wl["admitted"] + wl["shed"], name
                assert wl["completed"] == wl["ops"], name
                assert wl["latency_us"]["p99"] <= \
                    wl["latency_us"]["p999"], name
                continue
            # Category accounting must include the data and WAL streams.
            cats = wl["bytes_written_by_category"]
            assert cats.get("data", 0) > 0 and cats.get("wal", 0) > 0, name

    def test_byte_identical_rendering(self, suite_doc):
        again = baseline.run_suite("test")
        assert baseline.render(suite_doc) == baseline.render(again)

    def test_render_round_trips(self, suite_doc, tmp_path):
        path = tmp_path / "BENCH_x.json"
        baseline.write_baseline(str(path), suite_doc)
        assert baseline.load_baseline(str(path)) == suite_doc
        json.loads(path.read_text())  # valid JSON on disk

    def test_format_report_mentions_workloads(self, suite_doc):
        text = baseline.format_report(suite_doc)
        assert "ycsb_4k" in text and "wikipedia" in text


class TestGate:
    def test_identical_run_passes(self, suite_doc):
        regressions, notes = baseline.compare(suite_doc, suite_doc)
        assert regressions == []
        assert notes == []

    def test_throughput_regression_detected(self, suite_doc):
        worse = copy.deepcopy(suite_doc)
        wl = worse["workloads"]["ycsb_4k"]
        wl["throughput_ops_s"] *= 0.8  # 20 % slower
        regressions, _ = baseline.compare(suite_doc, worse)
        assert len(regressions) == 1
        assert "throughput" in regressions[0]
        assert "ycsb_4k" in regressions[0]

    def test_p99_and_wa_regressions_detected(self, suite_doc):
        worse = copy.deepcopy(suite_doc)
        worse["workloads"]["wikipedia"]["latency_us"]["p99"] *= 1.5
        worse["workloads"]["ycsb_100k"]["write_amplification"] *= 1.2
        regressions, _ = baseline.compare(suite_doc, worse)
        assert any("p99" in r for r in regressions)
        assert any("write amplification" in r for r in regressions)

    def test_within_tolerance_passes(self, suite_doc):
        slightly = copy.deepcopy(suite_doc)
        slightly["workloads"]["ycsb_4k"]["throughput_ops_s"] *= 0.95
        regressions, _ = baseline.compare(suite_doc, slightly)
        assert regressions == []

    def test_improvement_is_a_note_not_a_failure(self, suite_doc):
        better = copy.deepcopy(suite_doc)
        better["workloads"]["ycsb_4k"]["throughput_ops_s"] *= 1.5
        regressions, notes = baseline.compare(suite_doc, better)
        assert regressions == []
        assert any("improvement" in n for n in notes)

    def test_missing_workload_fails(self, suite_doc):
        partial = copy.deepcopy(suite_doc)
        del partial["workloads"]["wikipedia"]
        regressions, _ = baseline.compare(suite_doc, partial)
        assert any("missing" in r for r in regressions)

    def test_suite_version_mismatch_fails(self, suite_doc):
        old = copy.deepcopy(suite_doc)
        old["suite_version"] = baseline.SUITE_VERSION + 1
        regressions, _ = baseline.compare(old, suite_doc)
        assert any("version mismatch" in r for r in regressions)

    def test_committed_baseline_matches_current_code(self, suite_doc):
        """The repo's BENCH_seed.json must gate-pass a fresh run.

        This is the CI contract: a perf-affecting change must refresh
        benchmarks/BENCH_seed.json in the same PR.
        """
        committed = baseline.load_baseline(str(SEED_BASELINE))
        regressions, _ = baseline.compare(committed, suite_doc)
        assert regressions == []
        # Stronger than the gate: the workload numbers are bit-identical.
        assert committed["workloads"] == suite_doc["workloads"]

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.01])
    def test_unusable_tolerance_rejected(self, suite_doc, tolerance):
        # A NaN slack fails no comparison: it would pass any regression.
        with pytest.raises(ValueError, match="tolerance"):
            baseline.compare(suite_doc, suite_doc, tolerance=tolerance)

    def test_tenfold_slowdown_fails_every_workload(self, suite_doc):
        slower = copy.deepcopy(suite_doc)
        for wl in slower["workloads"].values():
            wl["throughput_ops_s"] /= 10
        regressions, _ = baseline.compare(suite_doc, slower)
        assert len(regressions) == len(suite_doc["workloads"])
        assert all("throughput" in r for r in regressions)


SEED_BASELINE = (pathlib.Path(__file__).resolve().parent.parent
                 / "benchmarks" / "BENCH_seed.json")


def _tp(w, name):
    return w[name]["throughput_ops_s"]


def _set(w, name, path, value):
    *parents, leaf = path.split(".")
    target = w[name]
    for part in parents:
        target = target[part]
    target[leaf] = value


def _admit_all(point):
    point["admitted"] += point["shed"]
    point["completed"] = point["admitted"]
    point["shed"] = 0


def _shed_one(point):
    point["shed"] += 1
    point["admitted"] -= 1
    point["completed"] -= 1


#: One negative control per named sweep check: a mutation of the suite's
#: points that breaks the shape the check protects, and nothing else.
POINT_MUTATIONS = {
    ("iodepth", "monotone_in_depth"): lambda w: _set(
        w, "iodepth_qd4", "throughput_ops_s", _tp(w, "iodepth_qd1") * 0.9),
    ("iodepth", "diminishing_returns"): lambda w: _set(
        w, "iodepth_qd64", "throughput_ops_s", _tp(w, "iodepth_qd16")
        + 2 * (_tp(w, "iodepth_qd16") - _tp(w, "iodepth_qd4"))),
    ("shards", "monotone_in_shards"): lambda w: _set(
        w, "shards_s2", "throughput_ops_s", _tp(w, "shards_s1") * 0.9),
    ("shards", "uniform_speedup"): lambda w: _set(
        w, "shards_s1", "throughput_ops_s", _tp(w, "shards_s2")),
    ("shards", "skew_degrades"): lambda w: _set(
        w, "shards_s8_zipf99", "throughput_ops_s", _tp(w, "shards_s8")),
    ("replication", "quorum_latency_increasing"): lambda w: _set(
        w, "replication_q2", "latency_us.mean",
        w["replication_q1"]["latency_us"]["mean"]),
    ("pmem", "wal_on_pmem_below_nvme"): lambda w: _set(
        w, "pmem_wal_pmem_w80us", "latency_us.mean",
        w["pmem_wal_nvme_w80us"]["latency_us"]["mean"]),
    ("pmem", "stripe_monotone"): lambda w: _set(
        w, "stripe_k2", "throughput_ops_s", _tp(w, "stripe_k1") * 0.9),
    ("pmem", "stripe_speedup"): lambda w: _set(
        w, "stripe_k1", "throughput_ops_s", _tp(w, "stripe_k2")),
    ("index", "learned_wins_uniform"): lambda w: _set(
        w, "index_learned_uniform", "throughput_ops_s",
        _tp(w, "index_art_uniform")),
    ("index", "art_wins_skewed"): lambda w: _set(
        w, "index_art_zipf99", "throughput_ops_s",
        _tp(w, "index_learned_zipf99")),
    ("index", "retrain_churn_on_skew"): lambda w: _set(
        w, "index_learned_zipf99", "learned.retrains", 0),
    ("index", "listings_match"): lambda w: _set(
        w, "ns_scan_gitclone", "listings_match", False),
    ("index", "interval_scan_speedup"): lambda w: _set(
        w, "ns_scan_wikipedia", "speedup",
        baseline.NS_SCAN_MIN_SPEEDUP * 0.9),
    ("index", "interval_range_scans"): lambda w: _set(
        w, "ns_scan_gitclone", "range_scans", 1),
    ("traffic", "below_knee_tracks_offered"): lambda w: _set(
        w, "traffic_x025", "throughput_ops_s",
        _tp(w, "traffic_closed") * 0.25 * 0.5),
    ("traffic", "knee_saturates"): lambda w: _set(
        w, "traffic_x40", "throughput_ops_s", _tp(w, "traffic_x20") * 1.2),
    ("traffic", "tail_grows_without_admission"): lambda w: _set(
        w, "traffic_x025", "latency_us.p999",
        w["traffic_x40"]["latency_us"]["p999"]),
    ("traffic", "open_loop_never_sheds"): lambda w: _set(
        w, "traffic_x10", "shed", 1),
    ("traffic", "offered_is_admitted_plus_shed"): lambda w: _set(
        w, "traffic_admit_shed", "offered",
        w["traffic_admit_shed"]["offered"] + 1),
    ("traffic", "completed_is_admitted"): lambda w: _set(
        w, "traffic_admit_queue", "completed",
        w["traffic_admit_queue"]["completed"] - 1),
    ("traffic", "shed_policy_sheds"): lambda w: _admit_all(
        w["traffic_admit_shed"]),
    ("traffic", "shed_bounds_p999"): lambda w: _set(
        w, "traffic_admit_shed", "latency_us.p999",
        w["traffic_x40"]["latency_us"]["p999"]),
    ("traffic", "queue_policy_never_sheds"): lambda w: _shed_one(
        w["traffic_admit_queue"]),
    ("traffic", "queue_policy_queues"): lambda w: _set(
        w, "traffic_admit_queue", "queued_ops", 0),
}

#: The same for the replication sweep's storm checks.
STORM_MUTATIONS = {
    "no_lost_acked_writes": lambda s: s.update(lost_acked_writes=1),
    "no_torn_records": lambda s: s.update(torn_records=1),
    "failover_every_schedule": lambda s: s.update(
        failovers=s["schedules"] - 1),
    "failover_bounded": lambda s: s.update(
        max_failover_us=baseline.REPLICATION_FAILOVER_BOUND_US + 1),
}


def _failing_point_checks(workloads):
    return {(sweep.name, name) for sweep in baseline.SWEEPS.values()
            for name, check in sweep.checks if check(workloads)}


def _failing_storm_checks(storm):
    return {name for name, check in baseline.STORM_CHECKS if check(storm)}


class TestSweepChecks:
    """Every named sweep check runs in tier-1 on the suite's own points
    (no extra sweep run), with a negative control per check."""

    def test_every_check_has_a_negative_control(self):
        registered = {(sweep.name, name)
                      for sweep in baseline.SWEEPS.values()
                      for name, _ in sweep.checks}
        assert registered == set(POINT_MUTATIONS)
        extra = [sweep.extra_checks for sweep in baseline.SWEEPS.values()
                 if sweep.extra_checks]
        assert extra == [baseline.STORM_CHECKS]
        assert {name for name, _ in baseline.STORM_CHECKS} == \
            set(STORM_MUTATIONS)

    def test_registry_matches_cli_modes(self):
        assert set(baseline.SWEEPS) == {"iodepth", "shards", "replication",
                                        "traffic", "pmem", "index"}

    def test_checks_pass_on_suite_points(self, suite_doc, storm_doc):
        assert _failing_point_checks(suite_doc["workloads"]) == set()
        assert _failing_storm_checks(storm_doc) == set()

    @pytest.mark.parametrize("key", sorted(POINT_MUTATIONS),
                             ids=lambda key: "-".join(key))
    def test_mutation_fails_exactly_its_check(self, suite_doc, key):
        workloads = copy.deepcopy(suite_doc["workloads"])
        POINT_MUTATIONS[key](workloads)
        assert _failing_point_checks(workloads) == {key}

    @pytest.mark.parametrize("name", sorted(STORM_MUTATIONS))
    def test_storm_mutation_fails_exactly_its_check(self, storm_doc, name):
        storm = copy.deepcopy(storm_doc)
        STORM_MUTATIONS[name](storm)
        assert _failing_storm_checks(storm) == {name}
