"""Tests for the ``python -m repro`` command-line interface."""

import copy
import json

import pytest

from repro.__main__ import main
from repro.bench import baseline


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICDE 2024" in out
        assert "vmcache" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "copies/byte" in out
        assert "our" in out and "mysql" in out

    def test_demo_small(self, capsys):
        assert main(["demo", "--payload-kb", "4", "--ops", "20",
                     "--records", "4"]) == 0
        out = capsys.readouterr().out
        assert "txn/s" in out
        assert "our" in out

    def test_faultsweep(self, capsys):
        assert main(["faultsweep", "--schedules", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 SILENT" in out
        assert "digest:" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestJsonOutput:
    def test_demo_json(self, capsys):
        assert main(["demo", "--json", "--payload-kb", "4", "--ops", "20",
                     "--records", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        systems = {row["system"] for row in doc["systems"]}
        assert "our" in systems
        for row in doc["systems"]:
            assert row["throughput_ops_s"] > 0

    def test_survey_json(self, capsys):
        assert main(["survey", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["copies_per_byte"]["our"] <= \
            doc["copies_per_byte"]["postgresql"]

    def test_faultsweep_json(self, capsys):
        assert main(["faultsweep", "--schedules", "5", "--seed", "3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["silent"] == 0
        assert doc["n_schedules"] == 5
        assert len(doc["digest"]) == 64


class TestTraceCommand:
    def test_stdout_trace_is_valid_chrome_json(self, capsys):
        assert main(["trace", "ycsb", "--seed", "1", "--ops", "30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["clock"] == "virtual-ns"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", "ycsb", "--seed", "0", "--ops", "40",
                     "--out", str(a)]) == 0
        assert main(["trace", "ycsb", "--seed", "0", "--ops", "40",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_trace_seed_changes_trace(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", "ycsb", "--seed", "0", "--ops", "40",
                     "--out", str(a)]) == 0
        assert main(["trace", "ycsb", "--seed", "7", "--ops", "40",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_flamegraph_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        flame = tmp_path / "t.folded"
        assert main(["trace", "wikipedia", "--ops", "20",
                     "--out", str(out), "--flamegraph", str(flame),
                     "--summary"]) == 0
        err = capsys.readouterr().err
        assert "span" in err  # summary table went to stderr
        lines = flame.read_text().splitlines()
        assert lines and all(" " in line for line in lines)


class TestBenchCommand:
    def test_bench_writes_and_gates_against_itself(self, tmp_path, capsys,
                                                   suite_doc):
        base = tmp_path / "BENCH_base.json"
        baseline.write_baseline(str(base), suite_doc)
        out = tmp_path / "BENCH_a.json"
        assert main(["bench", "--label", "a", "--out", str(out),
                     "--compare", str(base)]) == 0
        doc = json.loads(out.read_text())
        assert doc["label"] == "a"
        assert doc["workloads"] == suite_doc["workloads"]
        assert "regression gate OK" in capsys.readouterr().out

    def test_bench_gate_fails_on_regression(self, tmp_path, capsys,
                                            suite_doc):
        doc = copy.deepcopy(suite_doc)
        for wl in doc["workloads"].values():
            wl["throughput_ops_s"] *= 2  # baseline far faster than now
        base = tmp_path / "BENCH_a.json"
        base.write_text(json.dumps(doc))
        assert main(["bench", "--label", "c",
                     "--out", str(tmp_path / "BENCH_c.json"),
                     "--compare", str(base)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err

    @pytest.mark.parametrize("argv", [
        ["bench", "iodepth", "--compare", "/nonexistent.json"],
        ["bench", "pmem", "--label", "x"],
        ["bench", "traffic", "--tolerance", "0.2"],
        ["bench", "index", "--traces", "trace-dir"],
        ["bench", "--traces", "trace-dir"],
    ], ids=lambda argv: "-".join(argv[1:3]))
    def test_options_a_mode_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[-2] in err and "only applies to mode" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "ten"])
    def test_unusable_tolerance_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--tolerance", value])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err


def _fake_sweep(throughputs, check=lambda pts: None):
    """A one-point registered sweep whose points() yields ``throughputs``
    in turn, with one named check and a storm-like extra output."""
    values = iter(throughputs)
    return baseline.Sweep(
        name="fake", title="fake sweep",
        points=lambda: {"fake_p": {"ops": 4,
                                   "throughput_ops_s": next(values)}},
        checks=(("fake_check", check),),
        columns=(("op/s", "throughput_ops_s", ".1f"),),
        extra=("storm", lambda: {"digest": "d1"}),
        extra_checks=(("storm_check", lambda storm: None),))


class TestBenchSweep:
    """The one generic ``repro bench <sweep>`` path."""

    def test_ok_sweep_prints_table_and_writes_document(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(baseline.SWEEPS, "fake", _fake_sweep([5.0, 5.0]))
        out = tmp_path / "BENCH_fake.json"
        assert main(["bench", "fake", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fake_p" in printed and "5.0" in printed
        assert "digest: d1" in printed
        assert "fake sweep OK: deterministic, fake_check, storm_check" \
            in printed
        doc = json.loads(out.read_text())
        assert doc == {"suite_version": baseline.SUITE_VERSION,
                       "workloads": {"fake_p": {"ops": 4,
                                                "throughput_ops_s": 5.0}},
                       "storm": {"digest": "d1"}}

    def test_nondeterministic_sweep_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(baseline.SWEEPS, "fake", _fake_sweep([5.0, 6.0]))
        assert main(["bench", "fake"]) == 1
        assert "not deterministic" in capsys.readouterr().err

    def test_failed_check_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(baseline.SWEEPS, "fake", _fake_sweep(
            [5.0, 5.0], check=lambda pts: "shape broken"))
        assert main(["bench", "fake"]) == 1
        assert "FAILED: fake_check: shape broken" in capsys.readouterr().err
