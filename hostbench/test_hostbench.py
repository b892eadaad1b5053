"""The benchmark's own checks, on scaled-down workloads.

    python3 -m pytest hostbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from repro.bench.adapters import make_store  # noqa: E402

import measure  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


class TinyRows(workloads.SmallRows):
    ops_per_round = 400
    n_keys = 200


class TinyBlobs(workloads.BlobsOverPool):
    """About twice as much live data as pool; the pool still holds what
    one group-commit window keeps protected, as in the full workload."""
    ops_per_round = 40
    n_keys = 24
    min_size = 256 << 10
    buffer_bytes = 8 << 20


class TinyTree(workloads.FuseTreeRead):
    ops_per_round = 240
    n_files = 90
    n_dirs = 6
    list_every = 80
    write_share = 0.2


def _line(correct, rounds, values) -> dict:
    return json.loads(metrics.result_line(
        correct, sum(r.counts["ops"] for r in rounds),
        sum(r.counts["failed"] for r in rounds), values))


def test_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME.fullmatch(name), name
    for unit in metrics.UNITS.values():
        assert metrics.UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [m[:3] for m in metrics.PER_LAYER]


def test_every_end_to_end_metric_prints_with_its_unit():
    rounds = [measure.run_round(TinyBlobs, 3) for _ in range(2)]
    line = _line(True, rounds, measure.end_to_end(rounds))
    assert line["attempted"] == 2 * TinyBlobs.ops_per_round
    assert set(line["metrics"]) == {m[0] for m in metrics.END_TO_END}
    for name, unit, *_ in metrics.END_TO_END:
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0, name
    assert measure.mismatches(*rounds) == []


def test_every_layer_metric_prints_with_its_unit():
    plain = measure.run_round(TinyTree, 4)
    traced = measure.run_round(TinyTree, 4, trace=True)
    assert measure.mismatches(plain, traced) == []
    assert traced.counts["failed"] == 0
    values = measure.per_layer(plain, traced)
    line = _line(True, [plain, traced], values)
    assert set(line["metrics"]) == {m[0] for m in metrics.PER_LAYER}
    for name, unit, *_ in metrics.PER_LAYER:
        assert line["metrics"][name]["unit"] == unit
    assert values["namespace.entries_per_list"] == \
        TinyTree.n_files + TinyTree.n_dirs
    assert values["fuse.self_us_per_op"] > 0
    assert values["failed_frac"] == 0.0


def test_tracing_restores_every_entry_point():
    from tracer import ENTRY_POINTS, Tracer
    before = {(o, a): getattr(o, a) for o, attrs, _ in ENTRY_POINTS
              for a in attrs}
    tracer = Tracer()
    tracer.attach()
    tracer.detach()
    assert all(getattr(o, a) is fn for (o, a), fn in before.items())


def _corrupting_store(*args, **kwargs):
    """A store whose reads return the stored bytes with one bit flipped."""
    store = make_store(*args, **kwargs)
    get = store.get

    def wrong_get(key: bytes) -> bytes:
        data = bytearray(get(key))
        data[-1] ^= 1
        return bytes(data)
    store.get = wrong_get
    return store


def test_wrong_bytes_count_as_failed():
    good = measure.run_round(TinyRows, 5)
    bad = measure.run_round(TinyRows, 5, store_factory=_corrupting_store,
                            trace=True)
    assert good.counts["failed"] == 0
    assert bad.counts["failed"] == bad.counts["wrong"] == bad.counts["reads"]
    assert measure.per_layer(good, bad)["failed_frac"] == \
        bad.counts["reads"] / bad.counts["ops"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(seed):
        wl = TinyBlobs(seed)
        return list(wl.initial_data()), list(wl.operations())
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
