"""Tests of the benchmark itself (not of fracergo).

    python3 -m pytest perfbench

They run no workload, so they take a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def refs():
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _layer_names():
    return set(layer_metrics(Tracer(), 0)) | {
        "cli.startup_s", "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_factor"
    }


def test_metric_names_are_well_formed(bench):
    names = list(run.END_TO_END_UNITS) + sorted(_layer_names())
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(declared) == len(set(declared))


def test_result_metrics_match_benchmark_json(bench):
    assert set(run.RESULT_METRICS) == {m["name"] for m in bench["end_to_end"]}
    assert _layer_names() == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_benchmark_json_records_workloads_and_predictions(bench):
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"].strip() and "\n" not in w["why"] for w in bench["workloads"])
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    predicted = {k for k in predictions if k != "about"}
    assert predicted <= _layer_names()
    for p in predictions.values():
        if isinstance(p, dict):
            assert set(p["on"]) <= set(workloads.WORKLOADS)
            assert set(p["moves"]) <= set(run.END_TO_END_UNITS)


def _fake_pass(w, kind="process"):
    p = run.Pass(kind)
    for i, step in enumerate(w.steps):
        p.steps.append({"step": step.name, "rc": 0, "wall_s": 1.0 + i, "cpu_s": 1.5 + i,
                        "rss_mb": 30.0 + i, "problems": []})
    return p


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_reports_all_five_end_to_end_metrics(name, tmp_path):
    w = workloads.build(name, 3, str(tmp_path))
    passes = [_fake_pass(w) for _ in range(3)]
    e2e = run.end_to_end(passes, [0.5, 0.4, 0.6])
    assert set(e2e) == {"wall_s", "cpu_s", "peak_rss_mb", "failure_rate", "setup_s"}
    assert e2e["failure_rate"]["value"] == 0.0
    assert e2e["wall_s"]["n"] == 3 and e2e["setup_s"]["value"] == 0.5
    assert all(v["value"] > 0 for k, v in e2e.items() if k != "failure_rate")


def test_wrong_reference_value_is_a_failure(refs, tmp_path):
    w = workloads.build("exact-kernels", 5, str(tmp_path))
    good = refs["values"][w.name][str(w.pool)]
    p = _fake_pass(w)
    for s in p.steps:
        rows = good[s["step"]]
        header = "N,value" if len(rows[0]) == 2 else "N,value_re,value_im"
        s["csv"] = (header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)).encode()
    run.check_run(w, [p], refs, None)
    assert run.failures([p]) == (0, len(w.steps))

    bad = copy.deepcopy(refs)
    rows = bad["values"][w.name][str(w.pool)]["seminorm-rotation"]
    rows[0][1] += 10 * checks.TOLERANCES["seminorm-rotation"][0]
    bad["values"][w.name][str(w.pool)]["sieve-limit"][0][1] += 1
    for s in p.steps:
        s["problems"] = []
    run.check_run(w, [p], bad, None)
    failed = {s["step"] for s in p.steps if s["problems"]}
    assert failed == {"seminorm-rotation", "sieve-limit"}
    assert run.failures([p]) == (2, len(w.steps))


def test_failed_split_or_unequal_work_fails_a_traced_run(refs):
    layers = dict.fromkeys(_layer_names(), 0.0)
    layers.update(refs["work_counts"]["weyl-primes"])
    layers.update({"trace.traced_wall_s": 10.0, "averages.iterate_s": 7.0, "systems.phase_s": 1.5})
    assert run.run_checks("weyl-primes", layers, refs) == {"predicted split": None, "work counts": None}
    layers["systems.phase_s"] = 0.5  # 7.5 s of 10 s: under the predicted 80%
    layers["averages.iterate_entries"] += 1
    verdicts = run.run_checks("weyl-primes", layers, refs)
    assert verdicts["predicted split"] and verdicts["work counts"]

    layers = dict.fromkeys(_layer_names(), 0.0)
    layers.update(refs["work_counts"]["exact-kernels"])
    assert not any(run.run_checks("exact-kernels", layers, refs).values())
    layers["averages.weight_s"] = 1e-6
    assert run.run_checks("exact-kernels", layers, refs)["predicted split"]


def test_csv_bytes_must_repeat_across_passes(refs, tmp_path):
    w = workloads.build("exact-kernels", 0, str(tmp_path))
    good = refs["values"][w.name]["0"]
    passes = [_fake_pass(w), _fake_pass(w)]
    for p in passes:
        for s in p.steps:
            rows = good[s["step"]]
            s["csv"] = ("N,value\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)).encode()
    passes[1].steps[0]["csv"] += b"\n"
    run.check_run(w, passes, refs, None)
    assert any("differ from the first pass" in x for x in passes[1].steps[0]["problems"])
    assert not passes[0].steps[0]["problems"]


def test_tolerances_cover_every_step_and_give_reasons():
    steps = {s.name for name in workloads.WORKLOADS for s in workloads.build(name, 0, "/x").steps}
    assert steps == set(checks.TOLERANCES)
    for tol, why in checks.TOLERANCES.values():
        assert tol >= 0 and len(why) > 20


def test_seeds_change_values_but_not_work(refs):
    for name in workloads.WORKLOADS:
        sigs = {json.dumps(workloads.work_signature(workloads.build(name, seed, "/w")))
                for seed in range(3 * workloads.POOL)}
        assert len(sigs) == 1
        assert json.loads(sigs.pop()) == refs["work_signature"][name]
    values = {json.dumps(workloads.seed_values(s)) for s in range(workloads.POOL)}
    assert len(values) == workloads.POOL
    assert workloads.seed_values(7) == workloads.seed_values(7 + workloads.POOL)


def test_references_cover_every_value_set(refs):
    assert refs["pool"] == workloads.POOL
    for name in workloads.WORKLOADS:
        assert sorted(refs["values"][name], key=int) == [str(i) for i in range(workloads.POOL)]


def test_tracer_wraps_every_binding_and_restores():
    import fracergo.averages as averages
    import fracergo.cli  # noqa: F401  (binds main)
    import fracergo.seminorms as seminorms
    import fracergo.systems as systems

    before = (systems.frac_multiples, averages.frac_multiples, seminorms.multiply)
    t = Tracer()
    t.install()
    try:
        assert set(t.bindings["systems.frac_multiples"]) >= {"fracergo.systems", "fracergo.averages"}
        assert set(t.bindings["systems.multiply"]) >= {"fracergo.systems", "fracergo.seminorms"}
        assert averages.frac_multiples is systems.frac_multiples is not before[0]
        averages.frac_multiples(0.25, [1, 2, 3])
    finally:
        t.uninstall()
    assert (systems.frac_multiples, averages.frac_multiples, seminorms.multiply) == before
    assert t.counts["phase_entries"] == 3
    assert t.summary()["systems.frac_multiples"]["calls"] == 1


def test_weyl_oracle_agrees_with_the_library():
    from fracergo.averages import IterateSpec, weyl_sum
    from fracergo.fracpoly import family_from_json
    from fracergo.primes import sieve

    table = sieve(5000)
    fam = family_from_json(workloads._family_json(workloads.F2))
    ts = ["2/7", "5/9"]
    z, tol = checks.weyl_oracle(list(fam), ts, 300, table)
    got = weyl_sum([IterateSpec(f, "primes") for f in fam], [2 / 7, 5 / 9], 300, table)
    assert abs(got - z) <= tol
    assert abs(got - (z + 1e-3)) > tol


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "weyl-primes", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
