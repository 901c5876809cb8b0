"""Tests of the benchmark itself: the seeded inputs, the output checker, and
the tracer's wrapping and restoring of asymflat's functions."""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import run, tracer, workloads  # noqa: E402
from perfbench.workloads import Command  # noqa: E402


def _mass_doc(limit):
    return {"command": "mass", "results": {"mass": {"limit": limit}}}


def _curv_doc(n, m, center, ratio_scale=1.0):
    b = workloads.curvcenter_ratio(n, 1)
    return {"command": "curvcenter", "results": {
        f"curvcenter[{i}]": {"limit": b * m * center[i], "ratio": b * ratio_scale}
        for i in range(n)}}


def test_build_is_seeded_and_in_range():
    for name in workloads.GENERATORS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
    center = workloads.build("center_lowdim", 3)
    assert [c.config["n"] for c in center.commands] == [4, 4, 3, 3, 3, 3]
    for cmd in center.commands:
        assert min(abs(t) for t in cmd.config["center"]) >= 0.2
        assert 0.5 <= cmd.config["m"] <= 2.0
    mass = workloads.build("mass_highdim", 3)
    assert mass.contexts == ((5, 2),)
    assert math.hypot(*mass.commands[0].config["center"]) <= 1.0
    assert workloads.build("verify_algebra", 3).contexts == ()


def test_checker_rejects_a_wrong_mass_limit():
    cmd = Command("mass", {}, {"n": 5, "k": 2, "m": 1.5})
    good = workloads.check_results(cmd, _mass_doc(1.5 ** 2 + 1e-6))
    bad = workloads.check_results(cmd, _mass_doc(1.5 ** 2 + 2e-3))
    assert [op.ok for op in good] == [True]
    assert [op.ok for op in bad] == [False]
    assert bad[0].err == pytest.approx(2e-3)


def test_checker_curvcenter_ratio_center_and_nan():
    center = [0.3, -0.5, 0.7]
    cmd = Command("curvcenter", {"n": 3}, {"n": 3, "k": 1, "m": 1.2, "center": center})
    assert all(op.ok for op in workloads.check_results(cmd, _curv_doc(3, 1.2, center)))
    off = workloads.check_results(cmd, _curv_doc(3, 1.2, center, ratio_scale=1.02))
    assert not any(op.ok for op in off)
    shifted = workloads.check_results(cmd, _curv_doc(3, 1.2, [0.31, -0.5, 0.7]))
    assert [op.ok for op in shifted] == [False, True, True]
    doc = _curv_doc(3, 1.2, center)
    doc["results"]["curvcenter[1]"]["ratio"] = float("nan")
    assert [op.ok for op in workloads.check_results(cmd, doc)] == [True, False, True]


def test_checker_invariance_and_verify():
    cmd = Command("invariance", {}, {"n": 4, "k": 1, "m": 0.8})
    doc = {"command": "invariance", "results": {"mass": {
        "mass_g": 0.8, "delta_limit": 2e-6, "passed": True}}}
    assert workloads.check_results(cmd, doc)[0].ok
    doc["results"]["mass"]["passed"] = False
    assert not workloads.check_results(cmd, doc)[0].ok
    vdoc = {"command": "verify", "results": {"checks": [
        {"name": "a", "p": 1, "q": 1, "passed": True},
        {"name": "b", "p": 2, "q": 0, "passed": False}]}}
    ops = workloads.check_results(Command("verify", {}, {}), vdoc)
    assert [op.ok for op in ops] == [True, False]
    assert all(op.err is None for op in ops)
    with pytest.raises(ValueError):
        workloads.check_results(cmd, vdoc)


def test_check_pass_rejects_non_identical_json_and_failed_commands():
    cmd = Command("mass", {}, {"n": 3, "k": 1, "m": 1.0})
    wl = workloads.Workload("w", (cmd,), ((3, 1),))
    same = json.dumps(_mass_doc(1.0)).encode()
    other = json.dumps(_mass_doc(1.0 + 1e-12)).encode()
    ok = {"commands": [{"rc": 0, "error": None}], "outputs": [same]}
    assert [op.ok for op in run.check_pass(wl, ok, [same])] == [True]
    differs = {"commands": [{"rc": 0, "error": None}], "outputs": [other]}
    assert [op.ok for op in run.check_pass(wl, differs, [same])] == [False]
    crashed = {"commands": [{"rc": None, "error": "Traceback\nValueError: x"}],
               "outputs": [None]}
    assert [op.ok for op in run.check_pass(wl, crashed, [same])] == [False]
    exit1 = {"commands": [{"rc": 1, "error": None}], "outputs": [same]}
    assert [op.ok for op in run.check_pass(wl, exit1, [same])] == [False]


def _bindings():
    """Every attribute of every asymflat module and metric class."""
    import asymflat.cli  # noqa: F401
    snap = {}
    for module in tracer._modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    snap[(module.__name__, attr, cattr)] = cvalue
    return snap


def test_tracer_restores_every_original(tmp_path):
    import asymflat
    from asymflat import dforms, invariants
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert invariants.wedge is not before[("asymflat.dforms", "wedge")]
        assert invariants.wedge is dforms.wedge is asymflat.wedge
        assert invariants.sphere_rule.cache_info() == before[
            ("asymflat.invariants", "sphere_rule")].cache_info()
        g = asymflat.make_schwarzschild(3, 1, 1.0, center=[0.5, 0.0, 0.0])
        res = invariants.gbc_mass(g, asymflat.GBCContext(3, 1), [20.0, 40.0, 80.0],
                                  level=4, step=1.0)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    t.dump(str(tmp_path / "trace.json"))
    doc = json.loads((tmp_path / "trace.json").read_text())
    m = tracer.layer_metrics(doc)
    assert set(m) == set(tracer.LAYER_METRICS)
    assert m["invariants.passes"] >= 6 and m["invariants.nodes"] > 0
    assert 0.0 < m["invariants.confirm_frac"] < 1.0
    assert m["fields.jet_calls"] > 0 and m["dforms.wedge_calls"] > 0
    assert m["gbc.context_s"] > 0.0
    assert math.isfinite(res.limit)


def test_layer_metrics_self_time_and_base_calls():
    names = ["chartchange.pullback", "fields.jet", "cli.main"]
    spans = [[2, 0.0, 10.0, -1],
             [0, 1.0, 6.0, 0],
             [1, 2.0, 3.0, 1],
             [1, 3.5, 4.0, 1],
             [1, 7.0, 8.0, 0]]
    doc = {"names": names, "spans": spans,
           "counts": {"nodes": 0, "first_pass_nodes": 0, "passes": 0,
                      "identity_checks": 0},
           "caches": {}}
    m = tracer.layer_metrics(doc)
    assert m["cli.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert m["chartchange.pullback_self_s"] == pytest.approx(5.0 - 1.5)
    assert m["chartchange.base_calls_per_call"] == 2.0
    assert m["fields.jet_s"] == pytest.approx(2.5)
    assert m["fields.jet_calls"] == 3.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **tracer.LAYER_METRICS, **run.RUN_LAYER_METRICS}
