"""Tests of the benchmark itself: input generation, correctness checks, tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.CYCLES))
def test_generator_is_deterministic_per_seed(workload):
    assert gen.dump(workload, 7, 2) == gen.dump(workload, 7, 2)
    assert gen.dump(workload, 7, 2) != gen.dump(workload, 8, 2)


def test_generator_does_not_use_the_program():
    code = (
        "import sys, gen\n"
        "for w in gen.CYCLES: gen.dump(w, 1, 1)\n"
        "assert not any(m.startswith('ballbodies') for m in sys.modules)\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)


def test_dist_cycle_has_the_stated_mix():
    it = gen.iter_cycles("dist-corpus", 3)
    big = {2: [], 3: []}
    for _ in range(4):
        cycle = next(it)
        assert len(cycle) == 20
        assert sum(op["dim"] == 3 for op in cycle) == 12
        for op in cycle:
            for side in ("a", "b"):
                assert _wrappers(op[side]) <= 3
                m = max(len(leaf["centers"]) for leaf in _leaves(op[side]))
                if m > 8:
                    big[op["dim"]].append(m)
    # four cycles step the 2-d big leaves through 9..16; 3-d has none
    assert sorted(big[2]) == list(range(9, 17))
    assert big[3] == []


def _wrappers(doc):
    if doc["type"] == "generators":
        return 0
    return 1 + max(_wrappers(doc[key]) for key in ("of", "a", "b") if key in doc)


def _leaves(doc):
    if doc["type"] == "generators":
        return [doc]
    return [leaf for key in ("of", "a", "b") if key in doc for leaf in _leaves(doc[key])]


def test_distance_check_rejects_a_perturbed_distance():
    from ballbodies import bodies, geometry

    support = sys.modules["ballbodies.support"]
    net = geometry.make_sphere_net(2, 0.05)
    for op in next(gen.iter_cycles("dist-corpus", 5)):
        if "expect" not in op or op["dim"] != 2:
            continue
        res = support.hausdorff(bodies.parse_body(op["a"]), bodies.parse_body(op["b"]), net)
        out = {"interval": (res.lower, res.upper), "bound": res.error_bound}
        assert checks.distance(out, op["expect"]) is None
        off = res.error_bound + 1e-3
        assert checks.distance(out, op["expect"] + off) is not None
        assert checks.distance(out, op["expect"] - off) is not None


def test_interval_checks_reject_malformed_and_disjoint_intervals():
    assert checks.distance({"interval": (0.5, 0.4), "bound": 0.1}, None) is not None
    assert checks.distance({"interval": (0.5, 0.6), "bound": 0.0}, None) is not None
    assert checks.intervals_overlap([(0.0, 1.0), (0.5, 2.0), (0.9, 1.1)]) is None
    assert checks.intervals_overlap([(0.0, 1.0), (1.5, 2.0)]) is not None


def _planted():
    return [op for op in next(gen.iter_cycles("classify-planted", 2)) if op["expect"]["kind"] != "not-isometry"]


def test_classification_check_rejects_a_wrong_kind_or_motion():
    op = _planted()[0]
    exp = op["expect"]
    right = {"kind": exp["kind"], "rotation": exp["rotation"], "translation": exp["translation"],
             "residual": 1e-15, "residual_bound": 0.2}
    assert checks.classification(exp, right) is None
    wrong_kind = dict(right, kind="cdual" if exp["kind"] == "identity" else "identity")
    assert checks.classification(exp, wrong_kind) is not None
    moved = dict(right, translation=(np.asarray(exp["translation"]) + 1e-3).tolist())
    assert checks.classification(exp, moved) is not None
    assert checks.classification(exp, dict(right, residual=1.01)) is not None
    assert checks.classification({"kind": "not-isometry"}, right) is not None


def test_reconstruction_check_rejects_a_body_sticking_out():
    assert checks.reconstruction({"dominance_min": 2e-6, "value": 0.003, "bound": 0.06}, 1e-6) is None
    assert checks.reconstruction({"dominance_min": -1e-3, "value": 0.003, "bound": 0.06}, 1e-6) is not None


def _cli_ops():
    return {op["name"]: op for op in next(gen.iter_cycles("cli-oneshot", 4))}


def test_cli_check_rejects_a_nonzero_exit_code():
    op = _cli_ops()["cdual-check"]
    report = {"result": {"passed": True}}
    assert checks.cli_report(op, 0, report) is None
    assert checks.cli_report(op, 3, report) is not None
    assert checks.cli_report(op, 0, None) is not None
    assert checks.cli_report(op, 0, {"result": {"passed": False}}) is not None


def test_cli_check_compares_reports_with_closed_forms():
    ops = _cli_ops()
    dist = ops["dist2"]
    value = dist["expect"]["value"]
    ok = {"config": {"support_tol": 1e-6}, "result": {"value": value, "error_bound": 0.1}}
    assert checks.cli_report(dist, 0, ok) is None
    far = {"config": {"support_tol": 1e-6}, "result": {"value": value + 0.2, "error_bound": 0.1}}
    assert checks.cli_report(dist, 0, far) is not None
    sup = ops["support"]
    assert checks.cli_report(sup, 0, {"result": {"value": sup["expect"]["value"], "tolerance": 1e-6}}) is None
    assert checks.cli_report(sup, 0, {"result": {"value": sup["expect"]["value"] + 1e-3, "tolerance": 1e-6}}) is not None
    circ = ops["circ"]
    good = {"center": circ["expect"]["center"], "radius": 1.0}
    assert checks.cli_report(circ, 0, {"result": good}) is None
    assert checks.cli_report(circ, 0, {"result": dict(good, radius=1.01)}) is not None
    surj = ops["surjectivity-rigid"]
    assert checks.cli_report(surj, 0, {"result": {"verdict": "surjective-evidence"}}) is None
    assert checks.cli_report(surj, 0, {"result": {"verdict": "violation"}}) is not None


def test_relative_latencies_cancel_a_host_slowdown():
    import reference
    import run

    class OneSlotKeyPerPosition:
        period = 1

        def slot_key(self, index, pos):
            return pos

    ref = reference.Reference(op_processes=False)
    loops = []
    for index, slowdown in enumerate((1.0, 1.0, 1.0, 2.0, 2.0, 2.0)):  # the host halves its speed
        loop = run.Loop(None, index, ref)
        for pos, cost in enumerate((0.3, 0.9)):
            loop.starts.append(10.0 * index + 5.0 * pos)
            loop.latencies.append(cost * slowdown)
            ref.ends.append(10.0 * index + 5.0 * pos + 1.0)
            ref.seconds.append(0.1 * slowdown)
        loops.append(loop)
    assert run.relative_latencies(loops) == pytest.approx([3.0, 9.0] * 6)
    assert run.slot_figures(OneSlotKeyPerPosition(), loops, run.relative_latencies(loops)) == pytest.approx([3.0, 9.0])
    assert run.interquartile_mean([5.0, 1.0, 2.0, 3.0, 100.0]) == pytest.approx(10.0 / 3)


def test_self_time_subtracts_child_spans():
    recorded = [
        ["support.hausdorff", 0.0, 10.0, -1, 0, {}],
        ["support.on_net", 1.0, 5.0, 0, 0, {}],
        ["solver.support_batch", 1.5, 4.5, 1, 0, {"dirs": 100, "fallback": True}],
        ["support.on_net", 6.0, 7.0, 0, 0, {}],
    ]
    m = spans.summarize(recorded, {})
    assert m["support.self_s"][0] == pytest.approx(10.0 - 3.0)
    assert m["solver.self_s"][0] == pytest.approx(3.0)
    assert m["solver.fallback_dirs"][0] == 100
    assert m["support.on_net.hit_ratio"][0] == pytest.approx(0.5)
    assert m["support.leaf_solves_per_hausdorff"][0] == pytest.approx(1.0)


def test_tracer_records_layers_and_restores_bindings():
    from ballbodies import bodies, geometry

    support = sys.modules["ballbodies.support"]
    lab = sys.modules["ballbodies.lab"] if "ballbodies.lab" in sys.modules else None
    original = support.hausdorff
    tracer = spans.Tracer()
    tracer.install()
    try:
        net = geometry.make_sphere_net(2, 0.1)
        support.hausdorff(bodies.parse_body(gen.ball_doc([0.0, 0.0])), bodies.parse_body(gen.point_doc([1.0, 0.0])), net)
    finally:
        tracer.uninstall()
    assert support.hausdorff is original
    assert lab is None or lab.hausdorff is original
    names = [s[0] for s in tracer.spans]
    assert names.count("bodies.parse_body") == 2  # the recursive call stays in its outer span
    assert {"geometry.make_sphere_net", "solver.prepare_leaf", "support.hausdorff", "solver.support_batch"} <= set(names)


def test_fallback_follows_the_solvers_enumeration_limit(monkeypatch):
    from ballbodies import bodies, geometry, solver

    support = sys.modules["ballbodies.support"]
    body = gen.body_doc(np.random.default_rng(0), 2, "leaf", 4)
    net = geometry.make_sphere_net(2, 0.1)
    seen = []
    for limit in (8, 3):
        monkeypatch.setattr(solver, "ENUM_MAX_CENTERS", limit)
        tracer = spans.Tracer()
        tracer.install()
        try:
            support.hausdorff(bodies.parse_body(body), bodies.parse_body(gen.ball_doc([0.0, 0.0])), net)
        finally:
            tracer.uninstall()
        seen.append(any(s[5].get("fallback") for s in tracer.spans if s[0] == "solver.support_batch"))
    assert seen == [False, True]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dist-corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
