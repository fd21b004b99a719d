"""Command-line front end: reports against closed forms, exit codes, SciPy-free commands."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ballbodies
import ballbodies.cli as cli_module
from ballbodies.solver import DEFAULT_TOL
from ballbodies.support import SupportEval
from ballbodies.cli import EXIT_INVARIANT, EXIT_PARSE, EXIT_PREMISE, EXIT_RESOLUTION, main
from ballbodies.maps import parse_map
from ballbodies.planar import surjectivity_probe_planar
from ballbodies.raster import ORACLE_CELL


def ball_doc(c) -> str:
    return json.dumps({"type": "generators", "centers": [list(map(float, c))]})


def point_doc(x) -> str:
    # the c-dual of the unit ball around x is the point x
    return json.dumps({"type": "cdual", "of": json.loads(ball_doc(x))})


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def report(*args) -> dict:
    result = run_cli(*args)
    assert result.exit_code == 0, (result.output, result.stderr, result.exception)
    doc = json.loads(result.output)
    assert doc["tool"] == "ballbodies" and doc["command"] == args[0]
    return doc["result"]


@pytest.mark.parametrize("dim", [2, 3])
def test_dist_point_to_ball(dim):
    rng = np.random.default_rng(dim)
    x, y = rng.uniform(-0.5, 0.5, dim), rng.uniform(-0.5, 0.5, dim)
    res = report("dist", point_doc(x), ball_doc(y))
    assert abs(res["value"] - (1.0 + np.linalg.norm(x - y))) <= res["error_bound"]


@pytest.mark.parametrize("dim", [2, 3])
def test_dist_oracle_agrees_with_the_kernel_in_the_plane(dim):
    rng = np.random.default_rng(dim + 10)
    lens = json.dumps({"type": "generators", "centers": rng.uniform(-0.4, 0.4, (2, dim)).tolist()})
    result = run_cli("--oracle", "dist", lens, point_doc(rng.uniform(-0.5, 0.5, dim)))
    assert result.exit_code == 0, (result.output, result.exception)
    res = json.loads(result.output)["result"]
    if dim == 2:
        assert abs(res["oracle_value"] - res["value"]) <= res["error_bound"] + 4 * ORACLE_CELL
    else:
        assert res["oracle_value"] is None


def test_support_of_ball():
    c, u = np.array([0.3, -0.2, 0.5]), np.array([0.6, 0.0, 0.8])
    res = report("support", ball_doc(c), "--direction", json.dumps(u.tolist()))
    assert res["value"] == pytest.approx(float(c @ u) + 1.0, abs=res["tolerance"])


def test_circ_of_ball():
    c = np.array([0.4, -0.7])
    res = report("circ", ball_doc(c))
    np.testing.assert_allclose(res["center"], c, atol=1e-6)
    assert res["radius"] == pytest.approx(1.0, abs=1e-6)


def test_support_of_a_thin_lens_is_certified_or_exits_resolution():
    # unit disks about -+c e_1 meet in a lens of height sqrt(1 - c^2) = 1.41e-7
    c = 0.99999999999999
    doc = {"type": "generators", "centers": [[-c, 0.0], [c, 0.0]]}
    height = math.sqrt(1.0 - c * c)
    for body in (doc, {**doc, "boundary": True}):  # a key the format does not define is ignored
        res = report("support", json.dumps(body), "-u", "[0, 1]")
        assert abs(res["value"] - height) <= res["tolerance"] == DEFAULT_TOL
    result = run_cli("--tol", "1e-9", "support", json.dumps(doc), "-u", "[0, 1]")
    assert result.exit_code == EXIT_RESOLUTION, (result.output, result.exception)
    assert "point-like leaf" in json.loads(result.stderr)["error"]["message"]


def test_circumball_failure_exits_resolution(monkeypatch):
    # non-finite support values must end in the documented exit, not a NaN ball
    monkeypatch.setattr(SupportEval, "on_net", lambda self, net: np.full(len(net), np.nan))
    result = run_cli("circ", ball_doc([0.4, -0.7]))
    assert result.exit_code == EXIT_RESOLUTION == 5
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "NoConvergenceError"
    assert "n=2 over 158 directions: 158 support values are not finite" in error["message"]


def test_cdual_check_passes():
    body = {
        "type": "combine",
        "lambda": 0.4,
        "a": {"type": "generators", "centers": [[0.0, 0.0], [0.5, 0.1]]},
        "b": {"type": "cdual", "of": {"type": "generators", "centers": [[0.2, 0.3]]}},
    }
    res = report("cdual-check", json.dumps(body))
    assert res["passed"] is True


def test_surjectivity_of_planar_rigid_map():
    t = 0.7
    doc = {
        "map": "planar_rigid",
        "rotation": [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]],
        "translation": [0.3, -0.1],
    }
    res = report("surjectivity", json.dumps(doc), "--target", "[0.5, 1.0]")
    assert res["verdict"] == "surjective-evidence"


@pytest.mark.parametrize("target", ["[1e13, 0]", "[1e16, 0]"])
def test_surjectivity_of_a_rigid_map_at_a_far_target(target):
    # f(x) - target rounds at the scale of |target|, far beyond the absolute ROOT_TOL
    doc = {"map": "planar_rigid", "rotation": [[0, -1], [1, 0]], "translation": [0.2, 0.1]}
    res = report("surjectivity", json.dumps(doc), "--target", target)
    assert res["verdict"] == "surjective-evidence"
    assert res["hypothesis_flags"] == [] and res["preimage"] is not None


@pytest.mark.parametrize("target", ["[1e17, 0]", "[1e30, 0]"])
def test_rounding_at_a_far_target_is_no_distortion(target):
    # an exact rigid motion: distances between points and images of the
    # target's size round at that size, which is no distortion of the map
    doc = {"map": "planar_rigid", "rotation": [[0, -1], [1, 0]], "translation": [0.2, 0.1]}
    res = report("surjectivity", json.dumps(doc), "--target", target)
    assert res["notes"] == [] and res["epsilon_hat"] <= 1e-6
    assert res["verdict"] == "surjective-evidence" and res["hypothesis_flags"] == []


def test_a_smooth_map_is_not_called_discontinuous_at_a_far_target():
    # the continuity probe's separations are absolute, not fractions of the probe radius
    doc = {"map": "planar_perturbed", "amplitude": 0.1, "seed": 3}
    res = report("surjectivity", json.dumps(doc), "--target", "[1e12, 3]")
    assert res["notes"] == [] and "continuity" not in res["hypothesis_flags"]
    assert res["verdict"] == "surjective-evidence"


def test_a_radial_hole_keeps_its_distortion_and_continuity_flag():
    res = report("surjectivity", '{"map": "planar_radial_hole"}', "--target", "[0.5, 0]")
    assert "continuity" in res["hypothesis_flags"] and res["verdict"] == "violation"
    assert res["notes"][0] == "distance distortion 2.000 persists at separations down to 2.0e-08; the map cannot be continuous"
    assert f"{res['epsilon_hat']:.3f}" == "2.000"


def test_a_target_too_far_to_probe_exits_invariant_without_warnings():
    doc = {"map": "planar_rigid", "rotation": [[0, -1], [1, 0]], "translation": [0.2, 0.1]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli("surjectivity", json.dumps(doc), "--target", "[1e200, 0]")
    assert result.exit_code == EXIT_INVARIANT and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith("target [1e+200, 0.0] is too far from f(0)")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "args, call",
    [
        (("reconstruct", "--grid-step", "1e-9", ball_doc([0.1, 0.2])), "reconstruct_from_grid"),
        (("dist", ball_doc([0.0] * 8), ball_doc([0.1] * 8)), "make_sphere_net"),
    ],
    ids=["reconstruct-grid", "dist-net"],
)
def test_out_of_memory_exits_resolution(args, call, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 44.7 GiB for an array")

    monkeypatch.setattr(f"ballbodies.cli.{call}", exhausted)
    result = run_cli(*args)
    assert result.exit_code == EXIT_RESOLUTION, (result.output, result.exception)
    assert json.loads(result.stderr)["error"] == {
        "type": "MemoryError",
        "message": "Unable to allocate 44.7 GiB for an array",
    }


def test_surjectivity_uses_the_seed():
    doc = {"map": "planar_perturbed", "amplitude": 0.2, "seed": 1}
    T, y = parse_map(doc, 2), [0.5, -0.3]
    result = run_cli("--seed", "3", "surjectivity", json.dumps(doc), "--target", json.dumps(y))
    assert result.exit_code == 0, (result.output, result.stderr, result.exception)
    got = json.loads(result.output)["result"]
    assert got == json.loads(json.dumps(surjectivity_probe_planar(T, y, seed=3).to_doc()))
    assert got != json.loads(json.dumps(surjectivity_probe_planar(T, y, seed=0).to_doc()))


def test_reconstruct_of_a_point():
    # each probe radius is a certified upper bound on |x_i - p|, at most
    # 8.9e-4 above it on this grid, so the 169 balls contain the point and
    # meet in a small region around it
    res = report("reconstruct", point_doc([0.2, -0.1]))
    assert res["probes"] == 169
    assert res["support_dominance_min"] >= -DEFAULT_TOL
    assert res["distance"] <= 1e-4


def test_geodesic_check_claims_no_collapse_in_the_band_above_the_point_radius():
    # the midpoint is a ball of radius 9.995e-4, just below the 1e-3 point
    # radius; on a 0.8 net its upper end is (9.995e-4 + tol) / 0.68 = 1.47e-3,
    # so it is not certified a near-point and no collapse is claimed.  Nor is
    # the triple shown geodesic: the additivity tolerance exceeds 2 min(d01,
    # d12), the largest gap the triangle inequality allows
    point, ball = json.loads(point_doc([0.5, 0.0])), json.loads(ball_doc([0.5, 0.0]))
    middle = json.dumps({"type": "combine", "lambda": 0.0009995, "a": point, "b": ball})
    result = run_cli("--mesh", "0.8", "geodesic-check", ball_doc([0.0, 0.0]), middle, ball_doc([1.0, 0.0]))
    assert result.exit_code == 0, (result.output, result.stderr, result.exception)
    check = json.loads(result.output)["result"]
    d01, d12, _ = check["distances"]
    assert check["additive"] and check["additivity_tol"] >= 2 * min(d01, d12)
    assert check["verdict"] == "inconclusive"
    lower, upper = check["radius_bounds"][1]
    assert lower <= 9.995e-4 <= 1e-3 < upper == pytest.approx((9.995e-4 + DEFAULT_TOL) / 0.68, rel=1e-9)


def test_geodesic_check_calls_a_collapse_inconclusive_where_additivity_rejects_nothing():
    # on a 0.8 net the additivity tolerance exceeds 2 min(d01, d12), the
    # largest gap the triangle inequality allows, so the triple is not shown
    # to be a geodesic one; on the default net it is shown not to be
    triple = (ball_doc([0.0, 0.0]), point_doc([0.5, 0.0]), ball_doc([1.0, 0.0]))
    result = run_cli("--mesh", "0.8", "geodesic-check", *triple)
    assert result.exit_code == 0, (result.output, result.stderr, result.exception)
    coarse = json.loads(result.output)["result"]
    assert coarse["distances"] == pytest.approx([1.5, 1.5, 1.0], abs=1e-9)
    assert coarse["additive"] and coarse["additivity_tol"] >= 3.0
    assert coarse["verdict"] == "inconclusive"
    assert report("geodesic-check", *triple)["verdict"] == "not-a-geodesic-triple"


def test_malformed_json_exits_parse():
    result = run_cli("support", "{not json", "--direction", "[1, 0]")
    assert result.exit_code == EXIT_PARSE == 2
    assert json.loads(result.stderr)["error"]["type"] == "JSONDecodeError"


@pytest.mark.parametrize(
    "operand, error",
    [("x" * 300, "OSError"), (".", "IsADirectoryError"), ("absent.json", "FileNotFoundError")],
    ids=["not-json-and-too-long-a-name", "directory", "missing"],
)
def test_an_operand_that_cannot_be_opened_exits_parse(operand, error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli("support", operand, "--direction", "[1, 0]")
    assert result.exit_code == EXIT_PARSE and result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == error


def test_an_unreadable_operand_exits_parse(monkeypatch):
    # chmod cannot hide a file from a superuser, so the refusal is injected
    def refused(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli_module, "open", refused, raising=False)
    result = run_cli("support", "body.json", "--direction", "[1, 0]")
    assert result.exit_code == EXIT_PARSE and result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "PermissionError"


def test_a_file_that_is_not_utf8_exits_parse(tmp_path):
    path = tmp_path / "body.json"
    path.write_bytes(b'{"type": "generators", "centers": [[0.0, 0.0]], "note": "\xff"}')
    result = run_cli("support", str(path), "--direction", "[1, 0]")
    assert result.exit_code == EXIT_PARSE and result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "UnicodeDecodeError"


PLANAR_RIGID = json.dumps({"map": "planar_rigid", "rotation": [[1, 0], [0, 1]], "translation": [0, 0]})


@pytest.mark.parametrize(
    "args, message",
    [
        (("selftest", "--criteria", "a"), "invalid literal"),
        (("reconstruct", point_doc([0.2, -0.1]), "--grid-step", "0"), "step > 0"),
        (("reconstruct", point_doc([0.2, -0.1]), "--grid-step", "-1"), "step > 0"),
        (("reconstruct", point_doc([0.2, -0.1]), "--grid-extent", "-1"), "extent >= 0"),
        (("--tol", "nan", "dist", point_doc([0.2, -0.1]), ball_doc([0.0, 0.0])), "tolerance must be positive"),
        (("--tol", "nan", "classify", '{"map": "cdual"}'), "tolerance must be positive"),
        (("--mesh", "-1", "selftest", "--criteria", "1"), "mesh must lie in"),
        (("--tol", "nan", "selftest", "--criteria", "1"), "tolerance must be positive"),
        (("surjectivity", PLANAR_RIGID, "--target", "5"), "expected a 1-d vector"),
        (("surjectivity", PLANAR_RIGID, "--target", "[NaN, 0]"), "vector has non-finite entries"),
        (("--mesh", "1.5", "reconstruct", point_doc([0.2, -0.1])), "mesh below sqrt(2), got 1.5"),
        (("--tol", "inf", "dist", point_doc([0.2, -0.1]), ball_doc([0.0, 0.0])), "positive and finite, got inf"),
        (("--tol", "inf", "selftest", "--criteria", "1"), "positive and finite, got inf"),
        (("--seed", "-1", "selftest", "--criteria", "1"), "seed must be non-negative, got -1"),
        (("--seed", "-1", "classify", '{"map": "cdual"}'), "seed must be non-negative, got -1"),
        (("--seed", "-1", "surjectivity", PLANAR_RIGID, "--target", "[0.5, 0]"), "seed must be non-negative, got -1"),
        (("--mesh", "1.5", "classify", '{"map": "cdual"}'), "do not span R^2: ball fits need rank 3, got 2"),
        (("--dim", "3", "--mesh", "1.5", "geodesic-check", *[ball_doc([0, 0, 0])] * 3), "mesh below sqrt(2), got 1.5"),
        (("surjectivity", '{"map": "cdual"}', "--target", "[0.5, 0]"), "needs a planar point map"),
    ],
    ids=[
        "criteria-a",
        "grid-step-0",
        "grid-step-negative",
        "grid-extent-negative",
        "tol-nan-dist",
        "tol-nan-classify",
        "mesh-negative-selftest",
        "tol-nan-selftest",
        "scalar-target-surjectivity",
        "nan-target-surjectivity",
        "mesh-void-reconstruct",
        "tol-inf-dist",
        "tol-inf-selftest",
        "seed-negative-selftest",
        "seed-negative-classify",
        "seed-negative-surjectivity",
        "mesh-void-classify",
        "mesh-void-geodesic-check",
        "body-map-surjectivity",
    ],
)
def test_bad_arguments_exit_invariant(args, message):
    result = run_cli(*args)
    assert result.exit_code == EXIT_INVARIANT, (result.output, result.exception)
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ValueError"
    assert message in error["message"]


@pytest.mark.parametrize(
    "args, message",
    [
        (("classify", '{"map": "scale_centers", "factor": "nan"}'), "factor must be finite, got nan"),
        (
            ("surjectivity", '{"map": "planar_perturbed", "amplitude": "nan"}', "--target", "[0.5, 0]"),
            "amplitude must be finite, got nan",
        ),
    ],
    ids=["scale-centers-factor", "planar-perturbed-amplitude"],
)
def test_non_finite_map_parameters_exit_parse(args, message):
    result = run_cli(*args)
    assert result.exit_code == EXIT_PARSE, (result.output, result.exception)
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "DocumentError"
    assert message in error["message"]


BIG = "1" + "0" * 400  # a JSON integer beyond float range


@pytest.mark.parametrize(
    "args, code",
    [
        (("dist", '{"type": "generators", "centers": [[%s, 0]]}' % BIG, ball_doc([0, 0])), EXIT_PARSE),
        (("classify", '{"map": "scale_centers", "factor": %s}' % BIG), EXIT_PARSE),
        (("classify", '{"map": "motion", "rotation": [[1, 0], [0, 1]], "translation": [%s, 0]}' % BIG), EXIT_PARSE),
        (
            ("surjectivity", '{"map": "planar_perturbed", "amplitude": 0.1, "seed": 1e400}', "--target", "[0.5, 0]"),
            EXIT_PARSE,
        ),
        (("support", ball_doc([0, 0]), "-u", "[" * 5000), EXIT_PARSE),
        (("support", ball_doc([0, 0]), "-u", "[%s, 1]" % ("1" * 5000)), EXIT_PARSE),
        (("support", ball_doc([0, 0]), "-u", "[{}, 1]"), EXIT_INVARIANT),
        (("support", ball_doc([0, 0]), "-u", "[%s, 1]" % BIG), EXIT_INVARIANT),
        (("surjectivity", PLANAR_RIGID, "--target", "[{}, 1]"), EXIT_INVARIANT),
        (("surjectivity", PLANAR_RIGID, "--target", "[%s, 1]" % BIG), EXIT_INVARIANT),
    ],
    ids=[
        "dist-big-coordinate",
        "classify-big-factor",
        "classify-big-translation",
        "surjectivity-infinite-seed",
        "support-direction-nested-too-deep",
        "support-direction-too-many-digits",
        "support-direction-object",
        "support-direction-big",
        "surjectivity-target-object",
        "surjectivity-target-big",
    ],
)
def test_operand_values_that_do_not_convert_exit_with_the_json_error(args, code):
    # document values exit 2 (DocumentError), option vectors 3 (ValueError)
    result = run_cli(*args)
    assert result.exit_code == code, (result.output, result.exception)
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == ("DocumentError" if code == EXIT_PARSE else "ValueError")


def test_a_body_file_nested_too_deep_exits_parse(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    result = run_cli("circ", str(path))
    assert result.exit_code == EXIT_PARSE and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "DocumentError" and "recursion" in error["message"]


def test_a_body_whose_norm_bound_squared_overflows_exits_parse():
    # its Hausdorff error bound would be inf, which strict JSON cannot carry
    result = run_cli("dist", ball_doc([0.0, 0.0]), ball_doc([1e308, 0.0]))
    assert result.exit_code == EXIT_PARSE and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "DocumentError" and "norm bound inf is too large" in error["message"]


def test_a_map_whose_image_overflows_is_no_isometry():
    result = run_cli("classify", '{"map": "scale_centers", "factor": 1e300}')
    assert result.exit_code == EXIT_PREMISE, (result.output, result.exception)
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "NotIsometryError" and "norm bound inf" in error["message"]


def test_a_map_document_nested_too_deep_exits_parse():
    doc = {"map": "cdual"}
    for _ in range(17):
        doc = {"map": "compose", "of": [doc]}
    result = run_cli("classify", json.dumps(doc))
    assert result.exit_code == EXIT_PARSE, (result.output, result.exception)
    error = json.loads(result.stderr)["error"]
    assert (error["type"], error["message"]) == ("DocumentError", "map document nests deeper than 16")


@pytest.mark.parametrize(
    "args",
    [
        ("--dim", "3", "circ", ball_doc([0.0, 0.0])),
        ("--dim", "3", "surjectivity", PLANAR_RIGID, "--target", "[0.5, 0]"),
        ("surjectivity", PLANAR_RIGID, "--target", "[1, 2, 3]"),
    ],
    ids=["dim-flag-circ", "dim-flag-surjectivity", "target-surjectivity"],
)
def test_dimension_mismatch_exits_invariant(args):
    result = run_cli(*args)
    assert result.exit_code == EXIT_INVARIANT == 3
    assert json.loads(result.stderr)["error"]["type"] == "DimensionMismatchError"


@pytest.mark.parametrize(
    "args, message",
    [
        (("dist", ball_doc([0.0, 0.0]), ball_doc([0.0, 0.0, 0.0])), "bodies have dimensions 2 and 3"),
        (
            ("geodesic-check", ball_doc([0.0, 0.0]), ball_doc([0.0, 0.0, 0.0]), ball_doc([1.0, 0.0])),
            "bodies have dimensions 2, 3 and 2",
        ),
    ],
    ids=["dist", "geodesic-check"],
)
def test_operands_of_two_dimensions_are_named(args, message):
    result = run_cli(*args)
    assert result.exit_code == EXIT_INVARIANT
    error = json.loads(result.stderr)["error"]
    assert (error["type"], error["message"]) == ("DimensionMismatchError", message)


COMMAND_RUNS = {
    "dist": (("dist", point_doc([0.1, 0.2]), ball_doc([0.0, 0.0])), 0),
    "support": (("support", ball_doc([0.1, 0.2]), "-u", "[0.6, 0.8]"), 0),
    "cdual-check": (("cdual-check", ball_doc([0.1, 0.2])), 0),
    "circ": (("circ", ball_doc([0.1, 0.2])), 0),
    "reconstruct": (("reconstruct", point_doc([0.2, -0.1]), "--grid-step", "0"), EXIT_INVARIANT),
    "geodesic-check": (("geodesic-check", ball_doc([0.0, 0.0]), point_doc([0.5, 0.0]), ball_doc([1.0, 0.0])), 0),
    # a point map takes no body: a usage error, not a map failing the isometry premise
    "classify": (("classify", PLANAR_RIGID), EXIT_INVARIANT),
    "surjectivity": (("surjectivity", PLANAR_RIGID, "--target", "[0.5, 1.0]"), 0),
    "selftest": (("selftest", "--criteria", "a"), EXIT_INVARIANT),
}


@pytest.mark.parametrize("name", sorted(main.commands))  # a command with no run fails here
def test_every_command_reports_or_errors_under_its_own_name(name):
    args, code = COMMAND_RUNS[name]
    result = run_cli(*args)
    assert result.exit_code == code, (result.output, result.exception)
    doc = json.loads(result.stdout if code == 0 else result.stderr)
    assert doc["command"] == name
    assert ("result" in doc) == (code == 0)


def test_selftest_with_an_unwritable_out_path_exits_parse(tmp_path):
    # the report is written inside the shared error mapping, as for every other command
    out = tmp_path / "missing" / "report.json"
    result = run_cli("--out", str(out), "selftest", "--profile", "quick", "--criteria", "12")
    assert result.exit_code == EXIT_PARSE, (result.output, result.exception)
    assert json.loads(result.stderr)["error"]["type"] == "FileNotFoundError"


def test_a_map_failing_after_screening_exits_premise():
    # scaling by 1.12 moves no probe distance by more than 0.48 < DEFECT_TOL,
    # so it passes screening whatever the bound; it then cannot scale a
    # stage-3 test body: that failure, too, shows the map is not an isometry
    result = run_cli("--dim", "3", "classify", '{"map": "scale_centers", "factor": 1.12}')
    assert result.exit_code == EXIT_PREMISE == 4
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "NotIsometryError"
    assert "map evaluation failed on a test body" in error["message"]


MOTION_3D = {"map": "motion", "rotation": np.eye(3).tolist(), "translation": [0.0, 0.0, 0.0]}


def compose_doc(*parts) -> str:
    return json.dumps({"map": "compose", "of": list(parts)})


@pytest.mark.parametrize(
    "doc, kind",
    [(json.dumps(MOTION_3D), "identity"), (compose_doc({"map": "cdual"}, MOTION_3D), "cdual")],
    ids=["motion", "cdual-then-motion"],
)
def test_classify_takes_the_dimension_from_the_map(doc, kind):
    result = report("classify", doc)
    assert result["kind"] == kind
    assert np.shape(result["rotation"]) == (3, 3)


@pytest.mark.parametrize(
    "args",
    [
        ("--dim", "2", "classify", json.dumps(MOTION_3D)),
        ("classify", compose_doc(MOTION_3D, {"map": "constant", "body": json.loads(ball_doc([0.0, 0.0]))})),
    ],
    ids=["dim-flag", "compose-parts"],
)
def test_classify_dimension_mismatch_exits_invariant(args):
    result = run_cli(*args)
    assert result.exit_code == EXIT_INVARIANT
    assert json.loads(result.stderr)["error"]["type"] == "DimensionMismatchError"


GUARD = """
import json, sys
sys.path.insert(0, {src!r})
import ballbodies
import ballbodies.cli as cli

def run(*argv):
    try:
        cli.main(list(argv), standalone_mode=False)
    except SystemExit as exc:
        assert not exc.code, (argv[0], exc.code)

ball = json.dumps({{"type": "generators", "centers": [[0.1, 0.2]]}})
point = json.dumps({{"type": "cdual", "of": json.loads(ball)}})
rigid = json.dumps({{"map": "planar_rigid", "rotation": [[0.0, -1.0], [1.0, 0.0]], "translation": [0.3, -0.1]}})
perturbed = json.dumps({{"map": "planar_perturbed", "amplitude": 0.2, "seed": 1}})
hole = json.dumps({{"map": "planar_radial_hole"}})
run("dist", point, ball)
run("support", ball, "--direction", "[0.6, 0.8]")
run("cdual-check", ball)
run("reconstruct", point, "--grid-step", "1.0")
run("circ", ball)
run("geodesic-check", ball, point, ball)
run("surjectivity", rigid, "--target", "[0.5, 1.0]")
run("surjectivity", perturbed, "--target", "[0.5, -0.3]")
run("surjectivity", hole, "--target", "[0.0, 0.0]")
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_circ_does_not_import_numpy_ma():
    # numpy.ma costs a fresh process more than the rest of a `circ` command
    src = str(Path(ballbodies.__file__).resolve().parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
import ballbodies.cli as cli
cli.main(["circ", {ball_doc([0.1, 0.2])!r}], standalone_mode=False)
assert "numpy.ma" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_dist_imports_no_classifier_map_or_planar_module():
    # a fresh process compiles every module it imports; `dist` needs none of these
    src = str(Path(ballbodies.__file__).resolve().parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
import ballbodies.cli as cli
cli.main(["dist", {ball_doc([0.0, 0.0])!r}, {ball_doc([0.5, 0.0])!r}], standalone_mode=False)
loaded = [name for name in ("lab", "maps", "planar") if "ballbodies." + name in sys.modules]
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_hausdorff_commands_never_import_scipy():
    src = str(Path(ballbodies.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", GUARD.format(src=src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
