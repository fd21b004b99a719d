"""Self-test runner: a criterion that raises is a failure, not the end of the run."""

import json

import pytest
from click.testing import CliRunner

from ballbodies import selftest
from ballbodies.bodies import CDual
from ballbodies.cli import main
from ballbodies.errors import EmptyRasterError
from ballbodies.selftest import CRITERIA_NAMES, CriterionResult, SelftestContext, criterion_1, run_selftest
from ballbodies.support import SupportEval, default_mesh


@pytest.fixture
def crashing_first(monkeypatch):
    """Criterion 1 raises; criterion 2 passes at once."""

    def crash(ctx):
        raise EmptyRasterError("no cells inside at cell=0.01")

    monkeypatch.setitem(selftest._CRITERIA, 1, crash)
    monkeypatch.setitem(
        selftest._CRITERIA, 2, lambda ctx: CriterionResult(2, CRITERIA_NAMES[2], "pass")
    )


def test_crashing_criterion_is_recorded_and_the_rest_run(crashing_first):
    report = run_selftest(profile="quick", criteria=[1, 2])
    first, second = report["criteria"]
    assert first["status"] == "fail"
    error = first["details"]["error"]
    assert (error["type"], error["message"]) == ("EmptyRasterError", "no cells inside at cell=0.01")
    assert error["where"].startswith("test_selftest.py:") and error["where"].endswith(" in crash")
    assert second["status"] == "pass"
    assert (report["passed"], report["failed"]) == (1, 1)


def test_cli_writes_the_report_and_exits_one(crashing_first):
    result = CliRunner().invoke(main, ["selftest", "--profile", "quick", "--criteria", "1,2"])
    assert result.exit_code == 1
    assert json.loads(result.output)["result"]["failed"] == 1


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError, match="unknown criteria"):
        run_selftest(profile="quick", criteria=[13])


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_reconstruction_criterion_passes_at_the_default_mesh(profile):
    # its gate reads the compared bodies' own error bounds, about 1e-3 here
    (result,) = run_selftest(profile=profile, criteria=[7])["criteria"]
    assert result["status"] == "pass", result["details"]


def test_classifier_criterion_is_not_vacuous_at_a_coarse_mesh():
    # screening carries one pair bound, on the images only
    (result,) = run_selftest(profile="quick", criteria=[9], net_mesh=0.08)["criteria"]
    assert result["status"] == "pass", result["details"]


def test_selftest_nets_are_the_shipped_nets():
    net = SelftestContext().net(3)
    assert net.mesh == default_mesh(3) and len(net) == 384
    coarse = SelftestContext(mesh=0.08)  # one mesh in every dimension
    assert coarse.net(2).mesh == coarse.net(3).mesh == 0.08


def test_duality_gates_are_twice_the_run_tolerance(monkeypatch):
    # each of the two compared sweeps is within tol of the truth, so the gate
    # is 2 tol: a shift of 1e-7 hides under a fixed 2e-6, not under 2e-9
    ball = '{"type": "generators", "centers": [[0.1, 0.2]]}'
    ctx = SelftestContext(tol=1e-9, scale=0.03)

    def cdual_check():
        result = CliRunner().invoke(main, ["--tol", "1e-9", "cdual-check", ball])
        assert result.exit_code == 0, (result.output, result.exception)
        return json.loads(result.output)["result"]["passed"]

    assert criterion_1(ctx).status == "pass" and cdual_check() is True
    sweep = SupportEval.on_net

    def shifted(self, net):  # moves the sweep of every double c-dual
        h = sweep(self, net)
        return h + 1e-7 if isinstance(self.body, CDual) and isinstance(self.body.of, CDual) else h

    monkeypatch.setattr(SupportEval, "on_net", shifted)
    assert criterion_1(ctx).status == "fail" and cdual_check() is False
