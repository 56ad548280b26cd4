"""Tests for the command-line front end."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from qot import cli, sdp, suites, transport
from qot.cli import ReportRecord, main, parse_instance, parse_report


# Near-pure states (smallest eigenvalues 5e-10, above the rank rule's zero,
# so the plan is not reduced) whose solve still ends numerical
NEAR_PURE_PAIR = {"rho": {"bloch": [0, 0, 1 - 1e-9]}, "omega": {"bloch": [1 - 1e-9, 0, 0]}}


def write_instance(tmp_path, name="inst.json", **fields):
    data = {
        "rho": {"bloch": [0, 0, 0.5]},
        "omega": {"bloch": [0, 0, -0.5]},
        "cost": "symm",
        "p": 2,
        "mode": "joint",
    }
    data.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestInstanceParsing:
    def test_bloch_states(self):
        inst = parse_instance(
            {"rho": {"bloch": [0, 0, 0.5]}, "omega": {"bloch": [0, 0, -0.5]}, "cost": "z", "p": 1}
        )
        np.testing.assert_allclose(inst.rho, np.diag([0.75, 0.25]), atol=1e-15)
        assert inst.p == 1.0

    def test_explicit_matrix_with_re_im_pairs(self):
        matrix = [[[0.5, 0.0], [0.0, -0.25]], [[0.0, 0.25], [0.5, 0.0]]]
        inst = parse_instance(
            {"rho": {"matrix": matrix}, "omega": {"bloch": [0, 0, 0]}, "cost": "z", "p": 2}
        )
        np.testing.assert_allclose(inst.rho[0, 1], -0.25j)

    def test_invalid_state_rejected(self):
        with pytest.raises(cli.InstanceError, match="not PSD|trace"):
            parse_instance(
                {
                    "rho": {"matrix": [[1.5, 0], [0, -0.5]]},
                    "omega": {"bloch": [0, 0, 0]},
                    "cost": "z",
                }
            )

    def test_custom_observables(self):
        inst = parse_instance(
            {
                "rho": {"bloch": [0, 0, 0.3]},
                "omega": {"bloch": [0, 0, -0.3]},
                "cost": "factorized",
                "observables": {"matrices": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]},
                "p": 2,
                "mode": "linearized",
            }
        )
        assert inst.pairs == 2

    def test_unknown_cost_rejected(self):
        with pytest.raises(cli.InstanceError, match="cost selector"):
            parse_instance(
                {"rho": {"bloch": [0, 0, 0]}, "omega": {"bloch": [0, 0, 0]}, "cost": "nope"}
            )

    def test_general_cost_selector(self):
        inst = parse_instance(
            {
                "rho": {"bloch": [0, 0, 0.3]},
                "omega": {"bloch": [0, 0, -0.3]},
                "cost": "general",
                "observables": {"matrices": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]},
                "p": 2,
            }
        )
        assert inst.mode == "linearized" and inst.pairs == 2
        assert inst.joint_cost.shape == (16, 16)

    def test_symm_linearized_maps_to_pauli_factors(self):
        inst = parse_instance(
            {
                "rho": {"bloch": [0, 0, 0.5]},
                "omega": {"bloch": [0, 0, -0.5]},
                "cost": "symm",
                "p": 2,
                "mode": "linearized",
            }
        )
        assert inst.pairs == 3 and len(inst.factor_costs) == 3


class TestReportRecord:
    def test_roundtrip_identity(self):
        record = ReportRecord(
            command="distance",
            instance={
                "p": 2,
                "cost": "factorized",
                "rho": {"matrix": [[[0.7, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0.0]]]},
                "omega": {"bloch": (0.0, 0.0, -1 / 3)},
                "observables": {"matrices": [[[1, 0], [0, -1]], [[0, 1], [1, 0]]]},
            },
            status="optimal",
            seconds=0.123456789123456,
            primal=4.000000003428491,
            dual=None,
            gap=8.053936628726888e-09,
            certificate={"passed": True, "min_eig_x": 1.2320333e-10},
        )
        line = record.to_json_line()
        parsed = parse_report(line)
        assert parsed == record
        assert parsed.to_json_line() == line
        # the bytes of the field-by-field dump, without the deep copy
        expected = {k: v for k, v in dataclasses.asdict(record).items() if v is not None}
        assert line == json.dumps(expected, sort_keys=True)

    def test_floats_carry_12_significant_digits(self):
        record = ReportRecord(
            command="distance", instance={}, status="optimal", seconds=0.0,
            primal=math.pi,
        )
        assert record.primal == float(f"{math.pi:.12g}")

    def test_unknown_fields_rejected(self):
        with pytest.raises(cli.InstanceError, match="unknown report fields"):
            parse_report('{"command": "distance", "bogus": 1}')


class TestCommands:
    def test_distance_symm_exit_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        out = str(tmp_path / "report.jsonl")
        assert main(["distance", path, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "distance" in printed
        record = parse_report((tmp_path / "report.jsonl").read_text().splitlines()[0])
        assert record.status == "optimal" and record.certificate["reason"] == "converged"
        np.testing.assert_allclose(record.dp, 4.0, atol=1e-6)
        assert record.closed_form["family"] == "symm-commuting"
        np.testing.assert_allclose(record.closed_form["dp"], 4.0, atol=1e-12)
        assert record.gap <= 1e-6

    def test_numerical_record_names_its_stop(self, tmp_path):
        path = write_instance(tmp_path, **NEAR_PURE_PAIR)
        out = str(tmp_path / "dual.jsonl")
        assert main(["dual", path, "--out", out]) == 3
        record = parse_report((tmp_path / "dual.jsonl").read_text().splitlines()[0])
        assert record.status == "numerical"
        assert sdp.REASON_STATUS[record.certificate["reason"]] == "numerical"

    def test_dual_slack_of_a_pure_pair_is_read_on_the_support_face(self, tmp_path):
        # the plan lives on supp(omega) (x) supp(rho^T); off that face the
        # lifted potentials are not dual feasible (the full-space slack of
        # this pair has eigenvalue -4)
        path = write_instance(tmp_path, rho={"bloch": [0, 0, 1]}, omega={"bloch": [1, 0, 0]})
        out = str(tmp_path / "dual.jsonl")
        assert main(["dual", path, "--out", out]) == 0
        record = parse_report((tmp_path / "dual.jsonl").read_text().splitlines()[0])
        assert record.status == "optimal" and record.certificate["passed"]
        assert record.certificate["dual_attained"]
        assert record.extra["slack_min_eig"] >= -transport.SLACK_TOL

    def test_distance_z_xy(self, tmp_path):
        path = write_instance(
            tmp_path, rho={"bloch": [0.5, 0, 0]}, omega={"bloch": [0, 0, 0]}, cost="z"
        )
        out = str(tmp_path / "r.jsonl")
        assert main(["distance", path, "--out", out]) == 0
        record = parse_report((tmp_path / "r.jsonl").read_text().splitlines()[0])
        np.testing.assert_allclose(record.dp, 2 - math.sqrt(3), atol=1e-6)
        assert record.closed_form["family"] == "z-xy"

    @pytest.mark.parametrize("command", ["distance", "dual"])
    @pytest.mark.parametrize(
        "states,code",
        [({}, 0), (NEAR_PURE_PAIR, 3)],
        ids=["optimal", "numerical"],
    )
    def test_verbose_prints_the_trace(self, tmp_path, capsys, command, states, code):
        path = write_instance(tmp_path, **states)
        assert main([command, path]) == code
        plain = capsys.readouterr()
        assert main([command, path, "--verbose"]) == code
        verbose = capsys.readouterr()
        instance = parse_instance(json.loads((tmp_path / "inst.json").read_text()))
        trace = transport.wasserstein_distance(instance).solution.trace
        lines = verbose.err.splitlines()
        assert plain.err == "" and len(lines) == len(trace)
        for k, line in enumerate(lines):
            assert re.fullmatch(
                rf"iter {k:3d}  mu \S+  rp \S+  rd \S+  gap \S+", line
            ) and float(line.split()[3]) == float(f"{trace[k]['mu']:.3e}")

        def without_seconds(out):
            return [line for line in out.splitlines() if not line.startswith("seconds")]

        assert without_seconds(verbose.out) == without_seconds(plain.out)

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rho": {"bloch": [0, 0, 0.5]},\n "omega": oops}')
        out = tmp_path / "r.jsonl"
        assert main(["distance", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err
        # the writability check before the command creates no file
        assert not out.exists()

    @pytest.mark.parametrize("command", ["distance", "divergence"])
    def test_json_array_instance_exit_two(self, tmp_path, capsys, command):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([{"bloch": [0, 0, 0.5]}, {"bloch": [0, 0, -0.5]}]))
        assert main([command, str(path)]) == 2
        assert "instance file must hold a JSON object" in capsys.readouterr().err

    def test_linearized_symm_has_no_closed_form(self, tmp_path):
        # the collinear symm formula is a joint-plan optimum; the correlated
        # three-pair plan reaches a lower value
        path = write_instance(tmp_path, mode="linearized")
        out = str(tmp_path / "r.jsonl")
        assert main(["distance", path, "--out", out]) == 0
        record = parse_report((tmp_path / "r.jsonl").read_text().splitlines()[0])
        assert record.closed_form is None
        assert record.dp < 4.0 - 1.0

    def test_oversize_plan_exit_two(self, tmp_path, capsys):
        path = write_instance(
            tmp_path,
            cost="factorized",
            observables={"matrices": [[[1, 0], [0, -1]]] * 5},
            mode="linearized",
        )
        assert main(["distance", path]) == 2
        assert "plan dimension 1024 exceeds 400" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["distance", "dual"])
    @pytest.mark.parametrize("p", ["abc", None, math.nan, math.inf])
    def test_bad_exponent_exit_two(self, tmp_path, capsys, command, p):
        path = write_instance(tmp_path, p=p)
        assert main([command, path]) == 2
        assert "exponent p" in capsys.readouterr().err

    def test_divergence_input_error_exit_two(self, tmp_path, capsys):
        # the three-Pauli cost needs qubit states
        path = write_instance(
            tmp_path,
            rho={"matrix": [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]]},
            omega={"matrix": [[0.2, 0, 0], [0, 0.3, 0], [0, 0, 0.5]]},
        )
        assert main(["divergence", path]) == 2
        assert "observable dim" in capsys.readouterr().err

    def test_solver_failure_exit_three(self, tmp_path):
        # an unreachable tolerance leaves the solver unconverged
        path = write_instance(tmp_path)
        assert main(["distance", path, "--tol", "1e-30"]) == 3

    def test_dual_command(self, tmp_path):
        path = write_instance(tmp_path, rho={"bloch": [0, 0, 0.3]}, omega={"bloch": [0, 0, -0.1]}, cost="z")
        out = str(tmp_path / "dual.jsonl")
        assert main(["dual", path, "--out", out]) == 0
        record = parse_report((tmp_path / "dual.jsonl").read_text().splitlines()[0])
        np.testing.assert_allclose(record.dual, 0.8, atol=1e-6)
        assert record.extra["slack_min_eig"] >= -1e-8
        assert len(record.extra["x"]) == 1

    def test_divergence_command(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        out = str(tmp_path / "div.jsonl")
        assert main(["divergence", path, "--out", out]) == 0
        record = parse_report((tmp_path / "div.jsonl").read_text().splitlines()[0])
        np.testing.assert_allclose(record.divergence_squared, 2 * math.sqrt(3), atol=1e-6)
        np.testing.assert_allclose(
            record.closed_form["d_squared"], 2 * math.sqrt(3), atol=1e-12
        )

    def test_divergence_qutrit_has_no_closed_form(self, tmp_path):
        path = write_instance(
            tmp_path,
            rho={"matrix": [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]]},
            omega={"matrix": [[0.2, 0, 0], [0, 0.3, 0], [0, 0, 0.5]]},
            cost="factorized",
            observables={"matrices": [[[1, 0, 0], [0, 0, 0], [0, 0, -1]]]},
        )
        out = str(tmp_path / "div.jsonl")
        assert main(["divergence", path, "--out", out]) == 0
        record = parse_report((tmp_path / "div.jsonl").read_text().splitlines()[0])
        assert record.closed_form is None

    def test_divergence_identical_states(self, tmp_path):
        path = write_instance(tmp_path, omega={"bloch": [0, 0, 0.5]})
        assert main(["divergence", path]) == 0

    def test_gap_demo_rows(self, tmp_path, capsys):
        out = str(tmp_path / "gap.jsonl")
        assert main(["gap-demo", "--p", "2", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "nonlinear" in printed
        record = parse_report((tmp_path / "gap.jsonl").read_text().splitlines()[0])
        np.testing.assert_allclose(record.extra["nonlinear"], 4.0, atol=1e-6)
        np.testing.assert_allclose(
            record.extra["linearized"], 4.0 * (1 - (math.sqrt(3) - 1) / 2), atol=1e-6
        )

    def test_verify_pass_and_out_rows(self, tmp_path, capsys):
        out = str(tmp_path / "verify.jsonl")
        assert main(["verify", "costs", "--samples", "10", "--out", out]) == 0
        lines = (tmp_path / "verify.jsonl").read_text().splitlines()
        assert len(lines) >= 2  # case rows plus the aggregate
        summary = json.loads(lines[-1])
        assert summary["passed"] is True

    def test_verify_downscaled_grid(self):
        assert main(["verify", "symm-commuting", "--density", "3"]) == 0

    def test_verify_unknown_suite_exit_two(self, capsys):
        assert main(["verify", "does-not-exist"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_deterministic_verify_given_seed(self, tmp_path):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        main(["verify", "triangle-z", "--samples", "50", "--seed", "7", "--out", out1])
        main(["verify", "triangle-z", "--samples", "50", "--seed", "7", "--out", out2])
        a = (tmp_path / "a.jsonl").read_text()
        b = (tmp_path / "b.jsonl").read_text()
        assert a.splitlines()[:-1] == b.splitlines()[:-1]  # rows identical; timing differs


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "{path}"],
        ["dual", "{path}"],
        ["divergence", "{path}"],
        ["gap-demo", "--p", "2"],
        ["verify", "costs", "--samples", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exit_two(tmp_path, capsys, monkeypatch, argv):
    path = write_instance(tmp_path)
    out = str(tmp_path / "no" / "such" / "r.jsonl")
    # the path is found unwritable before any work: nothing is solved or printed
    for module, name in [(sdp, "solve"), (suites, "run_suite")]:
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work before the check"))
    assert main([a.format(path=path) for a in argv] + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "no").exists()


def test_out_that_is_a_directory_exit_two(tmp_path, capsys):
    assert main(["gap-demo", "--p", "2", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")


def test_one_parser_serves_many_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    path = write_instance(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["distance", path, "--tol", "0"])
    assert exc.value.code == 2
    assert main(["distance", path]) == 0
    capsys.readouterr()
    for _ in range(2):
        # the repeated --p collects into a fresh list on every call
        assert main(["gap-demo", "--p", "2", "--p", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split()[0]) for row in rows] == [2.0, 3.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["gap-demo", "--p", "0.5"],
        ["gap-demo", "--p", "nan"],
        ["gap-demo", "--p", "2", "--p", "inf"],
        ["verify", "costs", "--density", "-2"],
        ["verify", "symm-commuting", "--density", "0"],
        ["verify", "costs", "--samples", "-1"],
        ["verify", "costs", "--samples", "0"],
        ["verify", "strong-duality", "--seed", "-1"],
        ["verify", "costs", "--seed", "-3"],
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["distance", "dual"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_tolerance_is_a_usage_error(tmp_path, capsys, command, tol):
    path = write_instance(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--tol", tol])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "{path}", "--seed", "3"],
        ["dual", "{path}", "--seed", "3"],
        ["divergence", "{path}", "--seed", "3"],
        ["gap-demo", "--seed", "3"],
        ["divergence", "{path}", "--p", "7"],
        ["divergence", "{path}", "--mode", "joint"],
        ["divergence", "{path}", "--tol", "1e-30"],
        ["divergence", "{path}", "--verbose"],
        ["gap-demo", "--verbose"],
        ["verify", "costs", "--verbose"],
        ["distance", "{path}", "--cost", "custom"],
        ["divergence", "{path}", "--cost", "custom"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv):
    path = write_instance(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([a.format(path=path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err
