"""Tests for the parts of ``tools/bench.py`` that run no solve: summary,
merge, compare, the spawn schedule and the spawned command."""

import importlib.util
import json
import os
import subprocess
import types

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench.py")
spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def record(e2e_ms, digest="optimal 9 0x1.0p+2", loop_ms=1.0, step_fallbacks=0, setup_ms=0.5,
           ritz_steps=0, layers_ms=None):
    status, iterations, _ = digest.split()
    return {
        **({} if layers_ms is None else {"layers_ms": layers_ms}),
        "n": 4, "m": 7, "e2e_ms": e2e_ms, "loop_ms": loop_ms, "setup_ms": setup_ms,
        "iterations": int(iterations),
        "status": status, "reason": "converged" if status == "optimal" else "mu_floor",
        "certified": status == "optimal", "digest": digest, "step_fallbacks": step_fallbacks,
        "ritz_steps": ritz_steps,
    }


def run(*records, peak_rss_mb=50.0):
    return {"records": list(records), "peak_rss_mb": peak_rss_mb}


class TestSummary:
    def test_median_over_repeats_per_solve(self):
        # solve 0 takes 1, 2, 9 ms: its median is 2; solve 1 takes 5, 4, 6: 5
        runs = [run(record(1.0), record(5.0), peak_rss_mb=40.0),
                run(record(2.0), record(4.0), peak_rss_mb=60.0),
                run(record(9.0), record(6.0), peak_rss_mb=50.0)]
        s = bench.summary(runs)
        assert s["e2e_ms_p50"] == 3.5  # median of the per-solve medians 2 and 5
        assert s["e2e_ms_mean_runs"] == [3.0, 3.0, 7.5]
        # each run's total over its solves, and their median
        assert s["e2e_ms_total_runs"] == [6.0, 6.0, 15.0] and s["e2e_ms_total"] == 6.0
        assert s["peak_rss_mb"] == 50.0
        assert s["solves"] == 2 and s["stable"]
        assert s["statuses"] == {"optimal": 2} and s["certified"] == 2

    def test_repeats_that_disagree_are_unstable(self):
        runs = [run(record(1.0), record(1.0)),
                run(record(1.0), record(1.0, digest="numerical 9 0x1.0p+2"))]
        s = bench.summary(runs)
        assert not s["stable"]
        assert s["digests"] == ["optimal 9 0x1.0p+2"] * 2


def summarized(*digests):
    return bench.summary([run(*(record(2.0, d) for d in digests))])


class TestMergeAndCompare:
    def test_merge_keeps_other_labels_and_the_first_setup(self, tmp_path):
        path = str(tmp_path / "BENCH_small.json")
        bench.merge(path, "parent", {"qubit": summarized("optimal 9 0x1.0p+2")})
        doc = json.loads(open(path).read())
        doc["setup"]["cpus"] = "first"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        bench.merge(path, "change", {"qubit": summarized("optimal 8 0x1.0p+2")})
        bench.merge(path, "change", {"qubit": summarized("optimal 7 0x1.0p+2")})
        doc = json.loads(open(path).read())
        assert set(doc["runs"]) == {"parent", "change"}
        assert doc["runs"]["change"]["qubit"]["digests"] == ["optimal 7 0x1.0p+2"]
        assert doc["setup"]["cpus"] == "first"

    @pytest.fixture
    def paths(self, tmp_path):
        small, large = str(tmp_path / "BENCH_small.json"), str(tmp_path / "BENCH_large.json")
        same = ("optimal 9 0x1.0p+2", "numerical 30 0x1.8p+1")
        for label in ("parent", "change", "other"):
            bench.merge(small, label, {"qubit": summarized(*same), "rank d=3": summarized(*same)})
            bench.merge(large, label, {"d=12": summarized("optimal 18 0x1.4p+3")})
        bench.merge(large, "other", {"d=12": summarized("optimal 18 0x1.4000000000001p+3")})
        return [small, large]

    def test_identical_digests_exit_zero(self, paths, capsys):
        assert bench.compare(paths, "parent", "change") == 0
        printed = capsys.readouterr().out
        assert printed.count("digests identical") == 3 and "matches" in printed

    def test_one_mismatch_in_any_group_exits_one(self, paths, capsys):
        assert bench.compare(paths, "parent", "other") == 1
        printed = capsys.readouterr().out
        assert "d=12: 1 solves, digests DIFFER (1)" in printed
        assert bench.compare(paths[:1], "parent", "other") == 0

    def test_change_that_drops_duplicate_solves_differs(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_small.json")
        x, y = "optimal 9 0x1.0p+2", "optimal 8 0x1.8p+1"
        bench.merge(path, "parent", {"qubit": summarized(x, x, y, x, y)})
        bench.merge(path, "change", {"qubit": summarized(y, x, y)})
        assert bench.compare([path], "parent", "change") == 1
        printed = capsys.readouterr().out
        assert "qubit: 5 -> 3 solves, digests DIFFER (2)" in printed
        # every solve takes 2 ms: the per-solve median hides the dropped
        # solves, the run's total shows them
        assert "e2e_ms_p50 2.000 -> 2.000 (+0.0%; runs 2.000-2.000 | 2.000-2.000)" in printed
        assert "e2e_ms_total 10.000 -> 6.000 (-40.0%; runs 10.000-10.000 | 6.000-6.000)" in printed
        assert "every (status, iterations, dp.hex()) DIFFERS" in printed

    def test_compare_prints_each_labels_outcomes(self, tmp_path, capsys):
        # the last bits of dp differ in both solves, one outcome changes
        path = str(tmp_path / "BENCH_small.json")
        bench.merge(path, "parent", {"qubit": summarized("optimal 9 0x1.0p+2", "optimal 8 0x1.8p+1")})
        bench.merge(path, "change", {"qubit": summarized(
            "optimal 9 0x1.0000000000001p+2", "numerical 8 0x1.8000000000001p+1")})
        assert bench.compare([path], "parent", "change") == 1
        printed = capsys.readouterr().out
        assert ("qubit: 2 solves, digests DIFFER (2); optimal 2, 2 certified -> "
                "numerical 1 optimal 1, 1 certified; iterations 17 -> 17; "
                "step_fallbacks 0 -> 0; ritz_steps 0 -> 0;") in printed

    def test_compare_prints_each_labels_total_iterations(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_large.json")
        bench.merge(path, "parent", {"d=12": summarized("optimal 18 0x1.4p+3"),
                                     "K=4": summarized("optimal 15 0x1.8p+1")})
        bench.merge(path, "change", {"d=12": summarized("optimal 14 0x1.4000000000001p+3"),
                                     "K=4": summarized("optimal 15 0x1.8p+1")})
        assert bench.compare([path], "parent", "change") == 1
        printed = capsys.readouterr().out
        outcome = "optimal 1, 1 certified"
        assert (f"\nd=12: 1 solves, digests DIFFER (1); {outcome} -> {outcome}; "
                "iterations 18 -> 14; step_fallbacks 0 -> 0; ritz_steps 0 -> 0; "
                "e2e_ms_p50") in printed
        assert (f"K=4: 1 solves, digests identical; {outcome} -> {outcome}; "
                "iterations 15 -> 15; step_fallbacks 0 -> 0; ritz_steps 0 -> 0; "
                "e2e_ms_p50") in printed
        assert bench.total_iterations(["optimal 9 0x1.0p+2", "numerical 30 0x1.8p+1"]) == 39

    def test_compare_prints_each_labels_total_step_fallbacks(self, tmp_path, capsys):
        # the first run's solves are summed: 1 + 2 and 0 + 1 fallbacks, 30 +
        # 40 and 20 + 25 Lanczos steps
        path = str(tmp_path / "BENCH_large.json")
        digest = "optimal 12 0x1.8p+1"
        for label, counts in (("parent", ((1, 30), (2, 40))), ("change", ((0, 20), (1, 25)))):
            runs = [run(*(record(2.0, digest, step_fallbacks=f, ritz_steps=r)
                          for f, r in counts))] * 2
            bench.merge(path, label, {"K=4": bench.summary(runs)})
        assert bench.compare([path], "parent", "change") == 0
        assert ("iterations 24 -> 24; step_fallbacks 3 -> 1; ritz_steps 70 -> 45; "
                "e2e_ms_p50") in capsys.readouterr().out

    def test_compare_reads_n_a_for_a_count_an_older_label_did_not_record(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "BENCH_large.json")
        older = record(2.0, "optimal 12 0x1.8p+1", step_fallbacks=1)
        del older["ritz_steps"]
        bench.merge(path, "parent", {"K=4": bench.summary([run(older)])})
        bench.merge(path, "change", {"K=4": bench.summary(
            [run(record(2.0, "optimal 12 0x1.8p+1", step_fallbacks=1, ritz_steps=14))])})
        assert bench.compare([path], "parent", "change") == 0
        assert "step_fallbacks 1 -> 1; ritz_steps n/a -> 14; e2e_ms_p50" in capsys.readouterr().out

    @pytest.mark.parametrize("change", [
        ("optimal 9 0x1.0p+2",),  # a digest missing
        ("optimal 9 0x1.0p+2", "optimal 8 0x1.8p+1", "optimal 7 0x1.8p+1"),  # a new one
        ("optimal 8 0x1.8p+1", "optimal 8 0x1.8p+1"),  # same size, other counts
    ])
    def test_any_other_multiset_difference_differs(self, tmp_path, capsys, change):
        path = str(tmp_path / "BENCH_small.json")
        parent = summarized("optimal 9 0x1.0p+2", "optimal 8 0x1.8p+1")
        bench.merge(path, "parent", {"qubit": parent})
        bench.merge(path, "change", {"qubit": summarized(*change)})
        assert bench.compare([path], "parent", "change") == 1
        printed = capsys.readouterr().out
        assert "digests DIFFER (1)" in printed and "DIFFERS" in printed

    def test_ratios_carry_the_spread_of_the_repeats(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_small.json")
        parent = [run(record(e2e)) for e2e in (2.0, 3.0, 4.0)]
        bench.merge(path, "parent", {"qubit": bench.summary(parent)})
        bench.merge(path, "near", {"qubit": bench.summary([run(record(e)) for e in (3.5, 4.5)])})
        bench.merge(path, "far", {"qubit": bench.summary([run(record(e)) for e in (6.0, 5.0)])})
        bench.compare([path], "parent", "near")
        near = capsys.readouterr().out
        # overlapping or not, the ranges are printed without a verdict
        assert "e2e_ms_p50 3.000 -> 4.000 (+33.3%; runs 2.000-4.000 | 3.500-4.500)" in near
        bench.compare([path], "parent", "far")
        far = capsys.readouterr().out
        assert "e2e_ms_p50 3.000 -> 5.500 (+83.3%; runs 2.000-4.000 | 5.000-6.000)" in far
        assert "loop_ms_p50 1.000 -> 1.000 (+0.0%; runs 1.000-1.000 | 1.000-1.000)" in far
        assert "within spread" not in near + far
        assert far.splitlines()[0].endswith("peak_rss_mb 50.000 -> 50.000 (+0.0%)")

    def test_setup_time_has_its_median_and_ratio(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_small.json")
        for label, setups in (("parent", (0.4, 0.6)), ("change", (0.2, 0.3))):
            runs = [run(record(2.0, setup_ms=setup)) for setup in setups]
            bench.merge(path, label, {"qubit": bench.summary(runs)})
        assert bench.compare([path], "parent", "change") == 0
        printed = capsys.readouterr().out
        assert "setup_ms_p50 0.500 -> 0.250 (-50.0%; runs 0.400-0.600 | 0.200-0.300)" in printed

    def test_a_label_without_setup_time_reads_n_a(self, tmp_path, capsys):
        # a label measured by a tools/bench.py that did not record setup_ms
        path = str(tmp_path / "BENCH_small.json")
        old = {k: v for k, v in record(2.0).items() if k != "setup_ms"}
        parent = bench.summary([run(old)])
        assert "setup_ms_p50" not in parent and "e2e_ms_p50" in parent
        bench.merge(path, "parent", {"qubit": parent})
        bench.merge(path, "change", {"qubit": bench.summary([run(record(2.0))])})
        assert bench.compare([path], "parent", "change") == 0
        printed = capsys.readouterr().out
        assert "; setup_ms_p50 n/a; e2e_ms_total 2.000 -> 2.000" in printed

    def test_summary_takes_each_layers_median_over_repeats_and_solves(self):
        # solve 0's build takes 1, 3 ms (median 2) and solve 1's 6, 4 (5);
        # only solve 0 of the first run has a phase clock: factor is dropped
        runs = [run(record(2.0, layers_ms={"build": 1.0, "iterate": 1.0, "factor": 0.5}),
                    record(2.0, layers_ms={"build": 6.0, "iterate": 2.0})),
                run(record(2.0, layers_ms={"build": 3.0, "iterate": 1.0}),
                    record(2.0, layers_ms={"build": 4.0, "iterate": 2.0}))]
        assert bench.summary(runs)["layer_ms_p50"] == [["build", 3.5], ["iterate", 1.5]]
        # records of an older tools/bench.py have no layers
        assert bench.summary([run(record(2.0))])["layer_ms_p50"] == []

    def test_compare_prints_each_layers_ratio_on_a_line_of_its_own(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_small.json")
        layers = {"parent": {"build": 0.4, "iterate": 2.0},
                  "change": {"build": 0.2, "iterate": 2.0, "factor": 0.5}}
        for label, layers_ms in layers.items():
            bench.merge(path, label,
                        {"qubit": bench.summary([run(record(2.0, layers_ms=layers_ms))])})
        assert bench.compare([path], "parent", "change") == 0
        first, second = capsys.readouterr().out.splitlines()[:2]
        assert first.startswith("qubit: 1 solves, digests identical")
        assert second == ("  qubit layer_ms_p50: build 0.4000 -> 0.2000 (-50.0%); "
                          "iterate 2.0000 -> 2.0000 (+0.0%); factor n/a -> 0.5")

    def test_unknown_label_is_a_usage_error(self, paths, capsys, monkeypatch):
        monkeypatch.setattr(bench, "_output", dict(zip(("small", "large"), paths)).get)
        with pytest.raises(SystemExit) as exc:
            bench.main(["--compare", "parent", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "has no label nosuch" in err and "its labels: change, other, parent" in err


def test_a_record_sums_the_step_fallbacks_of_its_trace(monkeypatch):
    from qot import transport

    solution = types.SimpleNamespace(
        x=np.eye(4), y=np.zeros(7), iterations=3, status="optimal", reason="converged",
        trace=({"mu": 1.0}, {"mu": 0.5, "step_fallbacks": 1.0, "ritz_steps": 30.0},
               {"mu": 0.1, "step_fallbacks": 2.0, "ritz_steps": 25.0}, {"mu": 0.0}),
    )
    result = types.SimpleNamespace(
        solution=solution, dp=2.0, certificate=types.SimpleNamespace(passed=True),
        timings={"iterate": 0.002, "build": 0.001, "preprocess": 0.0005},
    )
    monkeypatch.setattr(transport, "wasserstein_distance", lambda *args: result)
    monkeypatch.setattr(bench, "_case_runner", lambda name: lambda: transport.wasserstein_distance())
    [rec] = bench.run_one("K=4")["records"]
    assert rec["step_fallbacks"] == 3 and rec["ritz_steps"] == 55
    assert rec["digest"] == "optimal 3 0x1.0000000000000p+1"
    assert rec["setup_ms"] == pytest.approx(1.5)  # build + preprocess
    # a solution without a phase clock records the timings alone
    assert rec["layers_ms"] == pytest.approx({"iterate": 2.0, "build": 1.0, "preprocess": 0.5})
    solution.phases = {"factor": 0.0015, "other": 0.0005}
    [rec] = bench.run_one("K=4")["records"]
    assert rec["layers_ms"] == pytest.approx(
        {"iterate": 2.0, "build": 1.0, "preprocess": 0.5, "factor": 1.5, "other": 0.5})


def test_a_record_counts_the_iterations_of_each_route_and_the_shifts(monkeypatch, tmp_path, capsys):
    from qot import transport

    routes = ["slot", "slot", "switched", "qr", "qr"]
    solution = types.SimpleNamespace(
        x=np.eye(4), y=np.zeros(7), iterations=5, status="optimal", reason="converged",
        trace=(*({"mu": 1.0, "route": route, "shifted": k == 1} for k, route in enumerate(routes)),
               {"mu": 0.0}),
    )
    result = types.SimpleNamespace(
        solution=solution, dp=2.0, certificate=types.SimpleNamespace(passed=True),
        timings={"iterate": 0.002, "build": 0.001, "preprocess": 0.0005},
    )
    monkeypatch.setattr(transport, "wasserstein_distance", lambda *args: result)
    monkeypatch.setattr(bench, "_case_runner", lambda name: lambda: transport.wasserstein_distance())
    [rec] = bench.run_one("K=4")["records"]
    assert (rec["slot_iterations"], rec["qr_iterations"], rec["shifts"]) == (2, 3, 1)
    # summed per case; a label recorded without them reads n/a
    summary = bench.summary([run(rec, rec)])
    assert (summary["slot_iterations"], summary["qr_iterations"], summary["shifts"]) == (4, 6, 2)
    path = str(tmp_path / "BENCH_large.json")
    older = record(2.0, rec["digest"])
    bench.merge(path, "parent", {"K=4": bench.summary([run(older, older)])})
    bench.merge(path, "change", {"K=4": summary})
    assert bench.compare([path], "parent", "change") == 0
    third = capsys.readouterr().out.splitlines()[2]
    assert third == "  K=4 routes: slot_iterations n/a -> 4; qr_iterations n/a -> 6; shifts n/a -> 2"


def test_repeats_that_disagree_fail_the_run(tmp_path, monkeypatch):
    digests = iter(["optimal 9 0x1.0p+2", "optimal 10 0x1.0p+2"] * 10)
    monkeypatch.setattr(bench, "_spawn", lambda name, src: run(record(1.0, next(digests))))
    monkeypatch.setattr(bench, "_output", lambda group: str(tmp_path / f"BENCH_{group}.json"))
    assert bench.main(["small", "change=src"]) == 1
    doc = json.loads((tmp_path / "BENCH_small.json").read_text())
    assert not any(s["stable"] for s in doc["runs"]["change"].values())


def test_every_repeat_spawns_every_label_in_alternating_order(tmp_path, monkeypatch):
    spawned = []

    def spawn(name, src):
        spawned.append((name, os.path.basename(src)))
        return run(record(1.0))

    monkeypatch.setattr(bench, "_spawn", spawn)
    monkeypatch.setattr(bench, "_output", lambda group: str(tmp_path / f"BENCH_{group}.json"))
    assert bench.main(["small", "parent=old/src_a", "change=new/src_b"]) == 0
    one_case = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    expected = [(name, label) for name in bench.GROUPS["small"]
                for order in one_case[:bench.REPEAT] for label in order]
    assert bench.schedule(bench.GROUPS["small"], ["parent", "change"]) == expected
    src = {"parent": "src_a", "change": "src_b"}
    assert spawned == [(name, src[label]) for name, label in expected]
    doc = json.loads((tmp_path / "BENCH_small.json").read_text())
    assert set(doc["runs"]) == {"parent", "change"}
    assert all(s["solves"] == 1 for s in doc["runs"]["change"].values())


def test_each_checkout_runs_its_own_tool(monkeypatch):
    calls = []

    def fake_run(argv, env, **kwargs):
        calls.append((argv, env["PYTHONPATH"]))
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(run(record(1.0))) + "\n")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench._spawn("qubit", "/checkouts/parent/src") == run(record(1.0))
    [(argv, path)] = calls
    assert argv[1:] == ["/checkouts/parent/tools/bench.py", "--one", "qubit"]
    assert path == "/checkouts/parent/src"
