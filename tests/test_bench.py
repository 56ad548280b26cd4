"""Tests for the parts of ``tools/bench.py`` that run no solve: summary,
merge, compare, the spawn schedule and the spawned command."""

import importlib.util
import json
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench.py")
spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def record(e2e_ms, digest="optimal 9 0x1.0p+2", loop_ms=1.0):
    status, iterations, _ = digest.split()
    return {
        "n": 4, "m": 7, "e2e_ms": e2e_ms, "loop_ms": loop_ms, "iterations": int(iterations),
        "status": status, "reason": "converged" if status == "optimal" else "mu_floor",
        "certified": status == "optimal", "digest": digest,
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

    def test_unknown_label_is_a_usage_error(self, paths, capsys, monkeypatch):
        monkeypatch.setattr(bench, "_output", dict(zip(("small", "large"), paths)).get)
        with pytest.raises(SystemExit) as exc:
            bench.main(["--compare", "parent", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "has no label nosuch" in err and "its labels: change, other, parent" in err


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
