"""Smoke tests for the repository scripts."""

import importlib.util
import json
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run_script(path, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [path] + argv)
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def test_make_report_subset(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.txt"
    code = run_script("scripts/make_report.py",
                      ["--only", "model", "--out", str(out)], monkeypatch)
    assert code == 0
    text = out.read_text()
    assert "analytical model" in text
    assert "█" in text or "B_flush" in text


def test_make_report_rejects_unknown(tmp_path, monkeypatch, capsys):
    code = run_script("scripts/make_report.py",
                      ["--only", "fig99", "--out",
                       str(tmp_path / "r.txt")], monkeypatch)
    assert code == 2


def test_profile_hotpath_runs(monkeypatch, capsys):
    code = run_script("scripts/profile_hotpath.py",
                      ["--writes", "4", "--top", "3"], monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "bandwidth" in out
    assert "cumtime" in out
    assert "us per write" in out  # the 20-vs-N scaling figure


def test_profile_hotpath_failover_shape_counts_full_checks(monkeypatch,
                                                           capsys):
    code = run_script("scripts/profile_hotpath.py",
                      ["--shape", "failover"], monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    # A clean run: the full check ran once per resource and epoch.
    assert "2317 validated transitions, 3 full checks" in out, out


def test_profile_hotpath_events_mode_accounts_for_every_event(monkeypatch,
                                                             capsys):
    code = run_script("scripts/profile_hotpath.py",
                      ["--events", "--shape", "segmented", "--writes", "4"],
                      monkeypatch)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    # "segmented, 4 writes/client: T events for 128 ops, X per op
    #  (sim.events T)" — the per-kind counts sum to the run's sim.events.
    head = lines[0].split()
    total, ops = int(head[3]), int(head[6])
    assert ops == 16 * 4 * 2
    assert lines[0].endswith(f"(sim.events {total})")
    rows = [line.split(None, 2) for line in lines[3:] if line.strip()]
    assert sum(int(n) for n, _per_op, _kind in rows) == total
    assert any(kind == "Event Fabric._on_arrival" for *_n, kind in rows)


def test_profile_hotpath_events_mode_covers_the_open_loop_retry_path(
        monkeypatch, capsys):
    code = run_script("scripts/profile_hotpath.py",
                      ["--events", "--shape", "traffic", "--writes", "10"],
                      monkeypatch)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    head = lines[0].split()
    assert head[:3] == ["traffic,", "10", "requests/client:"]
    total, ops = int(head[3]), int(head[6])
    assert ops > 0 and lines[0].endswith(f"(sim.events {total})")
    rows = [line.split(None, 2) for line in lines[3:] if line.strip()]
    assert sum(int(n) for n, _per_op, _kind in rows) == total
    kinds = {kind for *_n, kind in rows}
    # Every RPC here goes through rpc_call_retry, which arms no per-call
    # condition or timer: the reply future resumes the caller directly.
    assert "Event RpcService._on_dispatch" in kinds
    assert not any("AnyOf" in kind for kind in kinds)


def test_profile_hotpath_traffic_profile_runs(monkeypatch, capsys):
    code = run_script("scripts/profile_hotpath.py",
                      ["--shape", "traffic", "--writes", "4", "--top", "3"],
                      monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "us per request" in out and "goodput" in out


def test_bench_record_appends_and_stores_vs_parent(tmp_path, monkeypatch):
    """`--from` turns a `bench/run.py --out` file into one history line;
    `--pairs` adds the last line of a `bench_pair.py` run as each
    workload's `vs_parent` (host_s ratio, pairs won, pairs run)."""
    history = tmp_path / "history.jsonl"
    pairs = tmp_path / "pairs.txt"
    host_s = {"ratio": 0.612345, "wins": 9, "n": 10}
    pairs.write_text("== tile_vector ...\n" + json.dumps({
        "base": "abc123", "workloads": {"tile_vector": {
            "metrics": {"host_s": host_s}}}}) + "\n")
    base = ["--from", "bench/baseline.json", "--history", str(history)]
    assert run_script("scripts/bench_record.py",
                      base + ["--label", "before"], monkeypatch) == 0
    assert run_script("scripts/bench_record.py",
                      base + ["--label", "after", "--pairs", str(pairs)],
                      monkeypatch) == 0
    records = [json.loads(line) for line in history.read_text().splitlines()]
    assert [r["label"] for r in records] == ["before", "after"]
    first, second = records
    assert set(first["host"]) == {"nproc", "python", "machine"}
    assert first["seed"] == 101 and first["commit"]
    e2e = {"host_s", "setup_s", "peak_rss_mb", "sim_total_ms",
           "sim_write_gbs", "sim_goodput_kops", "sim_op_mean_us"}
    assert set(first["workloads"]["strided_hot"]) == e2e
    assert "dlm.server" in first["layers"]["strided_hot"]
    assert "parent" not in first
    assert second["parent"] == "abc123"
    assert second["workloads"]["tile_vector"]["vs_parent"] == {
        "ratio": 0.6123, "wins": 9, "n": 10}
    assert set(second["workloads"]["strided_hot"]) == e2e


def _load_bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_entry(host_s, gbs=2.0, total_ms=10.0, digest="d0", failed=0):
    """A canned `bench/run.py --out` workload entry."""
    metrics = {"host_s": host_s, "sim_write_gbs": gbs,
               "sim_total_ms": total_ms, "sim_op_mean_us": 5.0}
    return {"attempted": 100, "failed": failed, "problems": [], "exit": 0,
            "sim_digest": digest,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_bench_pair_statistics():
    """Wins with ties counting for neither side, the ratio of medians,
    the base IQR, the verdict against each bound, the sim_* keys that
    differ and the failed-ops share of each side."""
    bp = _load_bench_pair()
    end_to_end = [
        {"name": "host_s", "better": "lower", "bound": 0.2},
        {"name": "sim_write_gbs", "better": "higher", "bound": 0.1},
        {"name": "sim_total_ms", "better": "lower", "bound": 0.06},
    ]
    base = [_run_entry(h) for h in (1.0, 1.0, 1.3, 1.1, 0.9)]
    head = [_run_entry(h, gbs=1.5, total_ms=11.0, digest="d1",
                       failed=2 if i == 0 else 0)
            for i, h in enumerate((0.5, 1.0, 0.6, 1.4, 0.4))]
    result = bp.compare(base, head, end_to_end)
    host = result["metrics"]["host_s"]
    # 0.5 < 1.0 and 0.6 < 1.3 and 0.4 < 0.9 win; 1.0 vs 1.0 is a tie.
    assert (host["wins"], host["n"]) == (3, 5)
    assert host["base"] == 1.0 and host["head"] == 0.6
    assert host["ratio"] == pytest.approx(0.6)
    assert host["base_iqr"] == pytest.approx(0.1)  # quartiles 1.0, 1.1
    assert host["verdict"] == "within"
    gbs = result["metrics"]["sim_write_gbs"]
    assert gbs["wins"] == 0 and gbs["ratio"] == pytest.approx(0.75)
    assert gbs["verdict"] == "CROSSED"
    assert not result["digest_equal"]
    assert result["sim_differs"] == ["sim_total_ms", "sim_write_gbs"]
    assert result["failed_share"] == {"base": 0.0, "head": 0.004}
    assert result["problems"] == []

    # Base spread wider than the bound, and the head does not beat every
    # base run: the metric cannot be told apart from noise.
    noisy = [_run_entry(h) for h in (1.0, 2.0, 1.0, 2.0)]
    same = [_run_entry(h) for h in (1.5, 1.5, 1.5, 1.5)]
    result = bp.compare(noisy, same, end_to_end)
    assert result["metrics"]["host_s"]["verdict"] == "unresolved"
    assert result["digest_equal"] and result["sim_differs"] == []


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pair_failed_run_leaves_no_worktree(tmp_path, monkeypatch,
                                                  capsys):
    """A run that fails makes the exit code non-zero and still removes
    the base checkout and its temporary directory."""
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (repo / "bench" / "run.py").write_text("import sys\nsys.exit(3)\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "canned benchmark that fails")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    bp = _load_bench_pair()
    monkeypatch.setattr(bp, "ROOT", repo)
    code = bp.main(["--base", "HEAD", "--workload", "strided_hot",
                    "--pairs", "1"])
    assert code == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not last["correct"] and "exited 3" in last["problems"][0]
    listed = subprocess.run(["git", "worktree", "list", "--porcelain"],
                            cwd=repo, capture_output=True, text=True).stdout
    assert listed.count("worktree ") == 1
    assert list(scratch.iterdir()) == []
