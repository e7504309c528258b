"""Smoke tests for the repository scripts."""

import runpy
import sys

import pytest


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


def test_bench_record_appends_and_reports_delta(tmp_path, monkeypatch,
                                                capsys):
    """`--from` turns a `bench/run.py --out` file into one history line;
    the delta of the last two records warns past the BENCHMARK.json
    bound and only there."""
    import json

    history = tmp_path / "history.jsonl"
    base = ["--from", "bench/baseline.json", "--history", str(history)]
    assert run_script("scripts/bench_record.py",
                      base + ["--label", "before"], monkeypatch) == 0
    slower = json.loads(open("bench/baseline.json").read())
    host_s = slower["workloads"]["tile_vector"]["metrics"]["host_s"]
    host_s["value"] *= 1.5
    src = tmp_path / "slower.json"
    src.write_text(json.dumps(slower))
    capsys.readouterr()
    assert run_script("scripts/bench_record.py",
                      ["--from", str(src), "--history", str(history),
                       "--label", "after"], monkeypatch) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in history.read_text().splitlines()]
    assert [r["label"] for r in records] == ["before", "after"]
    first = records[0]
    assert set(first["host"]) == {"nproc", "python", "machine"}
    assert first["seed"] == 101 and first["commit"]
    assert set(first["workloads"]["strided_hot"]) == {
        "host_s", "setup_s", "peak_rss_mb", "sim_total_ms", "sim_write_gbs",
        "sim_goodput_kops", "sim_op_mean_us"}
    assert "dlm.server" in first["layers"]["strided_hot"]
    assert "'before' -> 'after'" in out
    warnings = [line for line in out.splitlines()
                if line.startswith("::warning::")]
    assert len(warnings) == 1 and "tile_vector host_s" in warnings[0]
