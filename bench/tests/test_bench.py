"""The benchmark's own tests: `python -m pytest bench/tests -q`.

Not part of the tier-1 suite (`testpaths = ["tests"]`); they guard the
benchmark's contract, not the program.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run
import spec

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# ------------------------------------------------------------- declarations
def test_names_are_well_formed_and_unique():
    names = [n for n, *_ in spec.END_TO_END + spec.PER_LAYER]
    names += list(spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in spec.UNITS.values():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_declares_what_the_code_emits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["bench"]
    assert DECLARED["workloads"] == [
        {"name": n, "why": why} for n, why in spec.WORKLOADS]
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])
    assert DECLARED["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in spec.END_TO_END]
    assert DECLARED["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in spec.PER_LAYER]
    assert len(DECLARED["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


# ------------------------------------------------------------------- layers
def test_every_source_file_has_exactly_one_layer():
    src = ROOT / "src" / "repro"
    files = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py"))
    assert files
    seen = {layers.layer_of(f) for f in files}
    assert seen <= set(spec.LAYERS)
    # every named layer but the catch-all owns at least one file
    assert seen >= set(spec.LAYERS) - {"other"}
    assert layers.layer_of("dlm/server.py") == "dlm.server"
    assert layers.layer_of("dlm/lease.py") == "dlm.other"
    assert layers.layer_of("pfs/extent_cache.py") == "pfs.cache"
    assert layers.layer_of("pfs/filesystem.py") == "pfs.other"
    assert layers.layer_of("sim/core.py") == "sim"
    assert layers.layer_of("config.py") == "other"
    assert layers.layer_of("harness/sweep.py") == "other"


def test_builtin_self_time_is_charged_to_its_caller():
    root = "/x/src/repro"
    conflicts = (f"{root}/dlm/server.py", 10, "_conflicts")
    merge = (f"{root}/dlm/extent.py", 20, "merge")
    dumps = ("/usr/lib/python3/json/encoder.py", 5, "encode")
    builtin_len = ("~", 0, "<built-in method builtins.len>")
    stats = {
        conflicts: (1, 1, 2.0, 3.0, {}),
        merge: (1, 1, 1.0, 1.5, {}),
        dumps: (1, 1, 0.25, 0.5, {}),
        # cProfile keeps (calls, primitive calls, self, cumulative) per caller
        builtin_len: (6, 6, 1.75, 1.75, {conflicts: (3, 3, 1.0, 1.0),
                                         merge: (2, 2, 0.5, 0.5),
                                         dumps: (1, 1, 0.25, 0.25)}),
    }
    got = layers.attribute(stats, root)
    assert got["dlm.server"] == 3.0
    assert got["dlm.extent"] == 1.5
    assert got["other"] == 0.5   # stdlib self time + its builtin callee
    assert sum(got.values()) == 5.0
    assert set(got) == set(spec.LAYERS)


# --------------------------------------------------------------- end to end
def test_strided_hot_smoke_emits_every_end_to_end_metric(capsys):
    code = run.main(["--workload", "strided_hot", "--small", "--seed", "5",
                     "--seconds", "0.1", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, *_ in spec.END_TO_END]
    for name, entry in result["metrics"].items():
        assert entry["unit"] == spec.UNITS[name]
        assert entry["value"] > 0, name


def test_traced_run_emits_every_per_layer_metric(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "failover_validated", "--small",
                     "--seconds", "0.1", "--trace", "1"])
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [n for n, *_ in spec.PER_LAYER]
    value = {n: e["value"] for n, e in result["metrics"].items()}
    assert value["calls.dlm.validator.validate_resource"] > 0
    assert value["host_self_s.dlm.validator"] > 0
    assert value["sim_mttr_ms"] > 0
    assert value["traffic.offered"] == 0    # not this workload's layer
    trace = json.loads(
        (tmp_path / "trace-failover_validated.json").read_text())
    assert len(trace["top_functions"]) == 25
    assert abs(trace["layer_sum_over_traced_host_s"] - 1) < 0.25


def test_same_seed_repeats_exactly_and_another_seed_does_not(tmp_path):
    docs = []
    for seed, name in ((101, "a"), (101, "b"), (202, "c")):
        out = tmp_path / f"{name}.json"
        assert run.main(["--workload", "mixed_rw_open", "--small", "--seed",
                         str(seed), "--repeats", "2", "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    a, b, c = (d["workloads"]["mixed_rw_open"] for d in docs)
    sim = [n for n, *_ in spec.END_TO_END if n.startswith("sim_")]
    assert a["sim_digest"] == b["sim_digest"] != c["sim_digest"]
    for name in sim:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    assert a["metrics"]["host_s"]["n"] == 2
    assert docs[0]["seed"] == 101 and docs[0]["host"]["nproc"] >= 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "strided_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
