"""Smoke test of the benchmark itself: one pass per workload and trace mode.

    python3 perfbench/smoke.py

Runs ``run.py`` for one pass (``--seconds 1``) on every workload in
``BENCHMARK.json``, untraced and traced, and checks that each declared
metric is printed with its declared unit, that no call failed or
mismatched the DuckDB oracle, and that the traced mirror of
``wireframe.run`` agrees with the untraced call. Also checks that the
benchmark refuses to run, without printing a result, when the program's
sources are absent. Not collected by pytest (takes several minutes).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    p = run(ROOT, workload, trace)
    assert p.returncode == 0, f"{workload}/{trace} exited {p.returncode}:\n{p.stderr[-3000:]}"
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    assert any(line.startswith("failed_share = 0 share") for line in lines), lines
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, sorted(set(got) ^ {m["name"] for m in declared})
    for m in declared:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], (m["name"], v)
        assert isinstance(v["value"], (int, float)), (m["name"], v)
    if trace:
        assert got["trace.mirror_mismatches"]["value"] == 0, "trace is stale"
    else:
        for m in declared:
            assert got[m["name"]]["value"] > 0, (m["name"], got[m["name"]])
    print(f"ok {workload} trace={trace}: {result['attempted']} calls", flush=True)


def check_refuses_without_sources(spec: dict, workload: str) -> None:
    bare = ROOT / ".bench_build" / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for d in spec["paths"]:
            shutil.copytree(ROOT / d, bare / d,
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, workload, 0)
        assert p.returncode != 0, "benchmark ran without the program's sources"
        assert '"correct"' not in p.stdout, p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the program's sources", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check_refuses_without_sources(spec, names[0])
    for workload in names:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
