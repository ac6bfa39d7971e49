"""Quick self-test of the benchmark harness at toy size (about a minute).

    python3 perfbench/selftest.py

For every workload it runs run.py with --toy in both modes and asserts that
the result line has exactly the contract's keys, that every metric named in
BENCHMARK.json prints with its unit, and that all output checks pass. It
also asserts that the closed-form checks reject a corrupted output, that a
traced command's layer self times sum to its traced total, and that
per-layer counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _declared(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0, info["problems"]
    assert res["attempted"] >= 1
    return res | {"info": info}


def check_metrics() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = _declared(section)
        for workload in workloads.WORKLOADS:
            res = _run(workload, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), name
            if trace:
                assert res["info"]["samples"]["counts_repeat"], workload
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def check_rejects_corruption() -> None:
    spec = workloads.build("jump-table", 7, toy=True)
    cmd = spec["commands"][0]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "diff.csv"
        subprocess.run([sys.executable, "-m", "fuzzynabla.cli", *cmd["argv"],
                        "--out", str(out)], cwd=ROOT, env=_env(), check=True)
        text = out.read_text()
    assert workloads.check_output(spec, cmd, text) == []
    lines = text.splitlines()
    cells = lines[50].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    lines[50] = ",".join(cells)
    assert workloads.check_output(spec, cmd, "\n".join(lines) + "\n")
    print("ok  closed-form check rejects a value off by 1e-9 relative")


def check_self_times() -> None:
    spec = workloads.build("rule-check", 7, toy=True)
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(2):
            spans = Path(tmp) / f"spans-{rep}.json"
            subprocess.run([sys.executable, str(HERE / "tracer.py"), "--spans",
                            str(spans), "--", *spec["commands"][0]["argv"],
                            "--out", str(Path(tmp) / "out.csv")],
                           cwd=ROOT, env=_env(), check=True)
            docs.append(json.loads(spans.read_text()))
    m = [tracer.layer_metrics([d]) for d in docs]
    total = m[0]["trace.total_s"]
    shares = sum(m[0][f"{layer}.share"] for layer in tracer.LAYERS)
    assert abs(shares - 1.0) < 1e-9, shares
    own = sum(m[0].get(f"{layer}.self_s", 0.0) for layer in tracer.LAYERS)
    own += m[0]["rules.share"] * total
    assert abs(own - total) <= 1e-9 * total, (own, total)
    counts = [k for k in m[0] if k.endswith(".calls")]
    assert all(m[0][k] == m[1][k] for k in counts), "counts differ"
    print(f"ok  layer self times sum to the traced total ({total:.4f} s); "
          f"{len(counts)} counts repeat")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


if __name__ == "__main__":
    check_rejects_corruption()
    check_self_times()
    check_metrics()
    print("selftest passed")
