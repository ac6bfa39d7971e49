"""fuzzynabla benchmark: drives the CLI and the library on seeded workloads.

    python3 perfbench/run.py --workload jump-table --seed 1 --seconds 40 --trace 0

Run from the repository root. Every CLI command runs as a fresh
`python -m fuzzynabla.cli` process with PYTHONPATH=src, one at a time
(closed loop, one client). With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it runs each command once more under tracer.py and
prints the per-layer metrics. The last stdout line is the result object;
the line before it holds the run's provenance (machine, versions, output
hashes, the known-defect probe).

Timings on a shared host move in phases of tens of seconds, so every timing
is a median over repetitions inside the run, and set-up time is sampled in
several fresh processes. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120.0
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
LIB_BUDGET_S = 2.0     # library time per iteration (at least one full pass)
SETUP_ONLY_PER_ITER = 2  # extra fresh processes sampling set-up per iteration

clock = time.perf_counter


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # so per-layer counts repeat exactly
    return env


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, float, float]:
    """Run one child process: exit code, wall seconds from launch to exit,
    and the child's own peak RSS in MB."""
    with open(stderr_path, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be
            # the running max over every child so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, toy: bool):
        self.spec = workloads.build(workload, seed, toy)
        self.seed, self.seconds, self.toy = seed, seconds, toy
        self.work = ROOT / ".bench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}

    # -- bookkeeping --------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    # -- CLI commands ---------------------------------------------------------

    def _cli_argv(self, cmd: dict, out: Path, traced: Path | None) -> list[str]:
        args = [*cmd["argv"], "--out", str(out)]
        if traced is None:
            return [sys.executable, "-m", "fuzzynabla.cli", *args]
        return [sys.executable, str(HERE / "tracer.py"), "--spans", str(traced),
                "--", *args]

    def cli_rep(self, traced: bool = False):
        """Run every command of the workload once; check exit codes and
        output bytes. Returns (wall seconds, peak RSS MB, span docs)."""
        wall, rss, docs = 0.0, 0.0, []
        for i, cmd in enumerate(self.spec["commands"]):
            out = self.work / cmd["out"]
            spans = self.work / f"spans-{i}.json" if traced else None
            code, w, r = run_child(self._cli_argv(cmd, out, spans),
                                   self.work / "stderr.txt")
            wall += w
            rss = max(rss, r)
            self.attempted += 1
            if code != cmd["exit"]:
                msg = (self.work / "stderr.txt").read_text(errors="replace")
                self.fail(f"{cmd['out']}: exit {code}, expected {cmd['exit']}: "
                          f"{msg.strip()[-300:]}")
                continue
            self._check_bytes(cmd, out)
            if traced:
                docs.append(json.loads(spans.read_text()))
        return wall, rss, docs

    def _check_bytes(self, cmd: dict, out: Path) -> None:
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self.hashes.get(cmd["out"])
        if first is None:  # first repetition: check against the closed form
            self.hashes[cmd["out"]] = digest
            probs = workloads.check_output(self.spec, cmd, data.decode())
            if probs:
                self.fail(f"{cmd['out']}: " + "; ".join(probs[:3]))
        elif first != digest:
            self.fail(f"{cmd['out']}: output bytes differ between repetitions")

    def defect_probe(self) -> dict:
        """Run the known-defect probe once, outside every timing."""
        probe = workloads.defect_probe(self.seed, self.toy)
        out = self.work / probe["out"]
        out.unlink(missing_ok=True)
        code, _, _ = run_child(self._cli_argv(probe, out, None),
                               self.work / "stderr.txt")
        text = out.read_text() if out.exists() else ""
        missing = workloads.check_defect(probe, code, text)
        return {"points": len(probe["points"]), "missing_rows": missing,
                "exit": code}

    # -- library ------------------------------------------------------------

    def lib_child(self, budget: float) -> dict | None:
        """A fresh library process: set-up, then passes for budget seconds
        (none when budget is 0). None when the process itself failed."""
        argv = [sys.executable, str(HERE / "libpass.py"), self.spec["name"],
                str(self.seed), "1" if self.toy else "0", str(budget)]
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            self.attempted += 1
            self.fail(f"library process exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}")
            return None
        doc = json.loads(proc.stdout.splitlines()[-1])
        self.attempted += doc["attempted"]
        for err in doc["errors"]:
            self.problems.append(f"library: {err}")
        self.failed += doc["failed"]
        return doc

    # -- runs ---------------------------------------------------------------

    def _loop(self, step, min_iterations: int) -> int:
        """Call step() until the next call would overrun --seconds (at least
        min_iterations times). Returns the number of iterations."""
        start = clock()
        n = 0
        while True:
            step()
            n += 1
            elapsed = clock() - start
            if n >= min_iterations and elapsed + elapsed / n > self.seconds:
                return n

    def measure(self) -> tuple[dict, dict]:
        walls, rsss, setups, passes = [], [], [], []

        def step():
            w, r, _ = self.cli_rep()
            walls.append(w)
            rsss.append(r)
            docs = [self.lib_child(LIB_BUDGET_S)]
            docs += [self.lib_child(0.0) for _ in range(SETUP_ONLY_PER_ITER)]
            for doc in filter(None, docs):
                setups.append(doc["times"]["setup_s"])
                passes.extend(doc["passes"])

        n = self._loop(step, MIN_ITERATIONS)
        if not passes:
            raise RuntimeError("no library pass completed")
        # the host alternates between speeds for seconds at a time, so the
        # run reports its slow phase, which nearly every run contains: the
        # slowest repetition, the library pass with the highest median, and
        # upper quantiles of set-up times and of the passes' 90th percentiles
        slow = max(passes, key=lambda p: p["p50_ms"])
        setup = _upper(setups, 10)
        p90 = _upper([p["p90_ms"] for p in passes], 4)
        metrics = {
            "wall_s": (max(walls), "s"),
            "setup_s": (setup, "s"),
            "points_per_s": (slow["ops_per_s"], "1/s"),
            "point_ms_p50": (slow["p50_ms"], "ms"),
            "point_ms_p90": (p90, "ms"),
            "peak_rss_mb": (max(rsss), "MB"),
        }
        samples = {"iterations": n, "cli_wall_s": walls,
                   "setup_s": setups, "library_passes": passes}
        return metrics, samples

    def measure_traced(self) -> tuple[dict, dict]:
        plain, traced, per_rep = [], [], []

        def step():
            plain.append(self.cli_rep()[0])
            w, _, docs = self.cli_rep(traced=True)
            traced.append(w)
            if len(docs) == len(self.spec["commands"]):
                per_rep.append(tracer.layer_metrics(docs))

        n = self._loop(step, MIN_TRACED_ITERATIONS)
        if not per_rep:
            raise RuntimeError("no traced repetition completed")
        metrics = {}
        for name, first in per_rep[0].items():
            unit = _unit(name)
            # counts repeat exactly (checked below); times are medians
            value = first if unit == "count" else statistics.median(
                rep[name] for rep in per_rep)
            metrics[name] = (value, unit)
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s")
        samples = {"iterations": n, "traced_reps": len(per_rep),
                   "counts_repeat": all(
                       rep[k] == per_rep[0][k] for rep in per_rep
                       for k in rep if _unit(k) == "count")}
        return metrics, samples


def _upper(values: list[float], n: int) -> float:
    """The highest of the n-quantiles (n=4: upper quartile)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[-1]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".checks", ".f_calls", ".f_evals")):
        return "count"
    return "1"


def _provenance() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fuzzynabla").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "machine": f"{platform.machine()} {platform.platform()}, "
                   f"{os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the harness self-test")
    args = ap.parse_args(argv)

    if not (SRC / "fuzzynabla" / "cli.py").is_file():
        print(f"error: no fuzzynabla sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, args.toy)
    try:
        # warm-up: compile bytecode once, outside every timing
        run_child([sys.executable, "-c", "import fuzzynabla.cli"],
                  bench.work / "stderr.txt")
        defect = bench.defect_probe()
        if args.trace:
            metrics, samples = bench.measure_traced()
            metrics.update(_cli_output_metrics(bench))
            metrics["nabla.known_defect_frac"] = (
                defect["missing_rows"] / defect["points"], "1")
        else:
            metrics, samples = bench.measure()
    finally:
        bench.close()

    why = {w["name"]: w["why"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    info = {"workload": args.workload, "seed": args.seed,
            "why": why.get(args.workload), "trace": args.trace,
            **_provenance(), "output_sha256": bench.hashes,
            "known_defect_probe": defect, "samples": samples,
            "problems": bench.problems}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _cli_output_metrics(bench: Bench) -> dict:
    rows = size = 0
    for cmd in bench.spec["commands"]:
        path = bench.work / cmd["out"]
        if path.exists():
            data = path.read_bytes()
            size += len(data)
            rows += (data.count(b"\n") - 1 if cmd["out"].endswith(".csv")
                     else len(json.loads(data)))
    return {"cli.rows": (rows, "count"), "cli.output_bytes": (size, "count")}


if __name__ == "__main__":
    sys.exit(main())
