"""Library pass: one fresh process that times the set-up, then calls the
public API point by point until its time budget is spent.

    PYTHONPATH=src python3 perfbench/libpass.py WORKLOAD SEED TOY BUDGET_S

Set-up is what a library user pays before the first derivative: importing
fuzzynabla, parsing the scale and functions, binding, and selecting points.
Each pass then runs every op of the workload once on freshly bound
functions (cold memo caches) and reports its throughput and median and
90th-percentile op latency. One op is one point: one derivative_report call,
or every rule check the workload makes at that point. Prints one JSON object
on stdout.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

import workloads

clock = time.perf_counter


def _setup(spec: dict):
    t0 = clock()
    import fuzzynabla as fz
    t_import = clock()
    ts = fz.parse_timescale(spec["timescale"])
    defs = [fz.parse_function(s) for s in spec["fns"]]
    scalars = {name: fz.parse_scalar(src)
               for name, src in spec.get("scalar_fns", {}).items()}
    t_parse = clock()
    fns = [fz.bind_function(d, ts) for d in defs]
    t_bind = clock()
    if spec["points"] == "all-scattered":
        points = ts.left_scattered_points()
    else:
        points = sorted({ts.snap(p) for p in spec["points"]})
    t_select = clock()
    times = {"setup_s": t_select - t0, "import_s": t_import - t0,
             "parse_s": t_parse - t_import, "bind_s": t_bind - t_parse,
             "select_s": t_select - t_bind}
    return fz, ts, defs, fns, scalars, points, times


def _ops(fz, spec, ts, fns, scalars, points, seed):
    """(op, t) pairs; an op returns an error string, or None when its
    results pass their checks."""
    name = spec["name"]
    if name in ("jump-table", "dense-probe"):
        (f,) = fns

        def derivative(t):
            res = fz.derivative_report(f, ts, t)
            want = (("CaseII" if t < 0 else "CaseI") if name == "dense-probe"
                    else None)
            if res.case is fz.DiffCase.NOT_DIFFERENTIABLE or (
                    want is not None and res.case.value != want):
                return f"{res.case.value} at t={t!r}"
            return None

        return [(derivative, t) for t in points]

    f, g = fns
    fs_neg = _scalar(fz, scalars["product-interval"])
    fs_pos = _scalar(fz, scalars["product1"])

    interval_pts = {ts.snap(p) for p in spec["interval_points"]}

    def checks(t):
        """Every rule check the CLI commands make at t: one op per point."""
        reps = [fz.sum_rule(f, g, ts, t), fz.product_interval(fs_neg, g, ts, t)]
        rep = fz.product_fuzzy(fs_pos, g, ts, t)
        if rep.extras["sigma"] <= 0:
            return f"product1 sign at t={t!r}"
        reps.append(rep)
        bad = [r.rule for r in reps if r.verdict is not fz.Verdict.VERIFIED]
        if bad:
            return f"{', '.join(bad)} not Verified at t={t!r}"
        if t in interval_pts:
            case = fz.derivative_report(f, ts, t).case.value
            if case != "CaseI":
                return f"characterize {case} at t={t!r}"
        return None

    # interval (probed) and grid (jump) points interleave, so a pass's
    # median and tail are measured over the same stretch of time
    ops = [(checks, t) for t in points]
    random.Random(seed).shuffle(ops)
    return ops


def _scalar(fz, expr):
    # the CLI's --scalar-fn compilation: a float -> float closure
    return lambda t: float(fz.eval_expr(expr, t))


def main(argv: list[str]) -> int:
    name, seed, toy, budget = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    spec = workloads.build(name, seed, toy)
    fz, ts, defs, fns, scalars, points, times = _setup(spec)

    passes: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    start = clock()
    while budget > 0:
        ops = _ops(fz, spec, ts, fns, scalars, points, seed)
        latencies = []
        for op, t in ops:
            t0 = clock()
            try:
                err = op(t)
            except Exception as exc:  # any raise is a failed op, counted below
                err = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            if err is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(err)
        attempted += len(ops)
        busy = sum(latencies)
        dec = statistics.quantiles(latencies, n=10, method="inclusive")
        passes.append({"ops_per_s": len(ops) / busy,
                       "p50_ms": statistics.median(latencies) * 1e3,
                       "p90_ms": dec[-1] * 1e3})
        if clock() - start + busy > budget:
            break
        fns = [fz.bind_function(d, ts) for d in defs]  # cold caches again
    print(json.dumps({"times": times, "passes": passes, "attempted": attempted,
                      "failed": failed, "errors": errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
