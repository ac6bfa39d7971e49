"""Seeded workload definitions and their closed-form output checks.

Each workload is a set of `fuzzynabla` CLI commands plus the equivalent
library calls. The seed draws the inputs (function coefficients, query
points); the program only ever sees the generated specs. Every check below
recomputes the expected answer from the mathematics of the inputs, never by
calling fuzzynabla.

This module imports nothing from fuzzynabla, so the benchmark's own
processes can build specs without paying for the package import.
"""

from __future__ import annotations

import json
import math
import random

K = 100  # the CLI's default level grid; every command below uses it
SQRT2 = math.sqrt(2.0)

WORKLOADS = ("jump-table", "dense-probe", "rule-check")


# the case a CSV row must carry, given which endpoint ordering the closed
# form realizes
_CASE_OF_ORDER = {1: "CaseI", -1: "CaseII"}


def _sizes(toy: bool) -> dict:
    if toy:
        return {"recip_n": 20, "dense_pts": 5, "grid_max": 10,
                "interval_pts": 5, "defect_pts": 3}
    return {"recip_n": 1000, "dense_pts": 225, "grid_max": 430,
            "interval_pts": 20, "defect_pts": 8}


def _fmt_points(points) -> str:
    # `--points=<list>`: argparse would read "-0.5,..." as a flag otherwise
    return "--points=" + ",".join(repr(p) for p in points)


def _draw_points(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    out: set[float] = set()
    while len(out) < n:
        out.add(round(rng.uniform(lo, hi), 6))
    return sorted(out)


def build(name: str, seed: int, toy: bool = False) -> dict:
    """The JSON-serialisable spec of one workload at one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    size = _sizes(toy)
    if name == "jump-table":
        return _jump_table(rng, size)
    if name == "dense-probe":
        return _dense_probe(rng, size)
    return _rule_check(rng, size)


def _jump_table(rng, size) -> dict:
    n = size["recip_n"]
    # arm constants shared by both generators keep f(0) single-valued and
    # every backward gH difference in existence (README's `tri` example
    # with p=2, q=1, r=0)
    p = round(rng.uniform(2.0, 3.0), 2)
    q = round(rng.uniform(0.5, 1.5), 2)
    r = round(rng.uniform(0.0, 1.0), 2)
    ts = f"union(recip(1,{n}), recip(sqrt2,{n}), points(0))"
    fn = (f"tri(piecewise(in recip(1) => -{p}, in recip(sqrt2) => t-{p}), "
          f"(t^2+t)/2-{q}, "
          f"piecewise(in recip(1) => t^2+t+{r}, in recip(sqrt2) => t^2+{r}))")
    return {
        "name": "jump-table",
        "timescale": ts,
        "fns": [fn],
        "points": "all-scattered",
        "params": {"n": n, "p": p, "q": q, "r": r},
        "commands": [{
            "argv": ["diff", "--timescale", ts, "--fn", fn,
                     "--points", "all-scattered"],
            "exit": 0, "out": "diff.csv", "check": "jump-table",
        }],
    }


DENSE_SCALE = "union(interval(-2,0), interval(0.5,2), hgrid(0,0.5,0.05))"
DENSE_FN = "endpoints(t - (1-alpha)*(t^2+1); t + (1-alpha)*(t^2+1))"


def _dense_probe(rng, size) -> dict:
    m = size["dense_pts"]
    # keep clear of 0 (crisp derivative) and of 0.5 (the grid's last point
    # would join the left probe streams)
    pts = (_draw_points(rng, -1.99, -0.01, m)
           + _draw_points(rng, 0.51, 1.99, m))
    return {
        "name": "dense-probe",
        "timescale": DENSE_SCALE,
        "fns": [DENSE_FN],
        "points": pts,
        "params": {},
        "commands": [{
            "argv": ["diff", "--timescale", DENSE_SCALE, "--fn", DENSE_FN,
                     _fmt_points(pts)],
            "exit": 0, "out": "diff.csv", "check": "dense-probe",
        }],
    }


def _rule_check(rng, size) -> dict:
    gmax = size["grid_max"]
    ts = f"union(interval(0,1), hgrid(1,{gmax},1))"
    # few probed points: a pass's 90th percentile then falls among the jump
    # points' ops, not at the edge of the ten-times-slower probed ones
    ipts = _draw_points(rng, 0.02, 0.98, size["interval_pts"])
    pts = ipts + [float(k) for k in range(1, gmax + 1)]
    a1, a2, a3 = (round(rng.uniform(lo, lo + 0.2), 2) for lo in (0.1, 0.4, 0.7))
    k1 = round(rng.uniform(0.3, 0.7), 2)
    k2 = round(rng.uniform(1.2, 1.8), 2)
    c1 = round(rng.uniform(0.2, 0.8), 2)
    c2 = round(rng.uniform(0.2, 0.8), 2)
    # f: ordering I everywhere on t >= 0; g: interval-valued, ordering I
    f = f"tri({a1}*t^2, {a2}*t^2+t, {a3}*t^2+2*t)"
    g = f"endpoints({k1}*t - {c1}; {k2}*t + {c2})"
    # product-interval needs fs*nabla fs < 0 and a widening product on
    # [0, gmax]; product1 needs fs*nabla fs > 0. Unit-sized factors keep
    # probe round-off below the agreement tolerance.
    fs_neg = f"1-t/{rng.randint(900, 1100)}"
    fs_pos = f"t+{round(rng.uniform(1.0, 5.0), 2)}"
    all_pts = _fmt_points(pts)
    return {
        "name": "rule-check",
        "timescale": ts,
        "fns": [f, g],
        "scalar_fns": {"product-interval": fs_neg, "product1": fs_pos},
        "points": pts,
        "interval_points": ipts,
        "params": {"a": [a1, a2, a3]},
        "commands": [
            {"argv": ["check", "sum", "--timescale", ts, "--fn", f, "--fn", g,
                      all_pts],
             "exit": 0, "out": "sum.csv", "check": "rules"},
            {"argv": ["check", "product-interval", "--timescale", ts,
                      "--scalar-fn", fs_neg, "--fn", g, all_pts],
             "exit": 0, "out": "product-interval.csv", "check": "rules"},
            {"argv": ["check", "product1", "--timescale", ts,
                      "--scalar-fn", fs_pos, "--fn", g, all_pts],
             "exit": 0, "out": "product1.csv", "check": "rules"},
            {"argv": ["check", "characterize", "--format", "json",
                      "--timescale", ts, "--fn", f, _fmt_points(ipts)],
             "exit": 0, "out": "characterize.json", "check": "characterize"},
        ],
    }


def defect_probe(seed: int, toy: bool = False) -> dict:
    """A documented-contract probe that the seed commit fails.

    The contract says `diff` reports each point where the derivative does
    not exist as a NotDifferentiable row and exits 2. For this function the
    gH difference fails at the probes, and the command aborts at the first
    point without a table.
    """
    rng = random.Random(f"defect:{seed}")
    pts = _draw_points(rng, 0.1, 1.9, _sizes(toy)["defect_pts"])
    fn = "endpoints(-2 + alpha + t*(alpha - alpha^2)/2; 2 - alpha)"
    return {
        "points": pts,
        "argv": ["diff", "--timescale", "interval(0,2)", "--fn", fn,
                 _fmt_points(pts)],
        "exit": 2, "out": "defect.csv",
    }


# ---------------------------------------------------------------------------
# closed forms


def _alphas() -> list[float]:
    return [k / K for k in range(K + 1)]


def _jump_points(n: int):
    """(t, generator) for every realized point, sorted; 0 belongs to both."""
    pts = [(1.0 / k, "one") for k in range(1, n + 1)]
    pts += [(SQRT2 / k, "sqrt2") for k in range(1, n + 1)]
    pts.append((0.0, "one"))
    return sorted(pts)


def _jump_tri(t: float, gen: str, prm: dict) -> tuple[float, float, float]:
    p, q, r = prm["p"], prm["q"], prm["r"]
    b = (t * t + t) / 2 - q
    if gen == "one":
        return -p, b, t * t + t + r
    return t - p, b, t * t + r


def expected_jump_table(prm: dict) -> dict[float, tuple[str, list, list, float]]:
    """t -> (case, lower, upper, operand scale) of the exact gH quotient
    [f(t) gH- f(rho(t))] / nu(t) at every left-scattered point."""
    alphas = _alphas()
    pts = _jump_points(prm["n"])
    out = {}
    for (rho, g0), (t, g1) in zip(pts, pts[1:]):
        nu = t - rho
        a0, b0, c0 = _jump_tri(rho, g0, prm)
        a1, b1, c1 = _jump_tri(t, g1, prm)
        da, db, dc = a1 - a0, b1 - b0, c1 - c0
        order = 1 if da <= db <= dc else -1 if da >= db >= dc else 0
        lo, hi = [], []
        for a in alphas:
            dlo = da + a * (db - da)
            dhi = dc + a * (db - dc)
            lo.append(min(dlo, dhi) / nu)
            hi.append(max(dlo, dhi) / nu)
        scale = (abs(a0) + abs(a1) + abs(c0) + abs(c1)) / nu
        out[t] = (_CASE_OF_ORDER.get(order, "none"), lo, hi, scale)
    return out


def _dense_expected(t: float) -> tuple[str, list, list]:
    lo, hi = [], []
    for a in _alphas():
        x, y = 1 - 2 * t * (1 - a), 1 + 2 * t * (1 - a)
        lo.append(min(x, y))
        hi.append(max(x, y))
    return ("CaseII" if t < 0 else "CaseI"), lo, hi


def _characterize_expected(t: float, a: list) -> tuple[list, list]:
    da, db, dc = 2 * a[0] * t, 2 * a[1] * t + 1, 2 * a[2] * t + 2
    alphas = _alphas()
    return ([da + x * (db - da) for x in alphas],
            [dc + x * (db - dc) for x in alphas])


JUMP_RTOL = 1e-12   # relative to the quotient's operand scale (cancellation)
DENSE_TOL = 1e-5    # rules.default_residual_tol at a left-dense point


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _near_keys(keys, want) -> bool:
    """Same sorted point set, up to membership round-off."""
    keys, want = sorted(keys), sorted(want)
    return len(keys) == len(want) and all(
        abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in zip(keys, want))


def _csv_table(text: str, header: str) -> dict[float, list[list[str]]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad header {lines[:1]!r}")
    rows: dict[float, list[list[str]]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows.setdefault(float(cells[0]), []).append(cells)
    return rows


def check_output(spec: dict, cmd: dict, text: str) -> list[str]:
    """Problems found in one command's output (empty when correct)."""
    try:
        return _CHECKS[cmd["check"]](spec, cmd, text)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unparsable output: {type(err).__name__}: {err}"]


def _check_jump(spec, cmd, text) -> list[str]:
    exp = expected_jump_table(spec["params"])
    rows = _csv_table(text, "t,alpha,d_lower,d_upper,case,residual")
    if not _near_keys(rows, exp):
        return [f"{len(rows)} points in output, expected {len(exp)}"]
    probs = []
    for (t, cells), want_t in zip(sorted(rows.items()), sorted(exp)):
        case, lo, hi, scale = exp[want_t]
        tol = JUMP_RTOL * scale
        if len(cells) != K + 1:
            probs.append(f"t={t!r}: {len(cells)} rows")
            continue
        for k, c in enumerate(cells):
            if (c[4] != case or float(c[5]) != 0.0
                    or not _close(float(c[1]), k / K, 1e-15)
                    or not _close(float(c[2]), lo[k], tol)
                    or not _close(float(c[3]), hi[k], tol)):
                probs.append(f"t={t!r} alpha={c[1]}: got {c[2:]}, "
                             f"want {case} [{lo[k]!r}, {hi[k]!r}]")
                break
        if len(probs) > 5:
            break
    return probs


def _check_dense(spec, cmd, text) -> list[str]:
    rows = _csv_table(text, "t,alpha,d_lower,d_upper,case,residual")
    if not _near_keys(rows, spec["points"]):
        return [f"{len(rows)} points in output, expected {len(spec['points'])}"]
    probs = []
    for t, cells in sorted(rows.items()):
        case, lo, hi = _dense_expected(t)
        if len(cells) != K + 1:
            probs.append(f"t={t!r}: {len(cells)} rows")
            continue
        for k, c in enumerate(cells):
            if (c[4] != case or not _close(float(c[2]), lo[k], DENSE_TOL)
                    or not _close(float(c[3]), hi[k], DENSE_TOL)):
                probs.append(f"t={t!r} alpha={c[1]}: got {c[2:]}, "
                             f"want {case} [{lo[k]!r}, {hi[k]!r}]")
                break
        if len(probs) > 5:
            break
    return probs


_RULE_NAME = {"sum": "sum", "product-interval": "product-interval",
              "product1": "product-fuzzy"}


def _check_rules(spec, cmd, text) -> list[str]:
    rows = _csv_table(text, "t,rule,verdict,residual,hypotheses")
    if not _near_keys(rows, spec["points"]):
        return [f"{len(rows)} points in output, expected {len(spec['points'])}"]
    rule = _RULE_NAME[cmd["argv"][1]]
    bad = [t for t, cells in rows.items()
           if len(cells) != 1 or cells[0][1] != rule or cells[0][2] != "Verified"]
    return [f"{len(bad)} rows not Verified, first t={min(bad)!r}"] if bad else []


def _check_characterize(spec, cmd, text) -> list[str]:
    results = json.loads(text)
    if not _near_keys([r["t"] for r in results], spec["interval_points"]):
        return [f"{len(results)} results, expected {len(spec['interval_points'])}"]
    probs = []
    for r in results:
        lo, hi = _characterize_expected(r["t"], spec["params"]["a"])
        val = r["value"]
        if (r["case"] != "CaseI" or val is None
                or any(not _close(x, y, DENSE_TOL) for x, y in zip(val["lower"], lo))
                or any(not _close(x, y, DENSE_TOL) for x, y in zip(val["upper"], hi))
                or len(val["lower"]) != K + 1):
            probs.append(f"t={r['t']!r}: case {r['case']}, value off the "
                         f"closed form")
    return probs[:5]


_CHECKS = {
    "jump-table": _check_jump,
    "dense-probe": _check_dense,
    "rules": _check_rules,
    "characterize": _check_characterize,
}


def check_defect(probe: dict, code: int, text: str) -> int:
    """How many probe points miss their NotDifferentiable row."""
    if code != probe["exit"]:
        return len(probe["points"])
    try:
        rows = _csv_table(text, "t,alpha,d_lower,d_upper,case,residual")
    except ValueError:
        return len(probe["points"])
    nd = {t for t, cells in rows.items()
          if len(cells) == 1 and cells[0][4] == "NotDifferentiable"}
    return sum(1 for t in probe["points"]
               if not any(abs(t - s) <= 1e-12 for s in nd))
