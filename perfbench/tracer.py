"""Traced CLI run: wraps the public functions of every fuzzynabla module in
spans, runs one `fuzzynabla` command in-process and writes the spans.

    PYTHONPATH=src python3 perfbench/tracer.py --spans FILE -- diff ...

A span is [name, layer, start, end, parent index, tag]. Spans stay in memory
and are written once the command has finished. The package source is not
touched: wrappers are installed under every module-global name the package
calls through (`nabla.gh_diff`, `rules.nabla_gh`, `cli.sum_rule`, ...), and
on the classes for methods, so no call escapes its span.

`layer_metrics` turns the span files of one workload into per-layer numbers.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("timescale", "dsl", "fuzzy", "nabla", "rules", "cli")

# module -> functions wrapped wherever the package holds a reference to them.
# eval_expr is left out on purpose: it recurses per syntax node and would
# add ~170k spans per dense-probe run; eval_function is the call boundary.
FUNCTIONS = {
    "dsl": ("parse_timescale", "parse_function", "parse_scalar",
            "bind_function", "eval_function"),
    "fuzzy": ("gh_diff", "h_diff", "hausdorff", "add", "scalar_mul"),
    "nabla": ("nabla_gh", "derivative_report", "endpoint_derivatives",
              "nabla_scalar", "check_rho_identity", "check_level_consistency"),
    "rules": ("sum_rule", "product_fuzzy", "product_interval", "tag_i_ii",
              "len_direction", "default_residual_tol"),
    "cli": ("main", "_select_points", "_emit", "_emit_json"),
}
METHODS = {
    "timescale": ("TimeScale", ("__init__", "contains", "snap", "sigma", "rho",
                                "classify", "in_kappa", "kappa", "sample_points",
                                "approach_streams", "left_scattered_points")),
    "fuzzy": ("FuzzyNumber", ("validate",)),
    "nabla": ("FuzzyFunction", ("__call__",)),
}
RULE_CHECKS = ("sum_rule", "product_fuzzy", "product_interval", "tag_i_ii")
_PATH_TAG = {"backward-quotient": "jump", "one-sided-limits": "probe"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.f_evals = 0

    def wrap(self, layer: str, name: str, fn, tag=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = "raised:" + type(err).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if tag is not None:
                span[5] = tag(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn):
        """The callable handed to FuzzyFunction, counting real evaluations."""
        def evaluate(t):
            self.f_evals += 1
            return fn(t)
        return evaluate


def _tag_for(name: str):
    if name in ("nabla_gh", "derivative_report"):
        return lambda res: _PATH_TAG.get(res.evidence.get("path"),
                                          res.case.value)
    if name in ("sum_rule", "product_fuzzy", "product_interval"):
        return lambda rep: rep.verdict.value
    if name == "main":
        return lambda code: f"exit:{code}"
    return None


def install(tracer: Tracer) -> None:
    """Wrap every traced function under every name the package uses."""
    import importlib

    pkg = importlib.import_module("fuzzynabla")
    mods = {layer: importlib.import_module(f"fuzzynabla.{layer}")
            for layer in LAYERS}
    holders = [pkg, *mods.values()]

    for layer, names in FUNCTIONS.items():
        for name in names:
            orig = getattr(mods[layer], name)
            wrapped = tracer.wrap(layer, name, orig, _tag_for(name))
            for mod in holders:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    for layer, (cls_name, names) in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for name in names:
            setattr(cls, name, tracer.wrap(layer, f"{cls_name}.{name}",
                                           getattr(cls, name)))

    nabla = mods["nabla"]
    init = nabla.FuzzyFunction.__init__

    def counting_init(self, fn, *args, **kwargs):
        init(self, tracer.counted(fn), *args, **kwargs)

    nabla.FuzzyFunction.__init__ = counting_init
    nabla.DerivativeResult.to_dict = tracer.wrap(
        "nabla", "DerivativeResult.to_dict", nabla.DerivativeResult.to_dict)

    # --scalar-fn compiles to a closure over eval_expr; give its calls a dsl
    # span so they are not billed to the rule or engine code calling them
    cli = mods["cli"]
    make_scalar = cli._scalar_fn

    def scalar_fn(args):
        return tracer.wrap("dsl", "scalar_fn", make_scalar(args))

    cli._scalar_fn = scalar_fn


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import fuzzynabla.cli as cli
    import_s = time.perf_counter() - t0

    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <fuzzynabla arguments>",
              file=sys.stderr)
        return 64
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[3:])
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit": code,
                   "f_evals": tracer.f_evals, "spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# aggregation


def _self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children. Calls are
    synchronous and single-threaded, so children nest inside their parent
    and never overlap one another."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _ancestor_names(spans, idx):
    p = spans[idx][4]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][4]


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer numbers for the span files of one pass over a workload's
    commands (one file per command)."""
    m: dict[str, float] = {"process.import_s": 0.0, "trace.total_s": 0.0}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    counts: dict[str, int] = {}
    tags: dict[tuple[str, str], int] = {}
    build = select = parse = bind = 0.0
    reanalysis = nabla_in_rules = 0
    f_evals = 0
    for doc in docs:
        spans = doc["spans"]
        m["process.import_s"] += doc["import_s"]
        f_evals += doc["f_evals"]
        for i, (s, own) in enumerate(zip(spans, _self_times(spans))):
            name, layer, start, end, parent, tag = s
            m[f"{layer}.self_s"] += own
            counts[name] = counts.get(name, 0) + 1
            if tag is not None:
                tags[name, tag] = tags.get((name, tag), 0) + 1
            dur = end - start
            pname = spans[parent][0] if parent >= 0 else None
            if parent < 0:
                m["trace.total_s"] += dur
            if name == "TimeScale.__init__":
                build += dur
            if layer == "timescale" and pname == "_select_points":
                select += dur
            if name in ("parse_timescale", "parse_function", "parse_scalar"):
                parse += dur
            if name == "bind_function":
                bind += dur
            if name == "endpoint_derivatives" and pname == "derivative_report":
                reanalysis += 1
            if name == "nabla_gh" and any(
                    a in RULE_CHECKS for a in _ancestor_names(spans, i)):
                nabla_in_rules += 1
    total = m["trace.total_s"]
    for layer in LAYERS:
        m[f"{layer}.share"] = m[f"{layer}.self_s"] / total if total > 0 else 0.0
    del m["rules.self_s"]  # zero on workloads without rule checks; see README

    def n(name):
        return counts.get(name, 0)

    def t(name, tag):
        return tags.get((name, tag), 0)

    checks = sum(n(x) for x in RULE_CHECKS)
    verified = sum(t(x, "Verified") for x in RULE_CHECKS)
    f_calls = n("FuzzyFunction.__call__")
    nd = t("nabla_gh", "raised:GhNonexistent") + t(
        "nabla_gh", "raised:LimitDisagreement")
    m.update({
        "timescale.build_s": build,
        "timescale.select_s": select,
        "timescale.contains.calls": n("TimeScale.contains"),
        "timescale.classify.calls": n("TimeScale.classify"),
        "timescale.rho_sigma.calls": n("TimeScale.rho") + n("TimeScale.sigma"),
        "timescale.approach_streams.calls": n("TimeScale.approach_streams"),
        "dsl.parse_s": parse,
        "dsl.bind_s": bind,
        "dsl.eval_function.calls": n("eval_function"),
        "fuzzy.gh_diff.calls": n("gh_diff"),
        "fuzzy.validate.calls": n("FuzzyNumber.validate"),
        "fuzzy.hausdorff.calls": n("hausdorff"),
        "nabla.nabla_gh.calls": n("nabla_gh"),
        "nabla.jump.calls": t("nabla_gh", "jump"),
        "nabla.probe.calls": t("nabla_gh", "probe"),
        "nabla.f_calls": f_calls,
        "nabla.f_evals": f_evals,
        "nabla.cache_hit_ratio": (f_calls - f_evals) / f_calls if f_calls else 0.0,
        "nabla.not_differentiable.calls": nd,
        "nabla.reanalysis.calls": reanalysis,
        "nabla.to_dict.calls": n("DerivativeResult.to_dict"),
        "rules.checks": checks,
        "rules.nabla_per_check": nabla_in_rules / checks if checks else 0.0,
        "rules.verified_frac": verified / checks if checks else 0.0,
    })
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
