"""Spans and counters around asymflat's public functions, installed from
outside the package.

`Tracer.install()` replaces each traced function at every place it is bound
(modules bind with `from .dforms import wedge`, so `invariants.wedge`,
`curvature.wedge`, ... are patched as well as `dforms.wedge`), and the
`eval`/`d1`/`d2`/`d3` methods of every metric class.  Spans (name, start,
end, parent) are kept in memory; `dump()` writes them out at the end and
`uninstall()` puts every original back.  `layer_metrics()` turns a dump into
the per-layer metrics of the benchmark.

Span names are `<module>.<what>`; the module is the layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute, span name); each is wrapped wherever bound
FUNCTIONS = [
    ("invariants", "sphere_rule", "invariants.sphere_rule"),
    ("invariants", "extrapolate", "invariants.extrapolate"),
    ("invariants", "gbc_mass", "invariants.gbc_mass"),
    ("invariants", "gbc_center", "invariants.gbc_center"),
    ("invariants", "curvature_center", "invariants.curvature_center"),
    ("curvature", "christoffel", "curvature.christoffel"),
    ("curvature", "riemann", "curvature.riemann"),
    ("curvature", "d_right_comps", "curvature.d_right"),
    ("dforms", "wedge", "dforms.wedge"),
    ("dforms", "hodge", "dforms.hodge"),
    ("multiindex", "compound_matrix", "multiindex.compound"),
    ("gbc", "lovelock", "gbc.lovelock"),
    ("chartchange", "make_diffeo", "chartchange.make_diffeo"),
    ("chartchange", "invariance_report", "chartchange.invariance_report"),
    ("cli", "main", "cli.main"),
]

JET_METHODS = ("eval", "d1", "d2", "d3")
PULLBACK = "chartchange.pullback"
JET = "fields.jet"
TABLE_BUILD = "multiindex.table_build"
TABLE_HIT = "multiindex.table_hit"


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "asymflat" or name.startswith("asymflat."))]


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _keep_cache_api(fn, traced):
    """Let callers of a wrapped `lru_cache` function still reach its cache."""
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(traced, attr, getattr(fn, attr))
    return traced


def _lru_counts(fn) -> tuple[int, int]:
    info = fn.cache_info()
    return info.hits, info.misses


class Tracer:
    """In-memory span recorder that patches asymflat from outside."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self.counts = {"nodes": 0, "first_pass_nodes": 0, "passes": 0,
                       "identity_checks": 0}
        self.missing: list[str] = []
        self._last_integrand = None
        self._cache_start: dict[str, list] = {}  # name -> [(fn, (hits, misses))]
        self.cache_use: dict[str, list] = {}     # name -> [hits, misses] while installed
        self.origin = time.perf_counter()

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> list:
        rec = [name_id, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return _keep_cache_api(fn, traced)

    def _wrap_table(self, fn):
        build_id, hit_id = self._name_id(TABLE_BUILD), self._name_id(TABLE_HIT)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            rec = self._open(build_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if fn.cache_info().misses == misses:
                    rec[0] = hit_id
        return _keep_cache_api(fn, traced)

    def _wrap_integrate_sphere(self, fn):
        name_id = self._name_id("invariants.integrate_sphere")
        integrand_id = self._name_id("invariants.integrand")

        @functools.wraps(fn)
        def traced(rule, f, *args, **kwargs):
            nodes = int(rule.points.shape[0])
            self.counts["nodes"] += nodes
            self.counts["passes"] += 1
            # the adaptive integral makes one integrand per radius and passes
            # it to every refinement, so a new integrand marks a first pass
            if f is not self._last_integrand:
                self._last_integrand = f
                self.counts["first_pass_nodes"] += nodes

            def timed(xs, nus):
                rec = self._open(integrand_id)
                try:
                    return f(xs, nus)
                finally:
                    self._close(rec)
            rec = self._open(name_id)
            try:
                return fn(rule, timed, *args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _wrap_identity_suite(self, fn):
        traced_fn = self.wrap("identities.identity_suite", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            checks = traced_fn(*args, **kwargs)
            self.counts["identity_checks"] += len(checks)
            return checks
        return counted

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Patch every traced function and method; asymflat must be imported."""
        import asymflat.cli  # noqa: F401  (loads every module that is traced)
        mods = {m.__name__.rpartition(".")[2]: m for m in _modules()}
        wrappers = [(mod, attr, functools.partial(self.wrap, name))
                    for mod, attr, name in FUNCTIONS]
        wrappers += [("invariants", "integrate_sphere", self._wrap_integrate_sphere),
                     ("identities", "identity_suite", self._wrap_identity_suite)]
        for mod, attr, make in wrappers:
            fn = getattr(mods.get(mod), attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            if hasattr(fn, "cache_info"):  # sphere_rule
                self._cache_start[attr] = [(fn, _lru_counts(fn))]
            self._patch_everywhere(fn, make(fn))

        tables = []
        for attr, fn in list(vars(mods["multiindex"]).items()):
            if callable(fn) and hasattr(fn, "cache_info"):
                tables.append((fn, _lru_counts(fn)))
                self._patch_everywhere(fn, self._wrap_table(fn))
        self._cache_start["tables"] = tables

        ctx = getattr(mods["gbc"], "GBCContext", None)
        if ctx is None:
            self.missing.append("gbc.GBCContext")
        else:
            self._patch_method(ctx, "__init__", self.wrap("gbc.context", ctx.__init__))

        base = mods["fields"].MetricField
        for cls in [base] + _subclasses(base):
            name = PULLBACK if cls.__name__ == "PullbackMetric" else JET
            for attr in JET_METHODS:
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        """Put back every original, newest patch first; record cache use."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for key, entries in self._cache_start.items():
            hits = misses = 0
            for fn, (h0, m0) in entries:
                h1, m1 = _lru_counts(fn)
                hits += h1 - h0
                misses += m1 - m0
            self.cache_use[key] = [hits, misses]

    def dump(self, path: str) -> None:
        doc = {"names": self.names,
               "spans": [[n, s - self.origin, e - self.origin, p]
                         for n, s, e, p in self.spans],
               "counts": self.counts,
               "caches": self.cache_use,
               "missing": self.missing}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from a dump
# ---------------------------------------------------------------------------

# name -> unit; the order of the benchmark's per_layer list
LAYER_METRICS = {
    "invariants.nodes": "count",
    "invariants.passes": "count",
    "invariants.confirm_frac": "ratio",
    "invariants.integrand_us_per_node": "us",
    "invariants.quad_self_s": "s",
    "invariants.rule_s": "s",
    "invariants.rule_hit_ratio": "ratio",
    "invariants.extrapolate_s": "s",
    "fields.jet_s": "s",
    "fields.jet_calls": "count",
    "fields.jet_us_per_node": "us",
    "chartchange.pullback_self_s": "s",
    "chartchange.base_calls_per_call": "count",
    "curvature.christoffel_s": "s",
    "curvature.riemann_s": "s",
    "curvature.riemann_us_per_node": "us",
    "curvature.dright_s": "s",
    "dforms.wedge_s": "s",
    "dforms.wedge_calls": "count",
    "dforms.wedge_us_per_node": "us",
    "dforms.hodge_s": "s",
    "multiindex.table_s": "s",
    "multiindex.table_hit_ratio": "ratio",
    "multiindex.compound_s": "s",
    "gbc.lovelock_self_s": "s",
    "gbc.context_s": "s",
    "identities.checks": "count",
    "identities.ms_per_check": "ms",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `<name>_s` is the total duration of that span (its callees included)
    and `<name>_self_s` its self time: duration minus the time its child
    spans cover.  `*_us_per_node` divides by the quadrature nodes of the
    pass and is 0 when the pass integrates nothing.
    """
    names = doc["names"]
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    base_calls = 0
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == JET and parent >= 0 and names[spans[parent][0]] == PULLBACK:
            base_calls += 1

    counts, caches = doc["counts"], doc["caches"]
    nodes = counts["nodes"]
    per_node = 1e6 / nodes if nodes else 0.0
    rule_hits, rule_misses = caches.get("sphere_rule", [0, 0])
    table_hits, table_misses = caches.get("tables", [0, 0])
    jet_s = self_t.get(JET, 0.0)  # base metrics only nest in themselves
    return {
        "invariants.nodes": float(nodes),
        "invariants.passes": float(counts["passes"]),
        "invariants.confirm_frac": _ratio(nodes - counts["first_pass_nodes"], nodes),
        "invariants.integrand_us_per_node":
            total.get("invariants.integrand", 0.0) * per_node,
        "invariants.quad_self_s": self_t.get("invariants.integrate_sphere", 0.0),
        "invariants.rule_s": total.get("invariants.sphere_rule", 0.0),
        "invariants.rule_hit_ratio": _ratio(rule_hits, rule_hits + rule_misses),
        "invariants.extrapolate_s": total.get("invariants.extrapolate", 0.0),
        "fields.jet_s": jet_s,
        "fields.jet_calls": float(calls.get(JET, 0)),
        "fields.jet_us_per_node": jet_s * per_node,
        "chartchange.pullback_self_s": self_t.get(PULLBACK, 0.0),
        "chartchange.base_calls_per_call": _ratio(base_calls, calls.get(PULLBACK, 0)),
        "curvature.christoffel_s": total.get("curvature.christoffel", 0.0),
        "curvature.riemann_s": total.get("curvature.riemann", 0.0),
        "curvature.riemann_us_per_node": total.get("curvature.riemann", 0.0) * per_node,
        "curvature.dright_s": total.get("curvature.d_right", 0.0),
        "dforms.wedge_s": total.get("dforms.wedge", 0.0),
        "dforms.wedge_calls": float(calls.get("dforms.wedge", 0)),
        "dforms.wedge_us_per_node": total.get("dforms.wedge", 0.0) * per_node,
        "dforms.hodge_s": total.get("dforms.hodge", 0.0),
        "multiindex.table_s": self_t.get(TABLE_BUILD, 0.0),
        "multiindex.table_hit_ratio": _ratio(table_hits, table_hits + table_misses),
        "multiindex.compound_s": total.get("multiindex.compound", 0.0),
        "gbc.lovelock_self_s": self_t.get("gbc.lovelock", 0.0),
        "gbc.context_s": total.get("gbc.context", 0.0),
        "identities.checks": float(counts["identity_checks"]),
        "identities.ms_per_check": _ratio(
            1e3 * total.get("identities.identity_suite", 0.0),
            counts["identity_checks"]),
        "cli.self_s": self_t.get("cli.main", 0.0),
    }
