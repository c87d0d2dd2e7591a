"""Layer spans and work counters for monodeform, installed from outside.

`install` wraps the public entry point of each layer in place, on every
loaded monodeform module that holds the name: `cli`, `dyson`, `spectral` and
`varpar` bind names with `from ... import`, so patching only the defining
module would miss their calls.  Spans are aggregated in memory per
(caller, callee) pair: calls, self time and total time.  A span's self time
is its duration minus the time covered by the spans it caused.  Counters
record deterministic work: RK right-hand-side evaluations and steps as
`solve_ivp` returns them to `transport` and `dyson`, Gauss-Legendre panels,
sweep nodes, series-route attempts, and 2F1 series evaluations read from the
`_pfq_series` cache statistics.

Entry points a later version no longer has are skipped, so their metrics
read 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

ROOT = "bench.op"

# span name -> (module, attribute)
_SPANS = (
    ("hypergeom.pfq", "hypergeom", "pFq"),
    ("hypergeom.pfq", "hypergeom", "pFq_derivative"),
    ("transport.transport", "transport", "transport"),
    ("dyson.series_route", "dyson", "_series_route_markers"),
    ("dyson.ode_route", "dyson", "_ode_route_markers"),
    ("dyson.series_sweep", "dyson", "_series_sweep"),
    ("quadrature.cheb_cumulative", "quadrature", "cheb_cumulative"),
    ("quadrature.geometric", "quadrature", "geometric_endpoint_integral"),
    ("spectral.eigenvalue_shift", "spectral", "eigenvalue_shift"),
    ("spectral.orthonormality_report", "spectral", "orthonormality_report"),
    ("spectral.hierarchy_residual", "spectral", "hierarchy_shift_residual"),
    ("cli.run_spec", "cli", "run_spec"),
    ("schema.validate", "schema", "validate_schema"),
    ("cli.emit", "cli", "_emit"),
)

# span name -> (module, class, method)
_METHOD_SPANS = (
    ("hypergeom.connected_basis", "hypergeom", "ConnectedBasis", "matrix"),
    ("varpar.cumulative", "varpar", "_Cumulative", "_adaptive"),
)


class Tracer:
    """In-memory span aggregates and counters for one process."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack = [[ROOT, 0.0]]
        self._cache_base = (0, 0)
        self._cache_info = None

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        del self._stack[1:]
        self._stack[0][1] = 0.0
        self._cache_base = self._cache_now()

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span called `name`."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            caller = stack[-1][0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dur
                rec = spans.get((caller, name))
                if rec is None:
                    rec = spans[(caller, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += dur

        return wrapper

    def add(self, name: str, seconds: float) -> None:
        """Record a top-level span timed by the caller."""
        rec = self.spans.setdefault((ROOT, name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds

    def _cache_now(self) -> tuple[int, int]:
        if self._cache_info is None:
            return (0, 0)
        info = self._cache_info()
        return info.hits, info.misses

    def snapshot(self) -> dict:
        """Plain-JSON copy of the spans and counters recorded since reset."""
        counts = dict(self.counts)
        if self._cache_info is not None:
            hits, misses = self._cache_now()
            counts["hypergeom.pfq_series.hits"] = hits - self._cache_base[0]
            counts["hypergeom.pfq_series.misses"] = misses - self._cache_base[1]
        return {"spans": [[caller, name, *rec] for (caller, name), rec in self.spans.items()],
                "counts": counts}


def merge(snapshots) -> dict:
    """Sum several snapshots (one per process) into one."""
    spans: dict[tuple[str, str], list] = {}
    counts: Counter = Counter()
    for snap in snapshots:
        for caller, name, calls, self_s, total_s in snap["spans"]:
            rec = spans.setdefault((caller, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += total_s
        counts.update(snap["counts"])
    return {"spans": [[c, n, *r] for (c, n), r in spans.items()], "counts": dict(counts)}


def _modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "monodeform" or n.startswith("monodeform."))]


def _rebind(orig, wrapper) -> None:
    """Point every monodeform module attribute bound to orig at wrapper."""
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _count_solve_ivp(tracer: Tracer, module, prefix: str) -> None:
    orig = getattr(module, "solve_ivp", None)
    if orig is None:
        return
    counts = tracer.counts

    @functools.wraps(orig)
    def solve_ivp(*args, **kwargs):
        sol = orig(*args, **kwargs)
        counts[f"{prefix}.nfev"] += int(sol.nfev)
        counts[f"{prefix}.steps"] += int(sol.t.size - 1)
        return sol

    module.solve_ivp = solve_ivp


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the imported monodeform package."""
    import importlib

    mods = {n: importlib.import_module(f"monodeform.{n}")
            for n in ("cli", "dyson", "hypergeom", "quadrature", "schema", "spectral",
                      "transport", "varpar")}
    counts = tracer.counts

    for name, mod, attr in _SPANS:
        orig = getattr(mods[mod], attr, None)
        if orig is not None:
            _rebind(orig, tracer.span(name, orig))
    for name, mod, cls_name, meth in _METHOD_SPANS:
        cls = getattr(mods[mod], cls_name, None)
        if cls is not None and hasattr(cls, meth):
            setattr(cls, meth, tracer.span(name, getattr(cls, meth)))

    hyp = mods["hypergeom"]
    series = getattr(hyp, "_pfq_series", None)
    if series is not None and hasattr(series, "cache_info"):
        tracer._cache_info = series.cache_info
    elif series is not None:
        # without the cache every series evaluation is a miss
        @functools.wraps(series)
        def counted_series(*args, **kwargs):
            counts["hypergeom.pfq_series.misses"] += 1
            return series(*args, **kwargs)

        _rebind(series, counted_series)

    tr = mods["transport"]
    frob = getattr(tr, "frobenius_basis", None)
    if frob is not None:
        @functools.wraps(frob)
        def frobenius_basis(*args, **kwargs):
            fm = frob(*args, **kwargs)
            if fm.evaluator is not None:
                object.__setattr__(fm, "evaluator",
                                   tracer.span("transport.frobenius_eval", fm.evaluator))
            return fm

        _rebind(frob, frobenius_basis)

    glp = getattr(mods["quadrature"], "gauss_legendre_panel", None)
    if glp is not None:
        @functools.wraps(glp)
        def gauss_legendre_panel(*args, **kwargs):
            counts["quadrature.gl_panels"] += 1
            return glp(*args, **kwargs)

        _rebind(glp, gauss_legendre_panel)

    dy = mods["dyson"]
    sweep = getattr(dy, "_series_sweep", None)
    if sweep is not None:
        @functools.wraps(sweep)
        def series_sweep(evaluator, pert, panel_groups, *args, **kwargs):
            counts["dyson.series_sweep.nodes"] += sum(len(p.zs) for g in panel_groups for p in g)
            return sweep(evaluator, pert, panel_groups, *args, **kwargs)

        dy._series_sweep = series_sweep
    route = getattr(dy, "_series_route_markers", None)
    zone_error = getattr(dy, "_ZoneError", None)
    if route is not None and zone_error is not None:
        @functools.wraps(route)
        def series_route_markers(*args, **kwargs):
            counts["dyson.series_route.attempts"] += 1
            try:
                return route(*args, **kwargs)
            except zone_error:
                counts["dyson.series_route.zone_errors"] += 1
                raise

        dy._series_route_markers = series_route_markers

    _count_solve_ivp(tracer, tr, "transport.rk")
    _count_solve_ivp(tracer, dy, "dyson.ode_route")
    tracer.reset()


def totals(snapshot: dict) -> dict[str, list]:
    """Per span name: [calls, self_s, total_s], summed over callers."""
    out: dict[str, list] = {}
    for _caller, name, calls, self_s, total_s in snapshot["spans"]:
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += self_s
        rec[2] += total_s
    return out
