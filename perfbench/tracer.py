"""Per-layer tracing from outside the package.

``Tracer`` replaces the public functions of every ``frobenius_verify``
module with timing wrappers for the length of a ``with`` block, then
puts the originals back.  A function is patched under every name that
refers to it, so re-imports (``kahler.partial``, ``frobenius.partial``,
``cli.parse``, ``frobenius.christoffel_derivatives``, ...) and calls
through the CLI's module aliases (``kahler``, ``frob``, ``cat``, ``th``)
are all seen.  Nothing inside the package changes.

Spans are aggregated in memory as they close: per span name the call
count, total and self time (duration minus the time of its direct child
spans), exceptions and a work count; per parent->child pair the number
of calls.  Functions that are not wrapped are charged to the nearest
wrapped caller.

Which end-to-end metric each layer metric is expected to move:

* ``wirtinger.jet_eval.*``, ``wirtinger.jet_mul.madds``: ``verdicts_per_s``
  and ``verdict_ms_p50`` on verify-charts; little on catalog-entries
  (z*zbar gives a shallow jet); nothing on theta-suite.
* ``wirtinger.partial.*``, ``kahler.metric_at.self_ms``,
  ``kahler.christoffel_derivatives.self_ms``: both verify workloads,
  most on the dim 3-4 commands of verify-charts; not theta-suite.
* ``frobenius.pencil_curvature*``, ``frobenius.find_unit.self_ms``:
  catalog-entries most (dispatch-bound at dim 2), then verify-charts;
  not theta-suite.
* ``kahler.kahler_residuals.self_ms``: both verify workloads, by at most
  its share.
* ``catalog.*``: only ``verdict_ms_p50`` on catalog-entries, bounded by
  the layer's share of a few percent.
* ``theta.*``: only theta-suite, mostly its genus-2 commands.
* ``cli.to_json.*``: ``verdict_ms_p50`` on verify-charts and
  catalog-entries.
* ``expr.parse.*``, ``cli.load_manifold_spec.self_ms``: no end-to-end
  change expected.
* Jet-table build and import: ``setup_s`` only.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter

import frobenius_verify
from frobenius_verify import catalog, cli, expr, frobenius, kahler, theta, wirtinger

# layer -> (module, public functions traced as "<layer>.<function>");
# Jet.__mul__ is traced as "wirtinger.jet_mul" on top of these.
LAYERS = {
    "expr": (expr, ("parse",)),
    "wirtinger": (wirtinger, ("jet_eval", "partial")),
    "kahler": (kahler, ("metric_at", "kahler_residuals", "wdvv_residual_at",
                        "ricci_c1_check", "christoffel_derivatives")),
    "frobenius": (frobenius, ("fiber_algebra_from_metric", "commutator", "associator",
                              "frobenius_compat", "find_unit", "pencil_curvature",
                              "pencil_curvature_form", "hermitian_einstein_trace")),
    "catalog": (catalog, ("validate_group", "is_free", "smith_normal_form",
                          "contains_translations", "isometry_defect")),
    "theta": (theta, ("eval_riemann_theta", "quasi_periodicity_residual",
                      "level_space_dimension", "riemann_type_of")),
    "cli": (cli, ("main", "load_manifold_spec", "sample_points", "run_verify",
                  "run_theta", "to_json")),
}

# Every namespace a traced function may be looked up in at call time.
OWNERS = (frobenius_verify, expr, wirtinger, kahler, frobenius, catalog, theta, cli, wirtinger.Jet)


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "errors", "work")

    def __init__(self) -> None:
        self.calls = self.total_ns = self.self_ns = self.errors = self.work = 0


def _madds(args, result) -> int:
    """Multiply-adds of one jet product: the truncated convolution's
    index-table length, or one per coefficient for a scalar factor."""
    jet, other = args
    if isinstance(other, wirtinger.Jet):
        return wirtinger._table(jet.dim).mul_k.size
    return jet.coeffs.size


def _series_terms(args, result) -> int:
    spec, _z, radius = args
    return (2 * radius + 1) ** spec.genus


class Tracer:
    """Context manager that wraps every layer function while active."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._dgamma_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # metric name -> work count taken from each call of its span
        self._work = {
            "wirtinger.jet_mul.madds": _madds,
            "kahler.christoffel_derivatives.hit_ratio": self._christoffel_hit,
            "frobenius.find_unit.found_ratio": lambda args, result: result is not None,
            "theta.eval_riemann_theta.series_terms": _series_terms,
            "cli.to_json.bytes": lambda args, result: len(result),
        }

    def _christoffel_hit(self, args, result) -> int:
        """1 when the call returned the very arrays an earlier call on the
        same metric bundle returned, i.e. the result came from a cache."""
        md = args[0]
        seen = self._dgamma_seen.get(md)
        self._dgamma_seen[md] = result
        return int(seen is not None and all(a is b for a, b in zip(seen, result)))

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, Stat())
        work = next((w for m, w in self._work.items() if m.rpartition(".")[0] == name), None)
        stack, edges, clock = self._stack, self.edges, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            edges[(stack[-1][0] if stack else "", name)] += 1
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if work is not None:
                stat.work += work(args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        targets = [
            (f"{layer}.{attr}", getattr(module, attr))
            for layer, (module, attrs) in LAYERS.items()
            for attr in attrs
        ]
        targets.append(("wirtinger.jet_mul", wirtinger.Jet.__mul__))
        try:
            for name, original in targets:
                wrapper = self._wrap(original, name)
                for owner in OWNERS:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, original))
                            setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metric(self, name: str, verdicts: int) -> float:
        """Value of a per-layer metric, normalised per verdict.

        ``<layer>.self_ms`` and ``<layer>.errors`` sum over the layer's
        spans; ``<span>.calls`` and ``<span>.self_ms`` read one span; a
        ``*_ratio`` is the span's work count over its calls; any other
        suffix is the span's work count.
        """
        span, _, kind = name.rpartition(".")
        if "." not in span:
            layer = [s for n, s in self.stats.items() if n.startswith(span + ".")]
            if not layer:
                raise KeyError(f"no traced layer {span!r}")
            if kind == "self_ms":
                return sum(s.self_ns for s in layer) * 1e-6 / verdicts
            if kind == "errors":
                return sum(s.errors for s in layer) / verdicts
            raise KeyError(f"unknown layer metric {name!r}")
        stat = self.stats[span]
        if kind == "calls":
            return stat.calls / verdicts
        if kind == "self_ms":
            return stat.self_ns * 1e-6 / verdicts
        if name not in self._work:
            raise KeyError(f"unknown span metric {name!r}")
        if kind.endswith("_ratio"):
            return stat.work / stat.calls if stat.calls else 0.0
        return stat.work / verdicts
