"""Outside-in layer tracer for kwall.

The tracer wraps the public callables of each kwall layer from outside the
package.  A function is replaced at every binding site: in each loaded
``kwall`` module whose namespace holds it, because ``from .x import f`` makes
a second name that patching ``x.f`` alone would miss.  Methods are replaced
on their class, which every caller reaches through attribute lookup.

Each wrapper keeps a span stack, so a layer's self time is its span minus the
spans of the wrapped calls made inside it.  Spans are folded into per-name
totals as they close; the tracer keeps no per-call records.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metric prefix -> (module, attribute path); one metric may cover several
# callables (polycheck.nonneg covers the interval and the ray decision)
TARGETS = (
    ("exactnum.surd_new", "kwall.exactnum", "SurdSum.__init__"),
    ("exactnum.sign", "kwall.exactnum", "SurdSum.sign"),
    ("exactnum.integrate", "kwall.exactnum", "PiecewiseQuadratic.integrate"),
    ("exactnum.real_roots", "kwall.exactnum", "QuadraticPoly.real_roots"),
    ("exactnum.squarefree_decompose", "kwall.exactnum", "squarefree_decompose"),
    ("surface.intersect", "kwall.surface", "SurfaceModel.intersect"),
    ("surface.zariski_decompose", "kwall.surface", "SurfaceModel.zariski_decompose"),
    ("surface.solve_linear", "kwall.surface", "solve_linear"),
    ("surface.builtin_surface", "kwall.surface", "builtin_surface"),
    ("volume.s_engine_raw", "kwall.volume", "s_engine_raw"),
    ("volume.s_engine_coefficient", "kwall.volume", "s_engine_coefficient"),
    ("volume.volume_profile", "kwall.volume", "volume_profile"),
    ("pairs.chart_expand", "kwall.pairs", "chart_expand"),
    ("pairs.multiplicity", "kwall.pairs", "multiplicity"),
    ("polycheck.nonneg", "kwall.polycheck", "nonneg_on_interval"),
    ("polycheck.nonneg", "kwall.polycheck", "nonneg_on_ray"),
    ("stability.enumerate_walls", "kwall.stability", "enumerate_walls"),
    ("stability.confirm_wall", "kwall.stability", "confirm_wall"),
    ("stability.threshold", "kwall.stability", "threshold"),
    ("stability.verify_semistable_at", "kwall.stability", "verify_semistable_at"),
    ("atlas.load_atlas", "kwall.atlas", "load_atlas"),
    ("cli.run", "kwall.cli", "run"),
)

# requests whose counts are reported and compared across traced runs
TRACE_WINDOW = 512

SPANS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# counters read at the layer boundaries, besides calls and self time
COUNTERS = (
    "exactnum.sign.refined",
    "surface.not_psef",
    "volume.profiles_built",
    "volume.segments",
    "volume.zariski_fallbacks",
    "stability.candidates",
    "stability.confirmed",
    "stability.rejected.horizontal_beta",
    "stability.rejected.toric_beta",
    "stability.rejected.threshold",
    "stability.rejected.continuum",
    "stability.rejected.non_invariant",
)


def rejection_kind(reason: str) -> str:
    """Funnel bucket of a rejected ``WallRecord`` from its reason text."""
    if reason == "non-invariant curve":
        return "non_invariant"
    if reason.startswith("horizontal beta"):
        return "horizontal_beta"
    if reason.startswith("beta(") and reason.endswith("< 0 at w"):
        return "toric_beta"
    if reason.startswith("threshold is"):
        return "threshold"
    return "continuum"


class LayerTracer:
    """Per-request call counts, self times and layer counters."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames [name, child_seconds]
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def snapshot(self) -> dict:
        """Totals so far, as plain JSON data."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def _parent(self) -> str | None:
        # the frame below the innermost one belongs to the caller
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def wrap(self, name: str, fn):
        stack = self._stack
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = perf_counter() - t0
                if after is not None:
                    after(tracer, result, exc)
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def install(self) -> None:
        """Replace every target at each binding site in the loaded kwall modules.

        Call after importing ``kwall.cli``, which loads every kwall module.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "kwall" or n.startswith("kwall.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


# -- counters read at the boundaries ------------------------------------------


def _sign_before(tracer: LayerTracer, args) -> None:
    terms = args[0].terms
    if len(terms) > 2 and any(q > 0 for _, q in terms) and any(q < 0 for _, q in terms):
        tracer.counters["exactnum.sign.refined"] += 1


def _zariski_after(tracer: LayerTracer, result, exc) -> None:
    if isinstance(exc, sys.modules["kwall.surface"].NotPseudoEffectiveError):
        tracer.counters["surface.not_psef"] += 1
    if tracer._parent() == "volume.volume_profile":
        tracer.counters["volume.zariski_fallbacks"] += 1


def _profile_after(tracer: LayerTracer, result, exc) -> None:
    if result is not None:
        tracer.counters["volume.segments"] += len(result.profile.segments)
    if tracer._parent() == "volume.s_engine_raw":
        tracer.counters["volume.profiles_built"] += 1


def _walls_after(tracer: LayerTracer, records, exc) -> None:
    if records is None:
        return
    c = tracer.counters
    for rec in records:
        c["stability.candidates"] += 1
        if rec.confirmed:
            c["stability.confirmed"] += 1
        else:
            c["stability.rejected." + rejection_kind(rec.reason)] += 1


_HOOKS = {
    "exactnum.sign": (_sign_before, None),
    "surface.zariski_decompose": (None, _zariski_after),
    "volume.volume_profile": (None, _profile_after),
    "stability.enumerate_walls": (None, _walls_after),
}
