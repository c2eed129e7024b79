"""Per-layer spans and counters, installed on hilbvertex from outside it.

A traced worker replaces the functions listed in LAYERS by timing wrappers.
A plain function is replaced in every module of the package that binds it:
`macdonald` and `characters` import `pmul` by name, so wrapping
`scalar.pmul` alone would miss their calls.  A method is replaced on its
class, under every name that holds it (`Series.__radd__` is `__add__`).
`decode` and `_grlex` stay unwrapped: they run millions of times and a
wrapper would swamp what it measures.

Every wrapped call is a span.  Stats, keyed `<module>.<stat>`:
  `.calls`  calls, nested ones included;
  `.s`      inclusive seconds, counted at the outermost call only;
  `<module>.self_s`  span time of the module minus the time its spans spent
            in child spans (unwrapped callees count as the caller's time).
Extra counters come from the hooks below.  Stats are aggregated, not kept
per span, because the hot spans number in the millions.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> ((attribute, stat name), ...); "Class.method" wraps on the class
LAYERS = {
    "scalar": (("pmul", "pmul"), ("pdivexact", "pdivexact"),
               ("solve_poly_system", "solve_poly_system"),
               ("bareiss_det", "bareiss_det"),
               ("invert_matrix", "invert_matrix"),
               ("Scalar.__init__", "Scalar.init"),
               ("Scalar.__eq__", "Scalar.eq")),
    "series": (("Series.__mul__", "Series.mul"),
               ("Series.__add__", "Series.add"),
               ("rational_reconstruct", "rational_reconstruct"),
               ("_over_common_denominator", "_over_common_denominator")),
    "fock": (("tensor_exp", "tensor_exp"),
             ("jj0_substitute", "jj0_substitute"),
             ("exp_linear", "exp_linear"), ("pexp", "pexp"),
             ("FockElement.__eq__", "FockElement.eq")),
    "macdonald": (("macd_H_axioms", "macd_H_axioms"),
                  ("MacdonaldBasis.localization_sum", "localization_sum"),
                  ("MacdonaldBasis.decompose", "decompose")),
    "characters": (("tangent_hilb", "tangent_hilb"),
                   ("fixed_points_rank2", "fixed_points_rank2")),
    "checks": tuple((f, f) for f in (
        "check_kernel_identity", "check_osum", "check_mellit", "check_main",
        "check_ook", "check_degenerate_slice", "check_prop1", "check_prop4",
        "closed_F", "build_F", "capped_vertex_table")),
}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(int)
        self._stack = []          # one [child seconds] cell per open span
        self._depth = defaultdict(int)
        self._patches = []        # (owner, name, original, wrapper)

    # -- counters fed by hooks ------------------------------------------------

    def _pmul_hook(self, args, kwargs, result, dt):
        stats = self.stats
        if isinstance(result, dict):
            f, g = args[0], args[1]
            stats["scalar.pmul.term_products"] += len(f) * len(g)
            if len(result) > stats["scalar.pmul.max_out_terms"]:
                stats["scalar.pmul.max_out_terms"] = len(result)
        elif isinstance(result, self._limit_error):
            stats["scalar.limit_hits"] += 1

    def _reconstruct_hook(self, args, kwargs, result, dt):
        # a candidate settled the call when the returned denominator is one
        # of the candidate objects themselves
        cands = args[3] if len(args) > 3 else kwargs.get("candidate_dens")
        if isinstance(result, tuple) and any(result[1] is c
                                             for c in cands or ()):
            self.stats["series.rational_reconstruct.candidate_hits"] += 1

    def _axioms_hook(self, args, kwargs, result, dt):
        self.stats[f"macdonald.macd_H_axioms.n{args[0]}.s"] += dt

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer, stat, fn, hook):
        clock = time.perf_counter
        stack, depth, stats = self._stack, self._depth, self.stats
        key = f"{layer}.{stat}"
        calls_key, s_key = key + ".calls", key + ".s"
        self_key = layer + ".self_s"

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            d = depth[key]
            depth[key] = d + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                depth[key] = d
                if stack:
                    stack[-1][0] += dt
                stats[self_key] += dt - cell[0]
                stats[calls_key] += 1
                if not d:
                    stats[s_key] += dt
                if hook is not None:
                    hook(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every listed function of the already imported package."""
        from hilbvertex.scalar import ResourceLimitError
        self._limit_error = ResourceLimitError
        hooks = {"scalar.pmul": self._pmul_hook,
                 "series.rational_reconstruct": self._reconstruct_hook,
                 "macdonald.macd_H_axioms": self._axioms_hook}
        package = [m for name, m in sys.modules.items()
                   if name == "hilbvertex" or name.startswith("hilbvertex.")]
        for layer, entries in LAYERS.items():
            module = sys.modules[f"hilbvertex.{layer}"]
            for attr, stat in entries:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owners = [getattr(module, cls_name)]
                    original = owners[0].__dict__[meth]
                else:
                    owners = package
                    original = getattr(module, attr)
                wrapper = self._wrap(layer, stat, original,
                                     hooks.get(f"{layer}.{stat}"))
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append(
                                (owner, name, original, wrapper))
        self._apply(wrapped=True)

    def _apply(self, wrapped):
        for owner, name, original, wrapper in self._patches:
            setattr(owner, name, wrapper if wrapped else original)

    def uninstall(self):
        self._apply(wrapped=False)

    @contextmanager
    def suspended(self):
        """Run the original functions, untraced, inside the block."""
        self._apply(wrapped=False)
        try:
            yield
        finally:
            self._apply(wrapped=True)

    def metrics(self):
        stats = dict(self.stats)
        calls = stats.get("series.rational_reconstruct.calls", 0)
        hits = stats.get("series.rational_reconstruct.candidate_hits", 0)
        stats["series.rational_reconstruct.candidate_share"] = (
            hits / calls if calls else 0.0)
        return stats
