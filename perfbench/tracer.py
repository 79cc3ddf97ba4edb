"""Per-layer spans and counts, recorded from outside the program.

`Tracer.installed()` replaces the public functions of each saist module with
timing wrappers for the duration of a `with` block and puts the originals
back afterwards. Nothing in saist is edited. A span's self time is its
duration minus the time of the spans it encloses, so the self times of all
spans add up to the traced wall time.

Spans are aggregated in memory by call path (driver > abstraction > oracle
> ...), which keeps the trace of a 70k-lookup run to a few hundred entries.
"""

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute, modules whose binding is replaced).
# `None` for the last field replaces every saist module's binding of the
# same object; a tuple restricts it to the bindings the driver calls, so
# that Karp's algorithm inside `attracting_scc_bound` stays part of that
# span instead of being counted as a driver-level `min_mean_cycles` call.
SPANS = (
    ("driver.compute_saist", "saist.driver", "compute_saist", None),
    ("abstraction.build", "saist.abstraction", "build_l_complete", None),
    ("abstraction.refine", "saist.abstraction", "refine_sac", None),
    ("oracle.lookup", "saist.oracle", "ConeOracle.feasible_word", None),
    ("oracle.decide", "saist.oracle", "ConeOracle.feasible", None),
    ("cones.sigma_cone", "saist.cones", "sigma_cone", None),
    ("kernels.margins", "saist.kernels", "margins", None),
    ("kernels.ascent", "saist.kernels", "min_margin_ascent", None),
    ("decider.planar", "saist.decider", "decide_planar", None),
    ("decider.sphere_bnb", "saist.decider", "decide_sphere_bnb", None),
    ("quantgraph.min_mean_cycles", "saist.quantgraph", "min_mean_cycles", ("saist.driver",)),
    ("quantgraph.scc_bound", "saist.quantgraph", "attracting_scc_bound", ("saist.driver",)),
    ("decider.check", "saist.decider", "BuiltinDecider.check", None),
    ("cycle_verify.verify", "saist.cycle_verify", "verify_cycle", None),
    ("petc.discretize", "saist.petc", "discretize", None),
    ("petc.simulate", "saist.petc", "simulate", None),
)


def _resolve(module, attr):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.paths = defaultdict(lambda: [0, 0.0, 0.0])  # path -> calls, self, total
        self._stack = []  # [name, child seconds]
        self._seen_keys = set()

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                own = dur - frame[1]
                tracer.self_s[name] += own
                tracer.calls[name] += 1
                rec = tracer.paths[" > ".join([f[0] for f in stack] + [name])]
                rec[0] += 1
                rec[1] += own
                rec[2] += dur
                if stack:
                    stack[-1][1] += dur
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the `with` block, originals restored after."""
        undo = []
        try:
            for name, module, attr, callers in SPANS:
                try:
                    owner, leaf = _resolve(module, attr)
                    original = getattr(owner, leaf)
                except (KeyError, AttributeError):
                    continue  # gone from this version of saist: its metrics read 0
                targets = [(owner, leaf)]
                if "." not in attr:
                    mods = callers or [m for m in list(sys.modules) if m.split(".")[0] == "saist"]
                    targets = [
                        (sys.modules[m], leaf)
                        for m in mods
                        if getattr(sys.modules[m], leaf, None) is original
                    ]
                wrapped = self._wrap(name, original)
                for obj, key in targets:
                    undo.append((obj, key, original))
                    setattr(obj, key, wrapped)
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    # -- counts taken from arguments and return values ---------------------

    def _on_driver_compute_saist(self, args, kwargs, report):
        self._seen_keys.clear()  # oracle ids may be reused by the next run

    def _on_abstraction_build(self, args, kwargs, abstraction):
        self.counts["abstraction.states"] += len(abstraction.states)
        self.counts["abstraction.transitions"] += len(abstraction.transitions)

    _on_abstraction_refine = _on_abstraction_build

    def _on_oracle_decide(self, args, kwargs, verdict):
        oracle, cone = args[0], args[1]
        key = (id(oracle), tuple(cone.word), cone.variant)
        if key not in self._seen_keys:
            self._seen_keys.add(key)
            if verdict.status.value == "feasible" and verdict.method.value == "sampling":
                self.counts["oracle.sampling_hits"] += 1

    def _on_cones_sigma_cone(self, args, kwargs, cone):
        self.counts["cones.constraints_built"] += len(cone.constraints)

    def _on_kernels_ascent(self, args, kwargs, out):
        tol = kwargs.get("tol", args[4] if len(args) > 4 else 1e-9)
        if out[1] > tol:
            self.counts["kernels.ascent_hits"] += 1

    def _on_decider_check(self, args, kwargs, out):
        self.counts["decider." + out[0]] += 1

    def _on_cycle_verify_verify(self, args, kwargs, result):
        if result.verified:
            self.counts["cycle_verify.verified"] += 1

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Counts that the program also keeps, for the per-system cross-check."""
        return {
            "decisions": self.calls["oracle.decide"],
            "engine_calls": self.calls["decider.check"],
            "sampling_hits": self.counts["oracle.sampling_hits"],
            "states": self.counts["abstraction.states"],
        }

    def layer_metrics(self):
        s, c, k = self.self_s, self.calls, self.counts
        lookups = c["oracle.lookup"]
        ascents = c["kernels.ascent"]
        return {
            "cones.sigma_cone_s": (s["cones.sigma_cone"], "s"),
            "cones.sigma_cone_calls": (c["cones.sigma_cone"], "count"),
            "cones.constraints_built": (k["cones.constraints_built"], "count"),
            "kernels.margins_s": (s["kernels.margins"], "s"),
            "kernels.margins_calls": (c["kernels.margins"], "count"),
            "kernels.ascent_s": (s["kernels.ascent"], "s"),
            "kernels.ascent_calls": (ascents, "count"),
            "kernels.ascent_hit_ratio": (k["kernels.ascent_hits"] / max(ascents, 1), "ratio"),
            "oracle.self_s": (s["oracle.lookup"] + s["oracle.decide"], "s"),
            "oracle.lookups": (lookups, "count"),
            "oracle.decisions": (c["oracle.decide"], "count"),
            "oracle.cache_hit_ratio": (1.0 - c["oracle.decide"] / max(lookups, 1), "ratio"),
            "oracle.sampling_hits": (k["oracle.sampling_hits"], "count"),
            "oracle.engine_calls": (c["decider.check"], "count"),
            "decider.exact_s": (
                s["decider.check"] + s["decider.planar"] + s["decider.sphere_bnb"], "s"
            ),
            "decider.planar_calls": (c["decider.planar"], "count"),
            "decider.sphere_bnb_calls": (c["decider.sphere_bnb"], "count"),
            "decider.sat": (k["decider.sat"], "count"),
            "decider.unsat": (k["decider.unsat"], "count"),
            "decider.unknown": (k["decider.unknown"], "count"),
            "abstraction.self_s": (s["abstraction.build"] + s["abstraction.refine"], "s"),
            "abstraction.build_calls": (c["abstraction.build"], "count"),
            "abstraction.refine_calls": (c["abstraction.refine"], "count"),
            "abstraction.states": (k["abstraction.states"], "count"),
            "abstraction.transitions": (k["abstraction.transitions"], "count"),
            "quantgraph.min_mean_cycles_s": (s["quantgraph.min_mean_cycles"], "s"),
            "quantgraph.min_mean_cycles_calls": (c["quantgraph.min_mean_cycles"], "count"),
            "quantgraph.scc_bound_s": (s["quantgraph.scc_bound"], "s"),
            "quantgraph.scc_bound_calls": (c["quantgraph.scc_bound"], "count"),
            "cycle_verify.verify_s": (s["cycle_verify.verify"], "s"),
            "cycle_verify.calls": (c["cycle_verify.verify"], "count"),
            "cycle_verify.verified": (k["cycle_verify.verified"], "count"),
            "petc.self_s": (s["petc.discretize"] + s["petc.simulate"], "s"),
            "petc.discretize_calls": (c["petc.discretize"], "count"),
            "petc.simulate_calls": (c["petc.simulate"], "count"),
            "driver.self_s": (s["driver.compute_saist"], "s"),
        }

    def call_tree(self):
        return {
            path: {"calls": n, "self_s": own, "total_s": tot}
            for path, (n, own, tot) in sorted(self.paths.items())
        }
