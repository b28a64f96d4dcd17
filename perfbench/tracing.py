"""Per-layer tracing from outside the package.

The tracer wraps public functions of each hyprep module by rebinding the
name in every loaded hyprep module that holds it (construct imports
compute_intersections, verify, classify, is_hyperbolic, smooth_neighbor and
eigenspace_basis by name; forward imports is_hyperbolic; numrange imports
real_roots; the package namespace re-exports most of them).  Stage
functions record spans in memory: name, start, end, parent span and op id.
The TrivariatePoly methods run thousands of times per op, so they
only count calls and sum their time.

A name that does not exist is reported as absent and its metrics read 0,
so a later change that deletes or renames a function cannot crash the
benchmark.  restore() puts every original object back; install() and
restore() may alternate any number of times, and `restored` stays True only
while every restore put back every original.
"""

import functools
import sys
import threading
import time

import numpy as np

# (module, function): spans; the metric prefix is "<module>.<function>"
STAGES = (
    ("construct", "represent"),
    ("construct", "assemble_form_matrix"),
    ("construct", "vanishing_form"),
    ("construct", "noether_division"),
    ("construct", "pencil_from_adjugate"),
    ("construct", "normalize_pencil"),
    ("construct", "extract_shift"),
    ("intersection", "compute_intersections"),
    ("forward", "verify"),
    ("forward", "forward_interpolate"),
    ("hyperbolicity", "is_hyperbolic"),
    ("hyperbolicity", "classify"),
    ("hyperbolicity", "smooth_neighbor"),
    ("hyperbolicity", "real_roots"),
    ("numrange", "boundary_sample"),
    ("numrange", "curve_sample"),
    ("invariants", "eigenspace_basis"),
)

# (module, class, methods, counter name): counts and summed time only
COUNTERS = (
    ("poly", "TrivariatePoly", ("evaluate",), "poly.evaluate"),
    ("poly", "TrivariatePoly", ("__mul__", "__rmul__"), "poly.mul"),
)

# the per-layer metrics the traced run reports, with unit and direction
LAYER_METRICS = (
    ("poly.evaluate.calls", "calls/op", "lower"),
    ("poly.evaluate.ms", "ms/op", "lower"),
    ("poly.mul.calls", "calls/op", "lower"),
    ("poly.mul.ms", "ms/op", "lower"),
    ("construct.noether_division.calls", "calls/op", "lower"),
    ("construct.noether_division.ms", "ms/op", "lower"),
    ("construct.vanishing_form.ms", "ms/op", "lower"),
    ("construct.pencil_from_adjugate.ms", "ms/op", "lower"),
    ("construct.pencil_from_adjugate.fail_frac", "ratio", "lower"),
    ("construct.normalize_extract.ms", "ms/op", "lower"),
    ("construct.assemble_form_matrix.calls", "calls/op", "lower"),
    ("construct.limit_route_frac", "ratio", "lower"),
    ("hyperbolicity.smooth_neighbor.calls", "calls/op", "lower"),
    ("construct.represent.self_ms", "ms/op", "lower"),
    ("intersection.compute_intersections.calls", "calls/op", "lower"),
    ("intersection.compute_intersections.ms", "ms/op", "lower"),
    ("intersection.fail_frac", "ratio", "lower"),
    ("forward.verify.calls", "calls/op", "lower"),
    ("forward.verify.ms", "ms/op", "lower"),
    ("hyperbolicity.is_hyperbolic.calls", "calls/op", "lower"),
    ("hyperbolicity.classify.calls", "calls/op", "lower"),
    ("hyperbolicity.real_roots.calls", "calls/op", "lower"),
    ("hyperbolicity.real_roots.ms", "ms/op", "lower"),
    ("numrange.curve_sample.ms", "ms/op", "lower"),
    ("numrange.boundary_sample.ms", "ms/op", "lower"),
    ("forward.forward_interpolate.ms", "ms/op", "lower"),
    ("forward.forward_interpolate.fail_frac", "ratio", "lower"),
    ("hyperbolicity.smooth_verdict_frac", "ratio", "higher"),
    ("invariants.eigenspace_basis.calls", "calls/op", "lower"),
    ("invariants.eigenspace_basis.ms", "ms/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


PACKAGE = "hyprep"


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in STAGES]
        self.absent = []
        self.counters = {name: [0, 0.0] for *_, name in COUNTERS}
        self.smooth_verdicts = 0
        self.op = -1
        # one entry per span, appended at entry so children can name it
        self.span_name, self.span_start, self.span_end = [], [], []
        self.span_parent, self.span_op, self.span_ok = [], [], []
        self.restored = True
        self._local = threading.local()
        self._patched = []        # (owner, attribute, original)

    # -- installing and removing the wrappers -------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        self.absent = []
        for sid, (mod, fn) in enumerate(STAGES):
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            original = getattr(home, fn, None) if home is not None else None
            if not callable(original):
                self.absent.append(self.names[sid])
                continue
            wrapper = self._span_wrapper(sid, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))
        for mod, cls_name, methods, name in COUNTERS:
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            cls = getattr(home, cls_name, None) if home is not None else None
            found = [m for m in methods if cls is not None and m in vars(cls)]
            if not found:
                self.absent.append(name)
            for meth in found:
                original = vars(cls)[meth]
                setattr(cls, meth, self._counter_wrapper(self.counters[name], original))
                self._patched.append((cls, meth, original))

    def restore(self) -> bool:
        """Put every original back; True when every name holds it again."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original if not isinstance(owner, type)
                 else vars(owner)[attr] is original
                 for owner, attr, original in self._patched)
        self._patched = []
        self.restored = self.restored and ok
        return ok

    def _span_wrapper(self, sid, fn):
        tracer, local = self, self._local
        perf = time.perf_counter
        classify = self.names[sid] == "hyperbolicity.classify"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = len(tracer.span_name)
            tracer.span_name.append(sid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.span_ok.append(False)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                tracer.span_ok[idx] = True
            finally:
                tracer.span_end[idx] = perf()
                tracer.span_start[idx] = t0
                stack.pop()
            if classify and getattr(getattr(result, "kind", None), "value", None) == "Smooth":
                tracer.smooth_verdicts += 1
            return result

        return traced

    @staticmethod
    def _counter_wrapper(slot, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += perf() - t0

        return counted

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.span_start, dtype=float),
            "end": np.asarray(self.span_end, dtype=float),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "op": np.asarray(self.span_op, dtype=np.int64),
            "ok": np.asarray(self.span_ok, dtype=bool),
        }

    def save(self, path: str):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def layer_metrics(self, ops: int, overhead_frac: float) -> dict:
        """Every metric of LAYER_METRICS, per op of the traced pass."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        sid = {name: i for i, name in enumerate(self.names)}

        def spans(name):
            return a["name"] == sid[name]

        def calls(name):
            return int(np.count_nonzero(spans(name)))

        def total_ms(name):
            # outermost spans only, so a function that recurses counts once
            mask = spans(name)
            outer = [i for i in np.flatnonzero(mask)
                     if not self._has_ancestor(a, i, sid[name])]
            return 1e3 * float(np.sum(dur[outer]))

        def fail_frac(name):
            mask = spans(name)
            return float(np.count_nonzero(mask & ~a["ok"])) / max(1, int(np.count_nonzero(mask)))

        per = max(1, ops)
        out = {}
        for name, _, _ in LAYER_METRICS:
            stem, _, kind = name.rpartition(".")
            if stem in self.counters:
                count, secs = self.counters[stem]
                out[name] = count / per if kind == "calls" else 1e3 * secs / per
            elif stem in sid and kind == "calls":
                out[name] = calls(stem) / per
            elif stem in sid and kind == "ms":
                out[name] = total_ms(stem) / per
            elif stem in sid and kind == "fail_frac":
                out[name] = fail_frac(stem)
        out["construct.normalize_extract.ms"] = (
            total_ms("construct.normalize_pencil") + total_ms("construct.extract_shift")) / per
        out["intersection.fail_frac"] = fail_frac("intersection.compute_intersections")
        limit_ops = set(a["op"][spans("hyperbolicity.smooth_neighbor")].tolist())
        out["construct.limit_route_frac"] = len(limit_ops) / per
        out["construct.represent.self_ms"] = self._self_ms(a, sid["construct.represent"]) / per
        out["hyperbolicity.smooth_verdict_frac"] = (
            self.smooth_verdicts / max(1, calls("hyperbolicity.classify")))
        out["trace.overhead_frac"] = overhead_frac
        return {name: float(out[name]) for name, _, _ in LAYER_METRICS}

    @staticmethod
    def _has_ancestor(a, i, name_id) -> bool:
        p = a["parent"][i]
        while p >= 0:
            if a["name"][p] == name_id:
                return True
            p = a["parent"][p]
        return False

    @staticmethod
    def _self_ms(a, name_id) -> float:
        """Summed self time of one span name: each span's duration minus the
        part of its interval that its child spans cover."""
        children = {}
        for i, p in enumerate(a["parent"].tolist()):
            if p >= 0 and a["name"][p] == name_id:
                children.setdefault(p, []).append(i)
        total = 0.0
        for i in np.flatnonzero(a["name"] == name_id):
            start, end = a["start"][i], a["end"][i]
            covered, reach = 0.0, start
            for c in sorted(children.get(i, []), key=lambda c: a["start"][c]):
                lo, hi = max(a["start"][c], reach), min(a["end"][c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += (end - start) - covered
        return 1e3 * total
