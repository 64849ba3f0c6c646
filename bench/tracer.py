"""Per-layer spans for the traced run, recorded from outside the program.

The tracer wraps the public functions and methods of every loaded
`fqpoints` module. A layer is a module. Module-level functions are replaced
at every binding site (`from .x import y` copies too); methods are replaced
on their class. Names are looked up when tracing starts, so a function that
moves or disappears is reported as absent, not as an error.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans it called. Generator functions get one span per
resumption and count the items they yield.
"""

import inspect
import sys
from time import perf_counter

PACKAGE = "fqpoints"
# Per-monomial helpers: too small to trace, their time stays with the caller.
UNTRACED = {"mpoly.MonomialOrder.key", "mpoly.mono_mul", "mpoly.mono_divides",
            "mpoly.mono_div", "mpoly.mono_lcm", "mpoly.mono_degree"}
# Operator methods are traced too; other dunders are not.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
             "__eq__", "__bool__"}

GF_ADD = ["gf.FieldElement." + m for m in
          ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")]
MPOLY_ARITH = ["mpoly.Polynomial." + m for m in
               ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                "times_term", "monic")]
CENSUS = ["incidence.census_through_point", "incidence.census_linear_component"]
BUILDS = ["constructions.build_partial_spread", "constructions.build_flower",
          "constructions.build_extremal_arrangement"]

# Outcome counters: span key -> (what counts as a hit, span that must be
# open for the call to count, or None).
OUTCOMES = {
    "mpoly.Polynomial.evaluate": (lambda r: not r, None),
    "groebner.normal_form": (lambda r: not r, "groebner.buchberger"),
    "projgeom.LinearSubspace.contains": (bool, None),
    "projgeom.enumerate_points": (None, "variety.rational_points"),
}

# (metric, unit, better, how, span keys). Keys ending in "*" name a layer.
# how: calls | items | self | hits (share of counted calls that hit) |
# rate (items counted inside the context span per second of that span).
METRICS = [
    ("gf.mul.calls", "calls/round", "lower", "calls",
     ["gf.FieldElement.__mul__", "gf.FieldElement.__rmul__"]),
    ("gf.add.calls", "calls/round", "lower", "calls", GF_ADD),
    ("gf.pow.calls", "calls/round", "lower", "calls",
     ["gf.FieldElement.__pow__"]),
    ("gf.inverse.calls", "calls/round", "lower", "calls",
     ["gf.FieldElement.inverse"]),
    ("gf.self_s", "s/round", "lower", "self", ["gf.*"]),
    ("gf.make_field.calls", "calls/round", "lower", "calls", ["gf.make_field"]),
    ("gf.make_field.self_s", "s/round", "lower", "self", ["gf.make_field"]),
    ("mpoly.self_s", "s/round", "lower", "self", ["mpoly.*"]),
    ("mpoly.evaluate.calls", "calls/round", "lower", "calls",
     ["mpoly.Polynomial.evaluate"]),
    ("mpoly.evaluate.self_s", "s/round", "lower", "self",
     ["mpoly.Polynomial.evaluate"]),
    ("mpoly.evaluate.zero_ratio", "fraction", "higher", "hits",
     ["mpoly.Polynomial.evaluate"]),
    ("mpoly.enumerate_forms.forms", "items/round", "lower", "items",
     ["mpoly.enumerate_forms"]),
    ("mpoly.enumerate_forms.self_s", "s/round", "lower", "self",
     ["mpoly.enumerate_forms"]),
    ("mpoly.arith.calls", "calls/round", "lower", "calls", MPOLY_ARITH),
    ("mpoly.arith.self_s", "s/round", "lower", "self", MPOLY_ARITH),
    ("mpoly.leading_monomial.calls", "calls/round", "lower", "calls",
     ["mpoly.Polynomial.leading_monomial"]),
    ("mpoly.leading_monomial.self_s", "s/round", "lower", "self",
     ["mpoly.Polynomial.leading_monomial"]),
    ("mpoly.parse_poly.calls", "calls/round", "lower", "calls",
     ["mpoly.parse_poly"]),
    ("mpoly.parse_poly.self_s", "s/round", "lower", "self",
     ["mpoly.parse_poly"]),
    ("groebner.self_s", "s/round", "lower", "self", ["groebner.*"]),
    ("groebner.buchberger.calls", "calls/round", "lower", "calls",
     ["groebner.buchberger"]),
    ("groebner.buchberger.self_s", "s/round", "lower", "self",
     ["groebner.buchberger"]),
    ("groebner.normal_form.calls", "calls/round", "lower", "calls",
     ["groebner.normal_form"]),
    ("groebner.normal_form.self_s", "s/round", "lower", "self",
     ["groebner.normal_form"]),
    ("groebner.normal_form.zero_ratio", "fraction", "lower", "hits",
     ["groebner.normal_form"]),
    ("groebner.hilbert.calls", "calls/round", "lower", "calls",
     ["groebner.hilbert"]),
    ("groebner.hilbert.self_s", "s/round", "lower", "self",
     ["groebner.hilbert"]),
    ("projgeom.self_s", "s/round", "lower", "self", ["projgeom.*"]),
    ("projgeom.enumerate_points.points", "items/round", "lower", "items",
     ["projgeom.enumerate_points"]),
    ("projgeom.enumerate_points.self_s", "s/round", "lower", "self",
     ["projgeom.enumerate_points"]),
    ("projgeom.enumerate_hyperplanes.hyperplanes", "items/round",
     "lower", "items", ["projgeom.enumerate_hyperplanes"]),
    ("projgeom.enumerate_hyperplanes.self_s", "s/round", "lower", "self",
     ["projgeom.enumerate_hyperplanes"]),
    ("projgeom.contains.calls", "calls/round", "lower", "calls",
     ["projgeom.LinearSubspace.contains"]),
    ("projgeom.contains.self_s", "s/round", "lower", "self",
     ["projgeom.LinearSubspace.contains"]),
    ("projgeom.contains.hit_ratio", "fraction", "higher", "hits",
     ["projgeom.LinearSubspace.contains"]),
    ("projgeom.rref.calls", "calls/round", "lower", "calls", ["projgeom.rref"]),
    ("projgeom.rref.self_s", "s/round", "lower", "self", ["projgeom.rref"]),
    ("variety.self_s", "s/round", "lower", "self", ["variety.*"]),
    ("variety.load_variety.calls", "calls/round", "lower", "calls",
     ["variety.load_variety"]),
    ("variety.load_variety.self_s", "s/round", "lower", "self",
     ["variety.load_variety"]),
    ("variety.rational_points.calls", "calls/round", "lower", "calls",
     ["variety.rational_points"]),
    ("variety.rational_points.self_s", "s/round", "lower", "self",
     ["variety.rational_points"]),
    ("variety.rational_points.points_per_s", "points/s", "higher", "rate",
     ["projgeom.enumerate_points", "variety.rational_points"]),
    ("incidence.census.calls", "calls/round", "lower", "calls", CENSUS),
    ("incidence.census.self_s", "s/round", "lower", "self", ["incidence.*"]),
    ("constructions.build.calls", "calls/round", "lower", "calls", BUILDS),
    ("constructions.build.self_s", "s/round", "lower", "self",
     ["constructions.*"]),
    ("bounds.calls", "calls/round", "lower", "calls", ["bounds.*"]),
    ("bounds.self_s", "s/round", "lower", "self", ["bounds.*"]),
    ("cli.main.calls", "calls/round", "lower", "calls", ["cli.main"]),
    ("cli.self_s", "s/round", "lower", "self", ["cli.*"]),
]


class Span:
    """Totals for one wrapped callable."""

    __slots__ = ("calls", "total", "self", "items", "counted", "hits")

    def __init__(self):
        self.calls = self.items = self.counted = self.hits = 0
        self.total = self.self = 0.0


class Tracer:
    """Install with `start()`, remove with `stop()`; totals accumulate."""

    def __init__(self):
        self.spans = {}
        self.open = {}  # context span key -> nesting depth
        self.stack = []  # child-time accumulators of the open spans
        self.paused = False
        self._undo = []

    # -- installing --

    def _callables(self):
        """(key, class or None, attribute, function, classmethod,
        staticmethod or None) for every public function and method of the
        package's loaded modules."""
        prefix = PACKAGE + "."
        for modname, mod in sorted(sys.modules.items()):
            if not modname.startswith(prefix) or mod is None:
                continue
            layer = modname[len(prefix):]
            for name, obj in list(vars(mod).items()):
                defined_here = getattr(obj, "__module__", None) == modname
                if name.startswith("_") or not defined_here:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{name}", None, name, obj, None
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in OPERATORS:
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            kind = type(raw)
                        elif inspect.isfunction(raw):
                            kind = None
                        else:
                            continue
                        yield (f"{layer}.{obj.__name__}.{attr}", obj, attr,
                               getattr(raw, "__func__", raw), kind)

    def start(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for key, owner, attr, func, kind in list(self._callables()):
            if key in UNTRACED:
                continue
            wrapper = self._wrap(key, func)
            if owner is not None:
                self._set(owner, attr, kind(wrapper) if kind else wrapper)
                continue
            for mod in modules:  # every binding site of the function
                for name, value in list(vars(mod).items()):
                    if value is func:
                        self._set(mod, name, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def stop(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- recording --

    def _wrap(self, key, func):
        span = self.spans.setdefault(key, Span())
        predicate, context = OUTCOMES.get(key, (None, None))
        is_context = key in {c for _, c in OUTCOMES.values()}
        stack, opened = self.stack, self.open
        tracer = self

        def close(t0):
            dt = perf_counter() - t0
            child = stack.pop()
            span.total += dt
            span.self += dt - child
            if stack:
                stack[-1] += dt

        if inspect.isgeneratorfunction(func):
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    yield from func(*args, **kwargs)
                    return
                span.calls += 1
                it = func(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    span.items += 1
                    if context and opened.get(context):
                        span.counted += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return func(*args, **kwargs)
                span.calls += 1
                if is_context:
                    opened[key] = opened.get(key, 0) + 1
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    close(t0)
                    if is_context:
                        opened[key] -= 1
                if predicate is not None and (context is None
                                              or opened.get(context)):
                    tracer.paused = True  # the test itself must not be traced
                    try:
                        span.counted += 1
                        span.hits += bool(predicate(result))
                    finally:
                        tracer.paused = False
                return result

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        return wrapper

    # -- reporting --

    def layer_self(self):
        """Self seconds per layer (module)."""
        out = {}
        for key, span in self.spans.items():
            layer = key.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + span.self
        return out

    def _select(self, keys):
        found = []
        for key in keys:
            if key.endswith("*"):
                found += [s for k, s in self.spans.items()
                          if k.startswith(key[:-1])]
            elif key in self.spans:
                found.append(self.spans[key])
        return found

    def metrics(self, rounds):
        """{metric: value} per traced round, and the metrics whose spans were
        all absent (reported as 0)."""
        values, absent = {}, []
        for name, _unit, _better, how, keys in METRICS:
            spans = self._select(keys)
            if not spans:
                absent.append(name)
            if how == "calls":
                value = sum(s.calls for s in spans) / rounds
            elif how == "items":
                value = sum(s.items for s in spans) / rounds
            elif how == "self":
                value = sum(s.self for s in spans) / rounds
            elif how == "hits":
                counted = sum(s.counted for s in spans)
                value = (sum(s.hits for s in spans) / counted
                         if counted else 0.0)
            else:  # rate: items inside the context over the context's time
                inner, outer = (self._select([k]) for k in keys)
                seconds = sum(s.total for s in outer)
                value = (sum(s.counted for s in inner) / seconds
                         if seconds else 0.0)
            values[name] = value
        return values, absent
