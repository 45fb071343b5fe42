"""Timing wrappers over the library's functions, installed from outside.

The tracer edits no source file.  It replaces each listed function, in every
loaded `hyperwedge.*` namespace that binds it, by a wrapper that counts calls
and accumulates total and self time (total minus the time spent in nested
wrapped calls).  Calls between modules go through those namespaces, so they
are caught too.  A listed function missing from its home module is reported
as absent with zero calls.
"""
import functools
import inspect
import sys
from math import factorial
from time import perf_counter

# Home module -> functions traced there, as named in hyperwedge.__all__.
LAYERS = (
    ("indices", ("index_set", "young_diagram", "is_good", "enumerate_partitions")),
    ("multivector", ("wedge", "wedge_power", "contract", "hodge_star", "gl_apply",
                     "transition", "multivector_from_obj", "multivector_to_obj")),
    ("polynomials", ("poly_eval", "poly_to_obj")),
    ("forms", ("hpf_eval", "plucker_relation", "hpf_polynomial")),
    ("varieties", ("in_grassmannian", "in_pf", "in_hpf", "in_hpf_component",
                   "in_dual_hpf", "in_two_sided", "contraction_membership")),
    ("elimination", ("good_projection", "reconstruct_all", "reconstruct_coordinate")),
)
FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
COUNTERS = (
    ("multivector.wedge.term_pairs", "count"),
    ("forms.hpf_eval.partition_terms", "count"),
    ("elimination.reconstruct_coordinate.failed.zero_denominator", "count"),
    ("elimination.reconstruct_coordinate.failed.missing_coordinates", "count"),
)
RATIOS = (("elimination.carrier_yield", "ratio"),)


def metric_units():
    """Every metric the tracer reports, in order, with its unit."""
    out = [(f"{layer}.{name}.{field}", unit)
           for layer, names in LAYERS for name in names for field, unit in FIELDS]
    return out + list(COUNTERS) + list(RATIOS)


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls, self.total, self.self = 0, 0.0, 0.0


class Tracer:
    """Counters and span times for one traced worker; off until `active`."""

    def __init__(self):
        self.stats = {}
        self.counters = {name: 0 for name, _ in COUNTERS}
        self.absent = []
        self.active = False
        self._stack = []
        self._wrappers = {}

    # ------------------------------------------------------------ spans

    def _enter(self):
        self._stack.append([perf_counter(), 0.0])

    def _exit(self, stat):
        start, nested = self._stack.pop()
        elapsed = perf_counter() - start
        stat.total += elapsed
        stat.self += elapsed - nested
        if self._stack:
            self._stack[-1][1] += elapsed

    # ---------------------------------------------------------- wrappers

    def _count(self, key, args):
        """Work counters read from the arguments of the wrapped call."""
        if key == "multivector.wedge":
            self.counters["multivector.wedge.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif key == "forms.hpf_eval":
            m, l = args[0].m, args[0].l
            self.counters["forms.hpf_eval.partition_terms"] += (
                factorial(m * l) // (factorial(m) ** l * factorial(l)))

    def _wrap(self, key, fn, hw):
        stat = self.stats[key]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                stat.calls += 1
                items = fn(*args, **kwargs)
                while True:
                    tracer._enter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(stat)
                    yield item
            return generator

        failures = ()
        if key == "elimination.reconstruct_coordinate":
            failures = tuple(
                (getattr(hw, cls), f"{key}.failed.{field}")
                for cls, field in (("ZeroDenominator", "zero_denominator"),
                                   ("MissingCoordinates", "missing_coordinates"))
                if hasattr(hw, cls))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            tracer._count(key, args)
            tracer._enter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                for cls, counter in failures:
                    if isinstance(exc, cls):
                        tracer.counters[counter] += 1
                raise
            finally:
                tracer._exit(stat)
        return wrapper

    def install(self, hw):
        """Rebind every listed function in every loaded hyperwedge namespace."""
        for layer, names in LAYERS:
            home = sys.modules.get(f"hyperwedge.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                self.stats[key] = _Stat()
                fn = getattr(home, name, None) if home else None
                if not callable(fn):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, fn, hw)
                self._wrappers[key] = (fn, wrapper)
                for module in _namespaces():
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def coverage_problems(self):
        """Namespace bindings of a listed name, or of its original, left unwrapped."""
        problems = []
        for module in _namespaces():
            names = vars(module)
            for key, (fn, wrapper) in self._wrappers.items():
                name = key.rsplit(".", 1)[1]
                if name in names and names[name] is not wrapper:
                    problems.append(f"{module.__name__}.{name}")
                problems += [f"{module.__name__}.{attr}" for attr, value in names.items() if value is fn]
        return sorted(set(problems))

    # ----------------------------------------------------------- results

    def metrics(self):
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.total_s"] = stat.total
            out[f"{key}.self_s"] = stat.self
        out.update(self.counters)
        attempts = self.stats["elimination.reconstruct_coordinate"].calls
        failed = sum(self.counters[f"elimination.reconstruct_coordinate.failed.{f}"]
                     for f in ("zero_denominator", "missing_coordinates"))
        out["elimination.carrier_yield"] = (attempts - failed) / attempts if attempts else 0.0
        return out


def _namespaces():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "hyperwedge" or name.startswith("hyperwedge."))]
