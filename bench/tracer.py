"""Span tracing for the traced benchmark run, installed from outside the library.

``install()`` wraps every public function of the library's layer modules
and rebinds the wrapper wherever the original is reachable: in each
``orbicyclic*`` module namespace (``from .arith import factorize`` gives
the importing module its own binding) and in function defaults (``theta``
takes ``enumerator=enumerate_orbifolds``).  Rebinding only the defining
module would miss those callers.

Each span records its name, start, end, parent span and op id.  Spans are
kept in memory in flat arrays for the whole op list and reduced to
per-function call counts, self times and error counts by ``summary()``
when the list ends; nothing is written while ops run.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

LAYERS = ("arith", "orbicyclic", "congruence", "orbifold", "epi", "mapcount", "subgroups")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: dict[str, int] = {}
        self.current = -1
        self.op_id = -1
        self.candidates_generated = 0
        self.candidates_accepted = 0

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.errors[name] = 0
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        rec = self

        def traced(*args, **kwargs):
            parent = rec.current
            idx = len(rec.span_start)
            rec.span_name.append(nid)
            rec.span_parent.append(parent)
            rec.span_op.append(rec.op_id)
            rec.span_start.append(0.0)
            rec.span_end.append(0.0)
            rec.current = idx
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.errors[name] += 1
                raise
            finally:
                rec.span_end[idx] = perf_counter()
                rec.span_start[idx] = start
                rec.current = parent

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def summary(self) -> dict:
        """Per-function {calls, self_ms, errors}, plus the candidate counts."""
        n = len(self.span_start)
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += self.span_end[i] - self.span_start[i] - covered[i]
        functions = {
            name: {
                "calls": calls[nid],
                "self_ms": self_s[nid] * 1e3,
                "errors": self.errors[name],
            }
            for nid, name in enumerate(self.names)
        }
        return {
            "functions": functions,
            "spans": n,
            "candidates_generated": self.candidates_generated,
            "candidates_accepted": self.candidates_accepted,
        }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield attr, obj


def _count_candidates(rec: Recorder, generator_fn):
    def counted(*args, **kwargs):
        for sig in generator_fn(*args, **kwargs):
            rec.candidates_generated += 1
            yield sig

    return counted


def _count_accepted(rec: Recorder, enumerator):
    """Add an enumerator's result size to the accepted count when it drew candidates."""

    def counted(*args, **kwargs):
        before = rec.candidates_generated
        found = enumerator(*args, **kwargs)
        if rec.candidates_generated > before:
            rec.candidates_accepted += len(found)
        return found

    return counted


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions and count orbifold candidates.

    Must run after the modules to be traced are imported (``orbicyclic``
    imports every layer; import ``orbicyclic.cli`` first to trace the
    CLI's bindings too) and before any op executes.
    """
    import orbicyclic  # noqa: F401  (imports every layer module)

    replacements = {}
    for layer in LAYERS:
        module = sys.modules[f"orbicyclic.{layer}"]
        for attr, fn in _public_functions(module):
            replacements[id(fn)] = (fn, rec.wrap(fn, f"{layer}.{attr}"))

    orbifold = sys.modules["orbicyclic.orbifold"]
    gen = orbifold._candidate_signatures
    replacements[id(gen)] = (gen, _count_candidates(rec, gen))
    for attr in ("enumerate_orbifolds", "enumerate_orbifolds_via_harvey"):
        original, wrapped = replacements[id(getattr(orbifold, attr))]
        replacements[id(original)] = (original, _count_accepted(rec, wrapped))

    modules = [
        module
        for name, module in sys.modules.items()
        if name == "orbicyclic" or name.startswith("orbicyclic.")
    ]
    # Defaults first, while the namespaces still hold the original functions.
    for module in modules:
        for obj in list(vars(module).values()):
            defaults = getattr(obj, "__defaults__", None)
            if defaults and any(id(d) in replacements for d in defaults):
                obj.__defaults__ = tuple(
                    replacements[id(d)][1] if id(d) in replacements else d
                    for d in defaults
                )
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
