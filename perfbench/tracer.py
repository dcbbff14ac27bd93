"""Spans around symsub's public functions, installed from outside the package.

Each public function of a symsub module (its ``__all__``) and each public
method of the two domain classes is replaced by a wrapper that opens a
span.  The wrapper is bound on the defining module and on every symsub
module that imported the name, so internal calls such as
``restrict.subrank_exact -> restrict.restriction_exists -> linalg.solve``
nest.  Spans are folded into per-name totals as they close: calls,
inclusive seconds and self seconds (duration minus the part covered by
child spans).  Summing self seconds by module gives each layer's busy
time, which never exceeds the traced wall time.

``span_log`` keeps one record per span outside the domains layer:
(name id, parent record, operation id, start, end).  Domain functions and
methods run millions of times per pass, so their spans are only folded.
"""

from __future__ import annotations

import inspect
import time
from array import array

LAYERS = (
    "cli", "hypergraphs", "quantum", "symmetrize", "congruence",
    "restrict", "tensors", "linalg", "domains",
)

# linalg kernels are split by the field they ran over
_BY_FIELD = ("rank", "solve", "columns_contained")


def _field_tag(domain):
    p = getattr(domain, "p", None)
    if p is None:
        return "c"
    return "f2" if p == 2 else "fp"


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.total = []
        self.self_s = []
        self.outcomes = {}  # name -> [true count, false count]
        self.quantum = {"iterations": 0, "restarts": 0}
        self.reduce_in_ballantine = 0
        self._ballantine_depth = 0
        self._stack = []  # [child seconds, record index] per open span
        self.op_id = -1
        self.span_log = {
            "name": array("i"), "parent": array("i"), "op": array("i"),
            "start": array("d"), "end": array("d"),
        }
        self._restore = []

    def _sid(self, name):
        sid = self.ids.get(name)
        if sid is None:
            sid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
        return sid

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, fn, name, logged):
        clock = time.perf_counter
        stack = self._stack
        calls, total, self_s = self.calls, self.total, self.self_s
        log = self.span_log
        short = name.split(".", 1)[1]
        by_field = name.startswith("linalg.") and short in _BY_FIELD
        sid = self._sid(name)
        if by_field:
            field_sids = {t: self._sid(f"{name}.{t}") for t in ("f2", "fp", "c")}
        observe = self._observer(name)
        is_reduce = name == "domains.reduce"
        is_ballantine = name == "congruence.ballantine_reduce"
        tracer = self

        def wrapper(*args, **kwargs):
            if is_reduce and tracer._ballantine_depth:
                tracer.reduce_in_ballantine += 1
            if is_ballantine:
                tracer._ballantine_depth += 1
            record = -1
            if logged:
                record = len(log["name"])
                log["name"].append(sid)
                log["parent"].append(stack[-1][1] if stack else -1)
                log["op"].append(tracer.op_id)
                log["start"].append(0.0)
                log["end"].append(0.0)
            frame = [0.0, record]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                s = sid if not by_field else field_sids[
                    _field_tag(kwargs.get("domain", args[-1]))]
                calls[s] += 1
                total[s] += dur
                self_s[s] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record >= 0:
                    log["start"][record] = t0
                    log["end"][record] = t1
                if is_ballantine:
                    tracer._ballantine_depth -= 1
            if observe is not None:
                observe(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observer(self, name):
        if name in ("linalg.columns_contained", "linalg.solve",
                    "restrict.restriction_exists", "restrict.symrestriction_exists"):
            counts = self.outcomes.setdefault(name, [0, 0])
            if name == "linalg.columns_contained":
                def observe(out):
                    counts[0 if out else 1] += 1
            else:
                def observe(out):
                    counts[0 if out is not None else 1] += 1
            return observe
        if name in ("quantum.sym_quantum_functional", "quantum.uniform_quantum_functional"):
            q = self.quantum

            def observe(out):
                q["iterations"] += out.iterations
                q["restarts"] += out.restarts
            return observe
        return None

    def install(self, package):
        """Wrap every public function of symsub's modules and domain classes."""
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrapper(fn, f"{layer}.{attr}", layer != "domains")
        domains = modules[1 + LAYERS.index("domains")]
        for cls in (domains.PrimeField, domains.ComplexNumbers):
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    self._restore.append((cls, attr, fn))
                    setattr(cls, attr, self._wrapper(fn, f"domains.{attr}", False))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self):
        """Plain-data totals for the worker's report."""
        return {
            "names": list(self.names),
            "calls": list(self.calls),
            "total_s": list(self.total),
            "self_s": list(self.self_s),
            "outcomes": {k: list(v) for k, v in self.outcomes.items()},
            "quantum": dict(self.quantum),
            "reduce_in_ballantine": self.reduce_in_ballantine,
            "logged_spans": len(self.span_log["name"]),
        }
