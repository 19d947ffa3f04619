"""Spans around the package's layer boundaries, recorded from outside.

install() rebinds public names of the sl3jones modules to timing
wrappers.  The modules import each other with `from .x import y`, so a
function is rebound at every module that holds it, not only where it is
defined; methods are rebound once, on their class.  Each span records its
name, start, end, parent span and request id in memory; the child writes
them out when its repetition ends, and the parent derives self times.

Counters that need a pass over a result (JSON size, coefficient bits) are
taken after the span closes, inside a `trace.count` span, so that their
cost shows as tracing overhead and not as the caller's self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rids: list[int] = []
        self.counters: dict[str, int] = {}
        self.request = -1
        self._stack = [-1]

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(tracer, args, result) runs after it."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, rids, stack = self.parents, self.rids, self._stack
        counted = self.wrap("trace.count", count) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            rids.append(self.request)
            ends.append(0.0)
            stack.append(i)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                stack.pop()
            if counted is not None:
                counted(self, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "starts": self.starts,
                       "ends": self.ends, "parents": self.parents,
                       "rids": self.rids, "counters": self.counters}, f)


# -- counters taken after a span ----------------------------------------


def _count_div(tr, args, result):
    # the inner loop does one multiply-subtract per (nonzero quotient
    # term, divisor term after the first): a computed operation count
    tr.add("laurent.div_exact.ops",
           result.term_count * (args[1].term_count - 1))


def _count_text(tr, args, result):
    tr.add("laurent.render.bytes", len(result))


def _count_json(tr, args, result):
    tr.add("laurent.render.bytes",
           len(json.dumps(result, separators=(",", ":"))))


def _count_terms(tr, args, result):
    tr.add("plethysm2.psi2_closed.terms", len(result))


def _count_invariant(tr, args, result):
    value = result.value
    tr.add("laurent.out_terms", value.term_count)
    tr.peak("laurent.max_coeff_bits",
            max((abs(c).bit_length() for _, c in value.items()), default=0))


# (module, attribute, span name, counter) for functions, rebound at every
# sl3jones module that holds the same object
FUNCTIONS = (
    ("sl3jones.sl3rep", "qdim_closed", "sl3rep.qdim_closed", None),
    ("sl3jones.sl3rep", "twist_monomial", "sl3rep.twist_monomial", None),
    ("sl3jones.plethysm2", "psi2_closed", "plethysm2.psi2_closed",
     _count_terms),
    ("sl3jones.jones", "jones_t2b", "jones.jones_t2b", _count_invariant),
    ("sl3jones.jones", "jones_rosso", "jones.jones_rosso", _count_invariant),
    ("sl3jones.jones", "degree_report", "jones.degree_report", None),
    ("sl3jones.schur3", "psi_oracle", "schur3.psi_oracle", None),
    ("sl3jones.schur3", "decompose_schur", "schur3.decompose_schur", None),
    ("sl3jones.schur3", "mul_sym", "schur3.mul_sym", None),
    ("sl3jones.schur3", "schur", "schur3.schur", None),
    ("sl3jones.schur3", "verify_lemma_LR", "schur3.verify", None),
    ("sl3jones.schur3", "verify_lemma_psi2_recurrence", "schur3.verify",
     None),
)

# (module, class, method, span name, counter), rebound on the class
METHODS = (
    ("sl3jones.laurent", "ScaledLaurent", "__init__", "laurent.init", None),
    ("sl3jones.laurent", "ScaledLaurent", "__mul__", "laurent.mul", None),
    ("sl3jones.laurent", "ScaledLaurent", "div_exact", "laurent.div_exact",
     _count_div),
    ("sl3jones.laurent", "ScaledLaurent", "to_text", "laurent.render",
     _count_text),
    ("sl3jones.laurent", "ScaledLaurent", "to_json_dict", "laurent.render",
     _count_json),
    ("sl3jones.jones", "ColoredJonesResult", "to_json_dict",
     "laurent.render", _count_json),
)


def install(tracer: Tracer) -> None:
    """Rebind the traced names in every loaded sl3jones module.

    The sl3jones modules must already be imported.
    """
    mods = [m for name, m in list(sys.modules.items())
            if name == "sl3jones" or name.startswith("sl3jones.")]
    for modname, attr, span, count in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        wrapper = tracer.wrap(span, original, count)
        for mod in mods:
            for k, v in list(vars(mod).items()):
                if v is original:
                    setattr(mod, k, wrapper)
    for modname, clsname, meth, span, count in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), count))


# -- analysis -------------------------------------------------------------


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer calls, self times and counters from one dumped trace."""
    selfs = self_times(trace["starts"], trace["ends"], trace["parents"])
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    t2b: list[float] = []
    for i, name in enumerate(trace["names"]):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if name == "jones.jones_t2b":
            t2b.append(trace["ends"][i] - trace["starts"][i])
    out: dict[str, float] = {}
    for name in ("laurent.div_exact", "laurent.init", "sl3rep.qdim_closed",
                 "sl3rep.twist_monomial", "plethysm2.psi2_closed",
                 "jones.jones_t2b", "schur3.schur"):
        out[name + ".calls"] = calls.get(name, 0)
    for name in ("laurent.div_exact", "laurent.init", "laurent.mul",
                 "laurent.render", "sl3rep.qdim_closed",
                 "sl3rep.twist_monomial", "plethysm2.psi2_closed",
                 "jones.jones_t2b", "jones.jones_rosso", "jones.degree_report",
                 "schur3.psi_oracle", "schur3.decompose_schur",
                 "schur3.mul_sym", "schur3.verify", "cli.main", "trace.count"):
        out[name + ".self_s"] = self_s.get(name, 0.0)
    out["jones.jones_t2b.p50_s"] = percentile(t2b, 50)
    out["jones.jones_t2b.p95_s"] = percentile(t2b, 95)
    for name in ("laurent.div_exact.ops", "laurent.render.bytes",
                 "laurent.out_terms", "laurent.max_coeff_bits",
                 "plethysm2.psi2_closed.terms"):
        out[name] = trace["counters"].get(name, 0)
    out["trace.spans"] = len(trace["names"])
    return out
