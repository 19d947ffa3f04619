"""The benchmark's metric schema, beyond what BENCHMARK.json holds.

BENCHMARK.json, at the root of the repository, is the one list of the
workloads and their reasons, of the gated end-to-end metrics (unit,
direction, bound) and of the per-layer metrics on the final output line
of a traced run.  This module holds only what that file cannot: the
metrics that are reported but not listed there, with their units, and
for every per-layer metric the end-to-end metric and workload it is
expected to move.

One rule decides what BENCHMARK.json lists: a metric is listed only if it
is nonzero on every workload.  A layer that some workload never calls
reads exactly 0 there, so its times and counts (the schur3 layer, the
cache, the closed-form plethysm, table's process pool, ...) are reported
in every run's metric lines and report line but not listed.
"""

from __future__ import annotations

import json
import os
import re

from workloads import NAMES as WORKLOADS

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark(path: str = BENCHMARK_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# end-to-end metrics that are reported, not gated: name -> (unit,
# workloads it applies to)
REPORTED_END_TO_END = {
    "wall_s": ("s", WORKLOADS),
    "ref_rate": ("1/s", WORKLOADS),
    "par_wall_s": ("s", ("table",)),
    "req_p50_s": ("s", ("session",)),
    "req_p95_s": ("s", ("session",)),
    "req_samples": ("count", ("session",)),
    "failed_frac": ("ratio", WORKLOADS),
}

# per-layer metrics that are reported, not listed: name -> unit
REPORTED_PER_LAYER = {
    "laurent.render.self_s": "s",
    "laurent.render.bytes": "bytes",
    "plethysm2.psi2_closed.calls": "count",
    "plethysm2.psi2_closed.self_s": "s",
    "plethysm2.psi2_closed.terms": "count",
    "jones.jones_t2b.calls": "count",
    "jones.jones_t2b.self_s": "s",
    "jones.jones_t2b.p50_s": "s",
    "jones.jones_t2b.p95_s": "s",
    "jones.jones_rosso.self_s": "s",
    "jones.degree_report.self_s": "s",
    "schur3.psi_oracle.self_s": "s",
    "schur3.decompose_schur.self_s": "s",
    "schur3.mul_sym.self_s": "s",
    "schur3.verify.self_s": "s",
    "schur3.schur.calls": "count",
    "cli.main.self_s": "s",
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "cli.cache.lookups": "count",
    "cli.cache.hit_ratio": "ratio",
    "cli.cache.hit_p50_s": "s",
    "cli.cache.miss_p50_s": "s",
    "cli.cache.bytes_written": "bytes",
    "cli.table.jobs_efficiency": "ratio",
}

# reported alongside, with no end-to-end metric they are expected to move
TRACE_UNITS = {"trace.wall_s": "s", "trace.count.self_s": "s",
               "trace.spans": "count"}

_LARGE_TABLE = (("wall_s", "large"), ("wall_s", "table"))
_TABLE_SESSION = (("wall_s", "table"), ("req_p50_s", "session"))
_RENDER = (("wall_s", "large"), ("req_p95_s", "session"))
_RSS = (("peak_rss_mb", "large"),)
_TABLE = (("wall_s", "table"),)
_CELLS = (("wall_s", "table"), ("par_wall_s", "table"))
_ORACLE = (("wall_s", "oracle"),)
_CACHE = (("req_p50_s", "session"),)

# every per-layer metric -> the (end-to-end metric, workload) it should move
MAPS_TO = {
    "laurent.div_exact.calls": _LARGE_TABLE,
    "laurent.div_exact.self_s": _LARGE_TABLE,
    "laurent.div_exact.ops": _LARGE_TABLE,
    "laurent.init.calls": _TABLE_SESSION,
    "laurent.init.self_s": _TABLE_SESSION,
    "laurent.mul.self_s": _TABLE_SESSION,
    "laurent.render.self_s": _RENDER,
    "laurent.render.bytes": _RENDER,
    "laurent.out_terms": _RSS,
    "laurent.max_coeff_bits": _RSS,
    "sl3rep.qdim_closed.calls": _TABLE,
    "sl3rep.qdim_closed.self_s": _TABLE,
    "sl3rep.twist_monomial.calls": _TABLE,
    "sl3rep.twist_monomial.self_s": _TABLE,
    "plethysm2.psi2_closed.calls": _TABLE,
    "plethysm2.psi2_closed.self_s": _TABLE,
    "plethysm2.psi2_closed.terms": _TABLE,
    "jones.jones_t2b.calls": _CELLS,
    "jones.jones_t2b.self_s": _CELLS,
    "jones.jones_t2b.p50_s": _CELLS,
    "jones.jones_t2b.p95_s": _CELLS,
    "jones.jones_rosso.self_s": _ORACLE,
    "jones.degree_report.self_s": _TABLE,
    "schur3.psi_oracle.self_s": _ORACLE,
    "schur3.decompose_schur.self_s": _ORACLE,
    "schur3.mul_sym.self_s": _ORACLE,
    "schur3.verify.self_s": _ORACLE,
    "schur3.schur.calls": _ORACLE,
    "cli.main.self_s": _CACHE,
    "cli.cache.hits": _CACHE,
    "cli.cache.misses": _CACHE,
    "cli.cache.lookups": _CACHE,
    "cli.cache.hit_ratio": _CACHE,
    "cli.cache.hit_p50_s": _CACHE,
    "cli.cache.miss_p50_s": _CACHE,
    "cli.cache.bytes_written": _CACHE,
    "cli.table.jobs_efficiency": (("par_wall_s", "table"),),
    "trace.overhead_s": tuple(("wall_s", w) for w in WORKLOADS),
}


def units(bench: dict) -> dict[str, str]:
    """The unit of every metric a run reports."""
    listed = {m["name"]: m["unit"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    reported = {name: unit for name, (unit, _) in REPORTED_END_TO_END.items()}
    return dict(listed, **reported, **REPORTED_PER_LAYER, **TRACE_UNITS)
