"""Child side of a repetition: send the requests, time them, check them.

The timed region of a request is the call into the package: cli.main
(including its --out write and cache traffic) or the library function
plus rendering its result to text.  Reading an output back and checking
it happen after its request, outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import sl3jones
from sl3jones import cli

import pace
import tracing
import verify
import workloads

_clock = time.perf_counter


def _peak_rss_kib() -> int:
    """High-water resident size of this process's own address space.

    Read from VmHWM, not ru_maxrss: Linux carries the spawning parent's
    peak across exec into ru_maxrss, so a child of a large parent would
    report the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _call_lib(req: workloads.Request) -> str:
    fn = getattr(sl3jones, req.fn)
    if req.fn == "psi_oracle":
        m1, m2, a = req.args
        return fn((m1, m2), a).to_text()
    if req.fn == "jones_rosso":
        a, b, m1, m2 = req.args
        return fn(sl3jones.TorusKnotSpec(a, b), (m1, m2)).value.to_text()
    return str(fn(*req.args))


def _run_one(req, rid, workdir, cache_dir, tracer, clock):
    """Send one request; returns (latency, output bytes or None, problem)."""
    if req.kind == "lib":
        t0 = clock()
        text = _call_lib(req)
        return clock() - t0, text.encode("utf-8"), None
    argv = list(req.argv)
    out_path = os.path.join(workdir, f"out-{rid}")
    if req.out:
        argv += ["--out", out_path]
    if req.cache:
        argv += ["--cache", cache_dir]
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = clock()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        latency = clock() - t0
    if code != 0:
        return latency, None, f"exit code {code}: {stderr.getvalue()[-200:]}"
    if req.out:
        with open(out_path, "rb") as f:
            data = f.read()
        os.unlink(out_path)
        return latency, data, None
    return latency, stdout.getvalue().encode("utf-8"), None


def cache_state(cache_dir: str) -> dict[str, tuple[int, int]]:
    """Each cache file's (inode, mtime_ns); a missing directory is empty.

    The package writes an entry with os.replace, which gives the entry a
    new inode, so a rewritten entry never reads as unchanged.
    """
    try:
        entries = list(os.scandir(cache_dir))
    except FileNotFoundError:
        return {}
    return {e.name: (e.inode(), e.stat().st_mtime_ns) for e in entries}


def cache_outcome(repeat: bool, before: dict, after: dict):
    """(hit, problem) of a cached request, from the cache directory.

    A hit leaves every file as it was; a miss adds exactly one new entry.
    The first request of a key must miss and a repeat must hit.
    """
    added = [n for n in after if n not in before]
    changed = [n for n in before if after.get(n) != before[n]]
    hit = not added and not changed
    if changed:
        return hit, f"rewrote or removed {len(changed)} cache file(s)"
    if len(added) > 1:
        return hit, f"added {len(added)} cache files"
    if repeat and not hit:
        return hit, "a repeat missed the cache"
    if not repeat and hit:
        return hit, "a first request wrote no cache entry"
    return hit, None


def send(reqs, workdir, cache_dir, tracer, check, records, clock=_clock):
    """Send the requests in order; returns the sum of their latencies.

    check(req, data) runs after each request, outside its timed region,
    and returns a problem or None; outputs are not kept, so they do not
    add to the peak resident size.  For a cached request the cache
    directory is read before and after, also outside the timed region,
    to tell a hit from a miss; a cache that misbehaves is recorded as a
    cache_problem, apart from the output's own problem.
    """
    wall = 0.0
    for req in reqs:
        rid = len(records)
        if tracer is not None:
            tracer.request = rid
        before = cache_state(cache_dir) if req.cache else None
        try:
            latency, data, problem = _run_one(req, rid, workdir, cache_dir,
                                              tracer, clock)
        except Exception as exc:  # a request that raised is a failure
            latency, data, problem = 0.0, None, f"raised {exc!r}"
        wall += latency
        hit = cache_problem = None
        if req.cache:
            hit, cache_problem = cache_outcome(req.repeat, before,
                                               cache_state(cache_dir))
        if problem is None:
            problem = check(req, data)
        records.append({"key": req.key, "command": req.command,
                        "latency": latency, "repeat": req.repeat,
                        "cached": req.cache, "cache_hit": hit,
                        "cache_problem": cache_problem, "problem": problem})
    return wall


def main(setup_s: float, version: str, code, args: list[str]) -> int:
    workload, seed, mode, workdir, inject = args
    result = {"setup_s": setup_s,
              "version_ok": code == 0 and version.strip() == sl3jones.__version__}
    if mode != "setup":
        reference = verify.load_reference()
        corrupt_next = inject == "1"

        def check(req, data):
            nonlocal corrupt_next
            if corrupt_next and req.invariant:
                corrupt_next = False
                data = verify.corrupt_one_coefficient(data, req.invariant)
            return verify.check(req.key, data, req.invariant, reference)

        tracer = None
        if mode == "traced":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        cache_dir = os.path.join(workdir, "cache")
        records: list[dict] = []
        reqs = workloads.requests(workload, int(seed))
        if tracer is None:
            with pace.SpeedMeter() as meter:
                result["wall_s"] = send(reqs, workdir, cache_dir, None, check,
                                        records, meter.clock)
            result["ref_rate"] = meter.rate()
        else:
            result["wall_s"] = send(reqs, workdir, cache_dir, tracer, check,
                                    records)
        result["peak_rss_kib"] = _peak_rss_kib()
        if mode == "parallel":
            result["par_wall_s"] = send((workloads.TABLE_PARALLEL,), workdir,
                                        cache_dir, None, check, records)
        files = [os.path.join(cache_dir, n) for n in cache_state(cache_dir)]
        result["cache_files"] = len(files)
        result["cache_bytes"] = sum(os.path.getsize(p) for p in files)
        result["requests"] = records
        if tracer is not None:
            result["spans"] = os.path.join(workdir, "spans.json")
            tracer.dump(result["spans"])
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f)
    return 0
