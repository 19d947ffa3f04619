"""sl3jones benchmark: run one workload and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` beside this
directory.  A run first spawns SETUP_SPAWNS set-up-only children, then
starts repetitions (each a fresh child process) for as long as the next
one, judged by the longest so far, still ends within S seconds.  On
`table` every second untraced repetition also runs the --jobs 2 table.  With
--trace 0 every repetition runs untraced and the final line
carries the end-to-end metrics listed in BENCHMARK.json; with --trace 1
untraced and traced repetitions alternate and the final line carries the
per-layer metrics listed there.
Every metric, the environment record and the full report are printed
before the final line, which is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--inject-fault adds 1 to one coefficient of the first invariant output
of each repetition before it is checked; the run must then report it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SPAWNS = 11         # set-up-only children per run, after one warm-up
RUN_LIMIT_S = 170         # every child is killed past this point of the run
LIMITS = ("no CPU pinning, no frequency-governor control and no page-cache "
          "dropping: the benchmark changes no machine settings, so runs "
          "report medians, the load average at start and end, and the "
          "host's speed as the rate of a fixed reference loop")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "limits": LIMITS}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


class Runner:
    """Spawns child repetitions for one run and collects their results."""

    def __init__(self, workload, seed, inject, work_root, deadline):
        self.workload, self.seed, self.inject = workload, seed, inject
        self.work_root, self.deadline = work_root, deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        # no result cache from the caller; bytecode is written (inside the
        # checkout) so set-up is measured as an installed package has it
        self.env.pop("SL3JONES_CACHE", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def spawn(self, mode: str) -> dict | None:
        """Run one child; its result dict, or None if it did not finish."""
        self.count += 1
        workdir = os.path.join(self.work_root, f"rep-{self.count}")
        os.makedirs(workdir)
        t_spawn = _now()
        argv = [sys.executable, os.path.join(HERE, "child.py"), repr(t_spawn),
                self.workload, str(self.seed), mode, workdir,
                "1" if self.inject else "0"]
        proc = subprocess.Popen(argv, env=self.env, cwd=workdir,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - _now()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"{mode} child timed out", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        path = os.path.join(workdir, "result.json")
        if proc.returncode != 0 or not os.path.exists(path):
            tail = err.decode("utf-8", "replace")[-2000:]
            print(f"{mode} child failed ({proc.returncode}):\n{tail}",
                  file=sys.stderr)
            return None
        with open(path, encoding="utf-8") as f:
            result = json.load(f)
        if result.get("spans"):
            with open(result["spans"], encoding="utf-8") as f:
                result["layers"] = tracing.layer_metrics(json.load(f))
        shutil.rmtree(workdir)
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _cache_metrics(reps) -> dict:
    """Cache traffic per repetition, as the cache directory showed it: a
    cached request that left every entry unchanged is a hit."""
    hits, misses, hit_lat, miss_lat, written = 0, 0, [], [], []
    for rep in reps:
        for rec in rep["requests"]:
            if rec["cache_hit"] is True:
                hits += 1
                hit_lat.append(rec["latency"])
            elif rec["cache_hit"] is False:
                misses += 1
                miss_lat.append(rec["latency"])
        written.append(rep["cache_bytes"])
    lookups, n = hits + misses, len(reps)
    return {"cli.cache.hits": hits / n,
            "cli.cache.misses": misses / n,
            "cli.cache.lookups": lookups / n,
            "cli.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cli.cache.hit_p50_s": _median(hit_lat),
            "cli.cache.miss_p50_s": _median(miss_lat),
            "cli.cache.bytes_written": _median(written)}


def _rep_problems(rep: dict) -> list[str]:
    """Problems of a whole repetition, beyond its single requests."""
    problems = []
    if not rep["version_ok"]:
        problems.append("cli --version did not report the package version")
    problems += sorted({f"{r['command']}: {r['cache_problem']}"
                        for r in rep["requests"] if r["cache_problem"]})
    firsts = sum(1 for r in rep["requests"] if r["cached"] and not r["repeat"])
    if rep["cache_files"] != firsts:
        problems.append(f"{rep['cache_files']} cache files for "
                        f"{firsts} first requests to cached commands")
    return problems


def summarize(workload, setups, plain, traced):
    """End-to-end metrics, per-layer metrics, problems, attempted and
    failed request counts of one run."""
    problems = []
    for rep in plain + traced:
        problems += _rep_problems(rep)
    attempted = sum(len(rep["requests"]) for rep in plain + traced)
    failed = sum(1 for rep in plain + traced for r in rep["requests"]
                 if r["problem"] is not None)
    e2e = {"setup_s": _median(setups),
           "wall_s": _median([r["wall_s"] for r in plain]),
           "wall_ref": _median([r["wall_s"] * r["ref_rate"] for r in plain]),
           "ref_rate": _median([r["ref_rate"] for r in plain]),
           "peak_rss_mb": _median([r["peak_rss_kib"] for r in plain]) / 1024,
           "failed_frac": failed / attempted if attempted else 1.0}
    if workload == "table":
        e2e["par_wall_s"] = _median([r["par_wall_s"] for r in plain
                                     if "par_wall_s" in r])
    if workload == "session":
        lat = [r["latency"] for rep in plain for r in rep["requests"]]
        e2e["req_p50_s"] = tracing.percentile(lat, 50)
        e2e["req_p95_s"] = tracing.percentile(lat, 95)
        e2e["req_samples"] = len(lat)
    layers = {}
    if traced:
        keys = traced[0]["layers"]
        layers = {k: _median([rep["layers"][k] for rep in traced])
                  for k in keys}
        layers.update(_cache_metrics(traced))
        layers["cli.table.jobs_efficiency"] = (
            e2e["wall_s"] / (2 * e2e["par_wall_s"])
            if workload == "table" else 0.0)
        layers["trace.wall_s"] = _median([r["wall_s"] for r in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
    return e2e, layers, problems, attempted, failed


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "sl3jones", "cli.py")):
        print(f"no sl3jones source under {SRC}", file=sys.stderr)
        return 2
    bench = metrics.load_benchmark()
    if args.inject_fault and args.workload == "table":
        print("--inject-fault needs a workload with invariant outputs",
              file=sys.stderr)
        return 2
    start = _now()
    load_start = loadavg()
    work_parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="run-", dir=work_parent)
    try:
        runner = Runner(args.workload, args.seed, args.inject_fault,
                        work_root, start + RUN_LIMIT_S)
        warm = runner.spawn("setup")     # writes bytecode; not measured
        if warm is None:
            return 1
        setups = []
        for _ in range(SETUP_SPAWNS):
            res = runner.spawn("setup")
            if res is None:
                return 1
            setups.append(res["setup_s"])
        plain, traced, lost, longest = [], [], 0, 0.0
        t0 = _now()
        while (_now() - t0 + longest <= args.seconds or not plain
               or (args.trace and not traced)):
            mode = "traced" if args.trace and len(plain) > len(traced) else "plain"
            if mode == "plain" and args.workload == "table" and not len(plain) % 2:
                mode = "parallel"
            t_rep = _now()
            rep = runner.spawn(mode)
            longest = max(longest, _now() - t_rep)
            if rep is None:
                lost += 1
                if lost > 1 or _now() > runner.deadline:
                    break
                continue
            setups.append(rep["setup_s"])
            (traced if mode == "traced" else plain).append(rep)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if not os.listdir(work_parent):
            os.rmdir(work_parent)
    if not plain or (args.trace and not traced):
        print("no complete repetition", file=sys.stderr)
        return 1
    e2e, layers, problems, attempted, failed = summarize(
        args.workload, setups, plain, traced)
    if lost:
        # a repetition that did not finish fails every request it carried
        n = len(workloads.requests(args.workload, args.seed))
        attempted += lost * n
        failed += lost * n
        e2e["failed_frac"] = failed / attempted
        problems.append(f"{lost} repetition(s) did not finish")
    report = {
        "workload": args.workload, "seed": args.seed,
        "why": {w["name"]: w["why"]
                for w in bench["workloads"]}.get(args.workload),
        "seconds": args.seconds, "trace": args.trace,
        "repetitions": {"plain": len(plain), "traced": len(traced),
                        "setup": len(setups),
                        "wall_s": [r["wall_s"] for r in plain + traced],
                        "ref_rate": [r["ref_rate"] for r in plain],
                        "peak_rss_mb": [r["peak_rss_kib"] / 1024
                                        for r in plain + traced]},
        "environment": dict(environment(), loadavg_start=load_start,
                            loadavg_end=loadavg()),
        "end_to_end": e2e, "per_layer": layers, "problems": problems,
    }
    if args.workload == "session":
        report["session"] = {
            "requests": workloads.SESSION_REQUESTS,
            "repeat_share": workloads.SESSION_REPEAT_SHARE,
            "skew": workloads.SESSION_SKEW,
            "commands": workloads.SESSION_COMMANDS}
    units = metrics.units(bench)
    for name, value in list(e2e.items()) + list(layers.items()):
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"report": report}, sort_keys=True))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-fault", action="store_true")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
