"""Tests of the benchmark harness: arithmetic, schema and checks only.

No test asserts a timing value.  Run with: python3 -m pytest -q bench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import execute  # noqa: E402
import metrics  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- self-time arithmetic -------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [3, 6] overlaps 1;
    # 3: grandchild of 1 [2, 3]; 4: child [9, 12] sticks out of the root
    starts = [0.0, 1.0, 3.0, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    got = tracing.self_times(starts, ends, parents)
    # root: 10 minus the union [1, 6] and [9, 10] = 10 - 6
    assert got == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([1.5], [4.0], [-1]) == [2.5]


def test_tracer_records_parents_and_counters():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1,
                    lambda t, args, res: t.add("n", res))
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    tr.request = 7
    assert outer(1) == 4
    assert tr.names == ["outer", "inner", "trace.count"]
    assert tr.parents == [-1, 0, 0]
    assert tr.rids == [7, 7, 7]
    assert tr.counters == {"n": 2}
    assert all(s <= e for s, e in zip(tr.starts, tr.ends))


def test_percentile_and_layer_metrics_arithmetic():
    assert tracing.percentile([], 95) == 0.0
    assert tracing.percentile([3.0], 50) == 3.0
    assert tracing.percentile([1.0, 2.0, 3.0], 50) == 2.0
    trace = {"names": ["jones.jones_t2b", "laurent.div_exact",
                       "jones.jones_t2b"],
             "starts": [0.0, 1.0, 5.0], "ends": [4.0, 3.0, 6.0],
             "parents": [-1, 0, -1], "rids": [0, 0, 1],
             "counters": {"laurent.div_exact.ops": 12}}
    got = tracing.layer_metrics(trace)
    assert got["jones.jones_t2b.calls"] == 2
    assert got["jones.jones_t2b.self_s"] == pytest.approx(3.0)
    assert got["laurent.div_exact.self_s"] == pytest.approx(2.0)
    assert got["laurent.div_exact.ops"] == 12
    assert got["schur3.mul_sym.self_s"] == 0.0


# -- metric schema ----------------------------------------------------------


def _listed():
    b = _benchmark_json()
    return b["end_to_end"], b["per_layer"]


def test_metric_names_and_units_follow_the_schema():
    e2e, per_layer = _listed()
    listed = [m["name"] for m in e2e + per_layer]
    reported = (list(metrics.REPORTED_END_TO_END)
                + list(metrics.REPORTED_PER_LAYER) + list(metrics.TRACE_UNITS))
    assert len(set(listed + reported)) == len(listed) + len(reported)
    for name, unit in metrics.units(_benchmark_json()).items():
        assert metrics.NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit
    for m in e2e + per_layer:
        assert m["better"] in ("lower", "higher")
    for name in workloads.NAMES:
        assert metrics.NAME_RE.match(name)


def test_every_per_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    e2e, per_layer = _listed()
    applies = {m["name"]: workloads.NAMES for m in e2e}
    applies.update({name: wl for name, (_, wl)
                    in metrics.REPORTED_END_TO_END.items()})
    names = [m["name"] for m in per_layer] + list(metrics.REPORTED_PER_LAYER)
    assert set(names) == set(metrics.MAPS_TO)
    for name in names:
        assert metrics.MAPS_TO[name], name
        for metric, workload in metrics.MAPS_TO[name]:
            assert workload in applies[metric], (name, metric, workload)


def test_benchmark_json_lists_the_workloads_the_harness_builds():
    b = _benchmark_json()
    assert [w["name"] for w in b["workloads"]] == list(workloads.NAMES)
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25
               for m in b["end_to_end"])


def _rep(wall, requests, **extra):
    return dict({"setup_s": 0.1, "version_ok": True, "wall_s": wall,
                 "ref_rate": 1000.0,
                 "peak_rss_kib": 2048, "requests": requests,
                 "cache_files": 1, "cache_bytes": 9}, **extra)


def _rec(repeat, hit, cache_problem=None):
    return {"command": "jones", "latency": 0.5, "cached": True,
            "repeat": repeat, "cache_hit": hit,
            "cache_problem": cache_problem, "problem": None}


def test_speed_meter_samples_and_keeps_its_samples_off_the_clock():
    meter = pace.SpeedMeter()
    with meter:
        t0 = meter.clock()
        meter._sample()
        inside = meter.clock() - t0
    assert len(meter.rates) >= 3
    assert meter.rate() == pytest.approx(sum(meter.rates) / len(meter.rates))
    assert meter.spent == pytest.approx(sum(1 / r for r in meter.rates))
    assert inside >= 0


def test_summary_reports_every_metric_with_a_unit():
    reqs = [_rec(False, False), _rec(True, True)]
    layers = {k: 1.0 for k in tracing.layer_metrics(
        {"names": [], "starts": [], "ends": [], "parents": [], "rids": [],
         "counters": {}})}
    plain = [_rep(2.0, reqs, par_wall_s=1.0)]
    traced = [_rep(3.0, reqs, layers=layers)]
    e2e, per_layer, problems, attempted, failed = run.summarize(
        "table", [0.1, 0.3], plain, traced)
    e2e_listed, per_layer_listed = _listed()
    assert {m["name"] for m in e2e_listed} <= set(e2e)
    assert {m["name"] for m in per_layer_listed} <= set(per_layer)
    assert set(e2e) | set(per_layer) <= set(metrics.units(_benchmark_json()))
    assert e2e["peak_rss_mb"] == 2.0
    assert e2e["wall_ref"] == 2000.0
    assert per_layer["cli.table.jobs_efficiency"] == 1.0
    assert per_layer["trace.overhead_s"] == 1.0
    assert per_layer["cli.cache.hit_ratio"] == 0.5
    assert (problems, attempted, failed) == ([], 4, 0)


def test_summary_flags_a_cache_file_count_that_first_requests_do_not_explain():
    plain = [_rep(1.0, [_rec(False, False)], cache_files=2)]
    _, _, problems, _, _ = run.summarize("session", [0.1], plain, [])
    assert problems == ["2 cache files for 1 first requests to cached commands"]


def test_summary_flags_a_cache_that_was_never_written():
    plain = [_rep(1.0, [_rec(False, True, "a first request wrote no cache "
                                           "entry")], cache_files=0)]
    _, _, problems, _, _ = run.summarize("session", [0.1], plain, [])
    assert problems == ["jones: a first request wrote no cache entry",
                        "0 cache files for 1 first requests to cached commands"]


# -- cache observation ---------------------------------------------------------


def test_cache_outcome_tells_hits_from_misses():
    entry = {"a.json": (1, 10)}
    assert execute.cache_outcome(False, {}, entry) == (False, None)
    assert execute.cache_outcome(True, entry, dict(entry)) == (True, None)


def test_cache_outcome_flags_a_repeat_that_rewrote_its_entry():
    hit, problem = execute.cache_outcome(True, {"a.json": (1, 10)},
                                         {"a.json": (2, 11)})
    assert not hit and "rewrote" in problem


def test_cache_outcome_flags_a_first_request_that_wrote_nothing():
    assert execute.cache_outcome(False, {}, {}) == (
        True, "a first request wrote no cache entry")


def test_cache_state_of_a_missing_directory_is_empty(tmp_path):
    assert execute.cache_state(str(tmp_path / "absent")) == {}
    (tmp_path / "x.json").write_text("{}")
    before = execute.cache_state(str(tmp_path))
    (tmp_path / "y.json").write_text("{}")
    os.replace(tmp_path / "y.json", tmp_path / "x.json")
    after = execute.cache_state(str(tmp_path))
    assert set(after) == {"x.json"} and after != before


# -- session generator --------------------------------------------------------


def test_session_seed_determines_the_request_list():
    a = workloads.session_requests(3)
    assert a == workloads.session_requests(3)
    assert a != workloads.session_requests(4)


def test_session_shape_matches_its_recorded_parameters():
    reqs = workloads.session_requests(11)
    assert len(reqs) == workloads.SESSION_REQUESTS >= 200
    repeats = [r for r in reqs if r.repeat]
    assert len(repeats) == round(workloads.SESSION_REQUESTS
                                 * workloads.SESSION_REPEAT_SHARE)
    firsts = [r.key for r in reqs if not r.repeat]
    assert len(firsts) == len(set(firsts))
    seen = set()
    for r in reqs:
        assert (r.key in seen) == r.repeat
        seen.add(r.key)
        args = dict(zip(r.argv[1::2], r.argv[2::2]))
        assert 0 <= int(args["--m1"]) <= 30 and 0 <= int(args["--m2"]) <= 30
        if "--b" in args:
            assert int(args["--b"]) % 2 == 1 and int(args["--b"]) <= 51
        assert r.cache == (r.command in workloads.CACHED_COMMANDS)
        assert r.command in workloads.SESSION_COMMANDS


def test_every_request_has_a_reference_digest():
    ref = verify.load_reference()
    keys = {r.key for r in workloads.all_reference_requests()}
    assert keys == set(ref)


# -- output checks -------------------------------------------------------------


TREFOIL = b"-1*q^-6 + 1*q^-4 + 1*q^-2"


def test_invariant_properties_are_read_from_the_output():
    assert verify.invariant_problem(TREFOIL, "text") is None
    assert "scale" in verify.invariant_problem(b"1*q^(1/2)", "text")
    good = b'{"scale":1,"terms":[[-6,"-1"],[-4,"1"],[-2,"1"]]}'
    assert verify.invariant_problem(good, "json") is None
    assert "scale" in verify.invariant_problem(
        good.replace(b'"scale":1', b'"scale":6'), "json")


@pytest.mark.parametrize("data,fmt", [
    (TREFOIL, "text"),
    (b'{"scale":1,"terms":[[-6,"-1"],[-4,"1"],[-2,"1"]]}', "json")])
def test_one_changed_coefficient_is_caught(data, fmt):
    ref = {"k": verify.digest(data)}
    assert verify.check("k", data, fmt, ref) is None
    bad = verify.corrupt_one_coefficient(data, fmt)
    assert bad != data
    assert verify.check("k", bad, fmt, ref) is not None
    assert "q = 1" in verify.invariant_problem(bad, fmt)


def test_injected_fault_is_reported_by_a_real_run():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
         "--inject-fault"], capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == 1 and last["attempted"] == len(workloads.ORACLE)


def test_run_without_the_package_source_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
