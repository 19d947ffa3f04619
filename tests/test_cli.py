"""Command line behavior: output forms, caching, table determinism."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

import sl3jones.cli as cli
from sl3jones import schur3
from sl3jones.jones import (TorusKnotSpec, degree_report, jones_rosso,
                            jones_t2b)
from sl3jones.laurent import InexactDivisionError
from sl3jones.plethysm2 import psi2_closed
from sl3jones.sl3rep import qdim_closed, twist_monomial
from test_jones import counting_rows, refuse_everywhere


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- basic outputs -------------------------------------------------------


def test_jones_unknot_text(capsys):
    code, out, _ = run(capsys, "jones", "--b", "1", "--m1", "3", "--m2", "2")
    assert code == 0
    assert out == "1*q^0\n"


def test_jones_trefoil_text(capsys):
    code, out, _ = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2", "0",
                       "--var", "qinv")
    assert code == 0
    assert out == "1*q^2 + 1*q^4 - 1*q^6\n"


def test_jones_json_schema(capsys):
    code, out, _ = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2", "0",
                       "--var", "qinv", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "knot": {"a": 2, "b": 3},
        "color": [1, 0],
        "variable": "qinv",
        "scale": 1,
        "terms": [[2, "1"], [4, "1"], [-6 + 12, "-1"]],
    }
    # keys arrive in the documented order
    assert list(data) == ["knot", "color", "variable", "scale", "terms"]


def test_plethysm_trivial(capsys):
    code, out, _ = run(capsys, "plethysm", "--m1", "0", "--m2", "0")
    assert code == 0
    assert out == "+V_{0,0}\n"


def test_plethysm_adjoint(capsys):
    code, out, _ = run(capsys, "plethysm", "--m1", "1", "--m2", "1")
    assert code == 0
    assert out == "+V_{0,0}-V_{0,3}+V_{2,2}-V_{3,0}\n"


def test_plethysm_oracle_degree(capsys):
    code, out, _ = run(capsys, "plethysm", "--m1", "1", "--m2", "0",
                       "--a", "3")
    assert code == 0
    assert out.startswith("+") or out.startswith("-")


def test_qdim_text(capsys):
    code, out, _ = run(capsys, "qdim", "--m1", "1", "--m2", "0")
    assert code == 0
    assert out == "1*q^-1 + 1*q^0 + 1*q^1\n"


def test_twist_text(capsys):
    code, out, _ = run(capsys, "twist", "--m1", "1", "--m2", "1",
                       "--num", "-6")
    assert code == 0
    assert out == "1*q^-18\n"


def test_twist_fractional(capsys):
    code, out, _ = run(capsys, "twist", "--m1", "1", "--m2", "0")
    assert code == 0
    assert out == "1*q^(4/3)\n"


def test_twist_any_denominator(capsys):
    # theta(1,0)^(1/7) = q^(4/21): off the 1/6 lattice, still exact
    code, out, err = run(capsys, "twist", "--m1", "1", "--m2", "0",
                         "--den", "7")
    assert code == 0
    assert out == "1*q^(4/21)\n"
    assert err == ""


@pytest.mark.parametrize("argv, expect", [
    (("qdim", "--m1", "1", "--m2", "0"),
     {"scale": 1, "terms": [[-1, "1"], [0, "1"], [1, "1"]]}),
    (("qdim", "--m1", "0", "--m2", "0"), {"scale": 1, "terms": [[0, "1"]]}),
    (("twist", "--m1", "1", "--m2", "0"), {"scale": 3, "terms": [[4, "1"]]}),
    (("twist", "--m1", "1", "--m2", "1"), {"scale": 1, "terms": [[3, "1"]]}),
    (("twist", "--m1", "2", "--m2", "0", "--den", "2"),
     {"scale": 3, "terms": [[5, "1"]]}),
])
def test_qdim_twist_json_reduced(capsys, argv, expect):
    # the scale is the smallest lattice the value lives on
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == expect


def test_degrees_text(capsys):
    code, out, _ = run(capsys, "degrees", "--b", "3", "--m1", "1", "--m2",
                       "0", "--var", "qinv")
    assert code == 0
    assert out == ("min_deg 2\nmax_deg 6\nmin_coeff -1\nmax_coeff 1\n"
                   "min_coeff_exponents 6\nmax_coeff_exponents 2,4\n"
                   "leading -1\ntrailing 1\n")


def test_degrees_json(capsys):
    code, out, _ = run(capsys, "degrees", "--b", "3", "--m1", "1", "--m2",
                       "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["min_deg"] == -6 and data["max_deg"] == -2
    assert data["min_coeff_exponents"] == [-6]


@pytest.mark.parametrize("argv, value", [
    (("jones", "--b", "9", "--m1", "4", "--m2", "7"),
     lambda: jones_t2b(9, (4, 7))),
    (("jones", "--b", "9", "--m1", "4", "--m2", "7", "--var", "qinv"),
     lambda: jones_t2b(9, (4, 7)).mirrored()),
    (("jones", "--a", "3", "--b", "4", "--m1", "2", "--m2", "1"),
     lambda: jones_rosso(TorusKnotSpec(3, 4), (2, 1))),
    (("jones", "--a", "3", "--b", "4", "--m1", "2", "--m2", "1", "--var",
      "qinv"), lambda: jones_rosso(TorusKnotSpec(3, 4), (2, 1)).mirrored()),
    (("plethysm", "--m1", "3", "--m2", "5"), lambda: psi2_closed((3, 5))),
    (("degrees", "--b", "5", "--m1", "3", "--m2", "2"),
     lambda: degree_report(jones_t2b(5, (3, 2)))),
    (("qdim", "--m1", "3", "--m2", "4"), lambda: qdim_closed((3, 4))),
    (("twist", "--m1", "2", "--m2", "3", "--num", "5", "--den", "7"),
     lambda: twist_monomial((2, 3), 5, 7)),
])
def test_json_output_is_compact_dump_of_the_value(capsys, argv, value):
    # _writer picks each value's own write_json; it must be byte for byte
    # the compact json.dumps of the value's dict form
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(value().to_json_dict(),
                             separators=(",", ":")) + "\n"


# -- exit codes ----------------------------------------------------------


def test_usage_error_even_b(capsys):
    code, _, err = run(capsys, "jones", "--b", "4", "--m1", "1", "--m2", "0")
    assert code == 2
    assert "usage error" in err


def test_usage_error_negative_weight(capsys):
    code, _, err = run(capsys, "jones", "--b", "3", "--m1", "-1", "--m2", "0")
    assert code == 2


def test_usage_error_link_parameters(capsys):
    code, _, err = run(capsys, "jones", "--a", "4", "--b", "2", "--m1", "0",
                       "--m2", "0")
    assert code == 2
    assert "link" in err


def test_limit_bounds_parameters(capsys):
    code, _, err = run(capsys, "jones", "--b", "3", "--m1", "101", "--m2",
                       "0")
    assert code == 2
    assert "limit" in err
    code, _, err = run(capsys, "table", "--b", "3", "--max", "101")
    assert code == 2
    code, _, _ = run(capsys, "jones", "--b", "3", "--m1", "6", "--m2", "0",
                     "--limit", "5")
    assert code == 2
    code, _, _ = run(capsys, "jones", "--b", "3", "--m1", "5", "--m2", "0",
                     "--limit", "5")
    assert code == 0


@pytest.mark.parametrize("argv, bounds", [
    ("jones --a 101 --b 2 --m1 1 --m2 0", "1..100"),
    ("degrees --a 0 --b 1 --m1 1 --m2 0", "1..100"),
    ("table --a 101 --b 2 --max 1", "1..100"),
    ("plethysm --a 7 --m1 1 --m2 0 --limit 6", "1..6"),
])
def test_a_outside_the_limit_is_a_usage_error(capsys, monkeypatch, argv,
                                              bounds):
    # the a >= 3 numerator spans the exponents of the Adams images, which
    # grow with a, so --a is refused before any work, as the colors are
    def no_work(*args):
        raise AssertionError("the request was started")

    monkeypatch.setattr(cli, "_with_cache", no_work)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    a = argv.split()[2]
    assert err == f"usage error: --a {a} lies outside {bounds} (see --limit)\n"


def test_a_up_to_the_limit_is_computed(capsys, monkeypatch):
    # T(101, 2) is T(2, 101)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    got = run(capsys, "jones", "--a", "101", "--b", "2", "--m1", "1",
              "--m2", "0", "--limit", "101")
    want = run(capsys, "jones", "--b", "101", "--m1", "1", "--m2", "0")
    assert got == want and got[0] == 0


def test_negative_limit_is_its_own_usage_error(capsys):
    code, out, err = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2",
                         "1", "--limit", "-5")
    assert code == 2
    assert out == ""
    assert err == "usage error: --limit -5 is negative\n"


def test_selfcheck_max_out_of_range(capsys):
    code, out, err = run(capsys, "selfcheck", "--max", "-1")
    assert code == 2
    assert out == ""
    assert "usage error" in err
    # selfcheck has no --limit, so its --max lies in 0..100
    args = cli._build_parser().parse_args(["selfcheck", "--max", "101"])
    with pytest.raises(ValueError, match="0..100"):
        cli._enforce_limit(args)


def test_usage_error_twist_bad_denominator(capsys):
    code, out, err = run(capsys, "twist", "--m1", "1", "--m2", "0",
                         "--den", "0")
    assert code == 2
    assert out == ""
    assert "usage error" in err


# Each numerator list is longer than CPython will allocate: n > sys.maxsize,
# or 8n > sys.maxsize, which list repetition refuses before any malloc.
# A size below that, such as b = 10**11 + 1, would really try to allocate.
@pytest.mark.parametrize("argv, detail", [
    ("jones --b 1000000000000001 --m1 40 --m2 40", "out of memory"),
    ("jones --a 2000000000000000001 --b 1 --m1 1 --m2 0"
     " --limit 2000000000000000001", "out of memory"),
    ("jones --b 1000000000000000001 --m1 40 --m2 40", "index-sized integer"),
])
def test_oversized_request_is_a_usage_error(capsys, monkeypatch, argv,
                                            detail):
    # MemoryError, and OverflowError although it is an ArithmeticError,
    # are the request's size, not an internal fault
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("usage error: request too large (")
    assert detail in err and "Traceback" not in err


def test_closed_stdout_exits_quietly():
    # more output than a pipe buffer holds (64 KiB), so the writer is
    # still writing when the reader goes away, as with `| head -c 10`
    proc = subprocess.Popen(
        [sys.executable, "-m", "sl3jones.cli", "jones", "--b", "3",
         "--m1", "40", "--m2", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.stdout.read(10) == b"1*q^-10000"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_import_loads_no_heavy_stdlib_module():
    # every CLI call is a fresh process that pays for its imports; the
    # first four (dataclasses pulls in inspect, fractions pulls in
    # decimal) cost about half of the package's import time and are
    # needed by no request, and hashlib and json serve --cache only
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys; bare = set(sys.modules); import sl3jones.cli; "
             "sl3jones.cli._build_parser(); "
             "print(' '.join(sorted(set(sys.modules) - bare)))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    added = set(proc.stdout.split())
    assert "sl3jones.cli" in added and "argparse" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal",
                        "hashlib", "json"}


def test_usage_error_out_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2",
                         "0", "--out", str(target))
    assert code == 2
    assert "usage error" in err and "--out" in err
    assert not target.exists()


def test_argparse_exit_on_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_reused_across_calls(capsys):
    # main builds the parser once per process; every call must still
    # behave as in a fresh process
    calls = [["jones", "--b", "3", "--m1", "1", "--m2", "0"],
             ["table", "--b", "3", "--max", "1", "--full"],
             ["frobnicate"],
             ["--version"],
             ["jones", "--b", "4", "--m1", "1", "--m2", "0"],
             ["qdim", "--m1", "2", "--m2", "1", "--format", "json"],
             ["jones", "--b", "3", "--m1", "1", "--m2", "0"]]

    def in_process(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "sl3jones.cli", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        return proc.returncode, proc.stdout, proc.stderr

    got = [in_process(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    assert [g[0] for g in got] == [0, 0, 2, 0, 2, 0, 0]
    assert got[-1] == got[0]
    for argv, g in zip(calls, got):
        assert g == fresh(argv), argv


def test_selfcheck_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_selfcheck_properties",
                        lambda mx: [("rigged", lambda: False)])
    code, out, _ = run(capsys, "selfcheck", "--max", "2")
    assert code == 3
    assert "FAIL rigged" in out


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck", "--max", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 13
    assert all(l.startswith("PASS") for l in lines)
    assert "PASS table-chain-equivalence" in lines
    assert "PASS color-swap-symmetry" in lines
    assert "PASS oracle-route-equivalence" in lines


# -- table ----------------------------------------------------------------


def test_table_header_and_rows(capsys):
    code, out, _ = run(capsys, "table", "--b", "3", "--max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m1,m2,min_deg,max_deg,min_coeff,max_coeff,term_count"
    assert len(lines) == 1 + 9
    assert lines[1] == "0,0,0,0,1,1,1"
    # rows arrive in index order
    firsts = [tuple(map(int, l.split(",")[:2])) for l in lines[1:]]
    assert firsts == sorted(firsts)


def test_table_full_column(capsys):
    code, out, _ = run(capsys, "table", "--b", "3", "--max", "1", "--full")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",polynomial")
    assert lines[1].split(",", 7)[-1] == "1*q^0"


def test_table_parallel_matches_serial(tmp_path, capsys):
    a = tmp_path / "serial.csv"
    b = tmp_path / "par.csv"
    assert cli.main(["table", "--b", "3", "--max", "3", "--out", str(a)]) == 0
    assert cli.main(["table", "--b", "3", "--max", "3", "--jobs", "2",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_worker_count_caps_jobs(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._worker_count(1, 441) == 1
    assert cli._worker_count(2, 441) == 2
    assert cli._worker_count(64, 441) == 4
    assert cli._worker_count(64, 3) == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(64, 441) == 1


@pytest.mark.parametrize("opts", [
    ("--b", "3", "--max", "4"),
    ("--b", "5", "--max", "3", "--full"),
    ("--b", "3", "--max", "4", "--var", "qinv"),
    ("--a", "3", "--b", "4", "--max", "3", "--full"),
    ("--b", "7", "--max", "4", "--jobs", "2"),
    ("--b", "51", "--max", "6"),
    ("--b", "3", "--max", "5", "--var", "qinv", "--full", "--jobs", "2"),
])
def test_table_matches_full_square(capsys, opts):
    # the table computes m1 <= m2 along diagonals and mirrors the rest;
    # the literal assembly computes every cell on its own, by the public
    # per-cell routes
    args = cli._build_parser().parse_args(["table", *opts])
    rows = []
    for m1 in range(args.max + 1):
        for m2 in range(args.max + 1):
            if args.a == 2:
                res = jones_t2b(args.b, (m1, m2))
            else:
                res = jones_rosso(TorusKnotSpec(args.a, args.b), (m1, m2))
            if args.var == "qinv":
                res = res.mirrored()
            rep = degree_report(res)
            row = (f"{m1},{m2},{rep.min_deg},{rep.max_deg},{rep.min_coeff},"
                   f"{rep.max_coeff},{res.value.term_count}")
            if args.full:
                row += f",{res.value.to_text()}"
            rows.append(row)
    code, out, _ = run(capsys, "table", *opts)
    assert code == 0
    assert out.splitlines()[1:] == rows


def test_table_adds_each_row_summand_once(capsys, monkeypatch):
    # for a = 2 the numerator of each diagonal grows by one plethysm row
    # per cell: every row summand goes through the numerator once, and no
    # cell rebuilds its plethysm; the self-dual rows (p, p) of the d = 0
    # diagonal are folded, their centre and first arm only
    added = counting_rows(monkeypatch)
    refuse_everywhere(monkeypatch, psi2_closed,
                      "a table cell rebuilt its plethysm")
    code, _, _ = run(capsys, "table", "--b", "3", "--max", "6")
    assert code == 0
    cells = [(m1, m2) for m2 in range(7) for m1 in range(m2 + 1)]
    assert len(added) == len(cells)
    assert sum(added) == sum(m1 + 1 if m1 == m2 else m1 + m2 + 1
                             for m1, m2 in cells)


def test_table_var_changes_signs(capsys):
    _, out_q, _ = run(capsys, "table", "--b", "3", "--max", "1")
    _, out_qi, _ = run(capsys, "table", "--b", "3", "--max", "1", "--var",
                       "qinv")
    row_q = out_q.splitlines()[2].split(",")
    row_qi = out_qi.splitlines()[2].split(",")
    assert int(row_q[2]) == -int(row_qi[3])
    assert int(row_q[3]) == -int(row_qi[2])


# -- cache ----------------------------------------------------------------


def test_cache_store_and_hit(tmp_path, capsys, monkeypatch):
    cdir = tmp_path / "cache"
    args = ["jones", "--b", "3", "--m1", "2", "--m2", "1",
            "--cache", str(cdir)]
    code, first, _ = run(capsys, *args)
    assert code == 0
    files = list(cdir.iterdir())
    assert len(files) == 1
    # a hit must reproduce the output without recomputing: break the
    # computation behind the jones value function and rely on the cache
    monkeypatch.setattr(cli, "_compute_result",
                        lambda *a: (_ for _ in ()).throw(RuntimeError))
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert second == first
    # the broken computation is on the path of an uncached request
    with pytest.raises(RuntimeError):
        cli.main(args[:-2])


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cdir = tmp_path / "envcache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cdir))
    code, _, _ = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2", "1")
    assert code == 0
    assert len(list(cdir.iterdir())) == 1


@pytest.mark.parametrize("entry", [
    lambda key: "{broken json",
    lambda key: "[1,2]",
    lambda key: "null",
    lambda key: '"x"',
    lambda key: json.dumps({"key": key, "output": 5}),
], ids=["broken-json", "list", "null", "string", "non-string-output"])
def test_cache_corruption_recovers(tmp_path, capsys, entry):
    cdir = tmp_path / "cache"
    args = ["degrees", "--b", "3", "--m1", "2", "--m2", "0",
            "--cache", str(cdir)]
    code, first, _ = run(capsys, *args)
    (path,) = cdir.iterdir()
    path.write_text(entry(json.loads(path.read_text())["key"]))
    code, second, err = run(capsys, *args)
    assert code == 0
    assert second == first
    assert "corrupt" in err
    # the entry was rewritten and works again
    code, third, err = run(capsys, *args)
    assert third == first and err == ""


def test_cache_key_includes_version(tmp_path, capsys, monkeypatch):
    cdir = tmp_path / "cache"
    args = ["jones", "--b", "3", "--m1", "1", "--m2", "0",
            "--cache", str(cdir)]
    run(capsys, *args)
    assert len(list(cdir.iterdir())) == 1
    monkeypatch.setattr(cli, "__version__", "0.0.0-test")
    run(capsys, *args)
    assert len(list(cdir.iterdir())) == 2


def test_cache_key_mismatch_recomputes(tmp_path, capsys):
    cdir = tmp_path / "cache"
    args = ["jones", "--b", "3", "--m1", "1", "--m2", "0",
            "--cache", str(cdir)]
    code, first, _ = run(capsys, *args)
    (path,) = cdir.iterdir()
    path.write_text(json.dumps({"key": "something-else", "output": "bogus"}))
    code, second, err = run(capsys, *args)
    assert code == 0
    assert second == first
    assert "corrupt" in err


def test_cache_store_failure_warns(tmp_path, capsys):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, out, err = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2",
                         "0", "--cache", str(blocker))
    assert code == 0
    assert out == "-1*q^-6 + 1*q^-4 + 1*q^-2\n"
    assert "warning" in err
    assert blocker.read_text() == ""


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2", "0",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "-1*q^-6 + 1*q^-4 + 1*q^-2"


def test_out_write_failure_is_a_usage_error(tmp_path, capsys, monkeypatch):
    args = ["jones", "--b", "3", "--m1", "1", "--m2", "0", "--out"]
    # a path that cannot be opened for writing
    code, out, err = run(capsys, *args, str(tmp_path))
    assert code == 2 and out == ""
    assert "cannot write --out" in err

    # a file that opens but whose write fails, as on a full disk
    class FullFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **k: FullFile(),
                        raising=False)
    code, out, err = run(capsys, *args, str(tmp_path / "out.txt"))
    assert code == 2 and out == ""
    assert "cannot write --out" in err


def test_cache_entry_vanishing_is_a_silent_miss(tmp_path, capsys,
                                                 monkeypatch):
    # an entry removed between an existence check and the open is no
    # corruption: the lookup opens the file directly
    monkeypatch.setattr(cli.os.path, "exists", lambda path: True)
    assert cli._cache_lookup(str(tmp_path), "some-key") is None
    assert capsys.readouterr().err == ""


def test_cache_unreadable_entry_warns(tmp_path, capsys):
    cdir = tmp_path / "cache"
    args = ["jones", "--b", "3", "--m1", "1", "--m2", "0",
            "--cache", str(cdir)]
    code, first, _ = run(capsys, *args)
    (path,) = cdir.iterdir()
    path.unlink()
    path.mkdir()  # a read failure other than a missing file
    code, second, err = run(capsys, *args)
    assert code == 0
    assert second == first
    assert "corrupt" in err


def test_cache_key_ignores_jobs_out_and_limit(tmp_path, capsys):
    cdir = tmp_path / "cache"
    base = ["table", "--b", "3", "--max", "3", "--cache", str(cdir)]
    code, serial, _ = run(capsys, *base)
    assert code == 0
    code, par, _ = run(capsys, *base, "--jobs", "2")
    assert code == 0 and par == serial
    target = tmp_path / "t.csv"
    assert run(capsys, *base, "--out", str(target))[0] == 0
    assert target.read_text(encoding="utf-8") == serial
    assert run(capsys, *base, "--limit", "50")[0] == 0
    assert len(list(cdir.iterdir())) == 1


@pytest.mark.parametrize("extra", [("--var", "qinv"), ("--full",),
                                   ("--a", "3", "--b", "4")])
def test_cache_key_output_options_add_one_entry(tmp_path, capsys, extra):
    cdir = tmp_path / "cache"
    base = ["table", "--b", "3", "--max", "2", "--cache", str(cdir)]
    code, plain, _ = run(capsys, *base)
    assert code == 0
    code, other, _ = run(capsys, *base, *extra)
    assert code == 0 and other != plain
    assert len(list(cdir.iterdir())) == 2


def test_cache_key_includes_format(tmp_path, capsys):
    cdir = tmp_path / "cache"
    args = ["jones", "--b", "3", "--m1", "1", "--m2", "0",
            "--cache", str(cdir)]
    _, text, _ = run(capsys, *args)
    _, as_json, _ = run(capsys, *args, "--format", "json")
    assert text != as_json
    assert len(list(cdir.iterdir())) == 2
    assert run(capsys, *args)[1] == text
    assert run(capsys, *args, "--format", "json")[1] == as_json


@pytest.mark.parametrize("argv", [("qdim", "--m1", "2", "--m2", "1"),
                                  ("twist", "--m1", "1", "--m2", "1")])
def test_qdim_twist_never_cached(tmp_path, capsys, monkeypatch, argv):
    cdir = tmp_path / "envcache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cdir))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert not cdir.exists()


# -- streamed output and the cache entry ----------------------------------

BIG_JONES = ("jones", "--b", "3", "--m1", "40", "--m2", "40")  # 9,157 terms


@pytest.mark.parametrize("argv", [BIG_JONES,
                                  BIG_JONES + ("--format", "json"),
                                  ("table", "--b", "3", "--max", "3")])
def test_cache_entry_is_the_json_dump_of_its_dict(tmp_path, capsys, argv):
    # the entry is teed chunk by chunk, yet its bytes are json.dump's of
    # {"key": ..., "output": ...}, so entries of earlier writers still hit
    cdir = tmp_path / "cache"
    code, out, _ = run(capsys, *argv, "--cache", str(cdir))
    assert code == 0
    (path,) = cdir.iterdir()
    raw = path.read_text(encoding="utf-8")
    entry = json.loads(raw)
    assert raw == json.dumps(entry)
    assert list(entry) == ["key", "output"]
    assert entry["output"].rstrip("\n") + "\n" == out
    assert run(capsys, *argv, "--cache", str(cdir)) == (0, out, "")


def test_cache_write_failing_mid_output_warns_and_stores_nothing(
        tmp_path, capsys, monkeypatch):
    argv = ("table", "--b", "3", "--max", "3")  # a header and 16 row chunks
    _, expect, _ = run(capsys, *argv)
    real_fdopen = os.fdopen

    class FillsUp:
        """The entry's file, full after its head and first chunk."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.f.write(text)

        def close(self):
            self.f.close()

    monkeypatch.setattr(cli.os, "fdopen",
                        lambda *a, **k: FillsUp(real_fdopen(*a, **k)))
    cdir = tmp_path / "cache"
    code, out, err = run(capsys, *argv, "--cache", str(cdir))
    assert code == 0
    assert out == expect
    assert err.count("warning") == 1 and "cache store" in err
    assert list(cdir.iterdir()) == []


def test_closed_stdout_on_a_miss_stores_no_entry(tmp_path):
    # the test_closed_stdout_exits_quietly setup with --cache: the output
    # stops early, so the entry being teed would be partial
    cdir = tmp_path / "cache"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sl3jones.cli", *BIG_JONES,
         "--cache", str(cdir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.stdout.read(10) == b"1*q^-10000"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""
    assert list(cdir.iterdir()) == []


def test_failed_out_write_on_a_miss_stores_no_entry(tmp_path, capsys,
                                                    monkeypatch):
    class FullFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **k: FullFile(),
                        raising=False)
    cdir = tmp_path / "cache"
    code, out, err = run(capsys, *BIG_JONES, "--cache", str(cdir),
                         "--out", str(tmp_path / "out.txt"))
    assert code == 2 and out == ""
    assert "cannot write --out" in err
    assert list(cdir.iterdir()) == []


def test_a_broken_character_is_an_internal_error(capsys, monkeypatch,
                                                cold_schur3_memos):
    # NotSymmetricError is a ValueError, yet a character that fails the
    # symmetry check is a fault of the package, not of the request
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    real = schur3.schur

    def bumped(lam):  # one coefficient too many: no longer symmetric
        out = real(lam)
        out[min(out)] += 1
        return out

    monkeypatch.setattr(schur3, "schur", bumped)
    code, out, err = run(capsys, "plethysm", "--a", "3", "--m1", "2",
                         "--m2", "1")
    assert code == 3 and out == ""
    assert err == ("internal consistency error: "
                   "input is not a symmetric polynomial\n")
    code, out, err = run(capsys, "plethysm", "--a", "0", "--m1", "2",
                         "--m2", "1")
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")


def test_inexact_division_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    # the value is computed before --out is opened or an entry is begun
    def inexact(b, color):
        raise InexactDivisionError("nonzero remainder")

    monkeypatch.setattr(cli, "jones_t2b", inexact)
    target, cdir = tmp_path / "out.txt", tmp_path / "cache"
    code, out, err = run(capsys, "jones", "--b", "3", "--m1", "1", "--m2",
                         "0", "--out", str(target), "--cache", str(cdir))
    assert code == 3 and out == ""
    assert "internal consistency error" in err
    assert not target.exists()
    assert not cdir.exists()
