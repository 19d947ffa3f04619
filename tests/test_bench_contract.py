"""The names the benchmark harness looks up in the package must resolve.

bench/tracing.py rebinds package functions and methods by name, and
bench/workloads.py sends library calls by function name and CLI requests
by argv.  A renamed or deleted name would otherwise show only in a traced
benchmark run.  The two harness modules are loaded from their files and
never modified.  Every request with a digest in bench/reference.json,
which is read and never written, must also reproduce it: the big
requests' --out files, every library call of the oracle workload and
the stdout of every distinct session request.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import sl3jones
from sl3jones import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


tracing = _load("tracing")
workloads = _load("workloads")
REQUESTS = workloads.all_reference_requests()
DIGESTS = json.loads((BENCH / "reference.json").read_text())["digests"]


@pytest.mark.parametrize("modname, attr",
                         [(m, a) for m, a, _, _ in tracing.FUNCTIONS])
def test_traced_function_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname, clsname, meth",
                         [(m, c, f) for m, c, f, _, _ in tracing.METHODS])
def test_traced_method_is_defined_on_its_class(modname, clsname, meth):
    cls = getattr(importlib.import_module(modname), clsname)
    assert callable(vars(cls).get(meth))


@pytest.mark.parametrize("fn", sorted({r.fn for r in REQUESTS
                                       if r.kind == "lib"}))
def test_library_request_resolves(fn):
    assert callable(getattr(sl3jones, fn))


def test_cli_requests_parse():
    cli_reqs = [r for r in REQUESTS if r.kind == "cli"]
    assert cli_reqs
    for r in cli_reqs:
        argv = list(r.argv) + (["--out", "o"] if r.out else []) + (
            ["--cache", "c"] if r.cache else [])
        cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("req", workloads.LARGE + (workloads.TABLE_SERIAL,
                                                   workloads.TABLE_PARALLEL),
                         ids=lambda r: r.key)
def test_big_output_matches_reference_digest(req, tmp_path, monkeypatch):
    # the requests that render the most terms, and the table's process
    # pool; any changed byte of an output otherwise shows only in a
    # benchmark run
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    out = tmp_path / "out"
    assert cli.main(list(req.argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[req.key]


def test_every_digest_has_a_request():
    assert sorted(r.key for r in REQUESTS) == sorted(DIGESTS)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _render_lib(req) -> str:
    """A library request's output text, rendered as bench/execute.py does."""
    if req.fn == "psi_oracle":
        m1, m2, a = req.args
        return sl3jones.psi_oracle((m1, m2), a).to_text()
    if req.fn == "jones_rosso":
        a, b, m1, m2 = req.args
        return sl3jones.jones_rosso(sl3jones.TorusKnotSpec(a, b),
                                    (m1, m2)).value.to_text()
    return str(getattr(sl3jones, req.fn)(*req.args))


@pytest.mark.parametrize("fn", ["psi_oracle", "jones_rosso",
                                "verify_lemma_LR",
                                "verify_lemma_psi2_recurrence"])
def test_oracle_outputs_match_reference_digests(fn):
    reqs = [r for r in workloads.ORACLE if r.fn == fn]
    assert reqs
    wrong = [r.key for r in reqs if _digest(_render_lib(r)) != DIGESTS[r.key]]
    assert not wrong


def _cli_stdout(argv) -> str:
    """A CLI request's stdout, captured as bench/execute.py captures it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    assert code == 0, (argv, stderr.getvalue())
    return stdout.getvalue()


def test_session_outputs_match_reference_digests(monkeypatch):
    # with no --cache: a cached request's output is the computed one, and
    # the degrees command is checked nowhere else against the reference
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    reqs = workloads.session_catalog()
    assert reqs and not any(r.out for r in reqs)
    wrong = [r.key for r in reqs
             if _digest(_cli_stdout(r.argv)) != DIGESTS[r.key]]
    assert not wrong
