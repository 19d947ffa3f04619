"""Command line front end.

Subcommands: jones, plethysm, qdim, twist, degrees, table, selfcheck.
Every value command takes one path.  Its subparser's func computes the
value, and _writer picks the value's chunk writer for --format (the
table is its own CSV writer).  _with_cache serves a cached output or
tees the chunks of a fresh one into the cache, and _emit opens --out,
or takes stdout, only once the value is computed and passes each chunk
straight to it.  So a computed output is never held whole: memory is
bounded by the value and one chunk.  A failed computation leaves no
--out file, a failed --out write leaves what it wrote (--out may be a
device), and a cache hit loads the whole stored output.
Output is deterministic for a given parameter set, so jones, plethysm,
degrees and table cache it content-addressed by the package version plus
every parsed option that can change it.  A cache entry is whole or
absent: its chunks go into a temporary file that is moved into place
only after the last one, and any interruption of the output (a closed
stdout, a failed --out write) removes it.  Corrupt entries are
recomputed with a warning, and a failed store only warns.  selfcheck
prints its own report and is never cached.  Exit codes: 0 success, 2
usage error, 3 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .jones import (TorusKnotSpec, _degree_window, _rosso_jones, _t2b_diagonal,
                    degree_report, jones_rosso, jones_t2b)
from .laurent import LaurentError
from .plethysm2 import psi2_closed, psi2_schur_form, signed_dimension
from .schur3 import (NotSymmetricError, psi_oracle, verify_lemma_LR,
                     verify_lemma_psi2_recurrence)
from .sl3rep import (dimension, qdim_closed, qdim_weyl, twist_monomial,
                     twist_weyl_check)

__all__ = ["main"]

CACHE_ENV = "SL3JONES_CACHE"

# parsed options that never change a command's output
_NOT_IN_KEY = frozenset({"func", "cache", "out", "jobs", "limit"})


# -- caching ----------------------------------------------------------
# hashlib, json and tempfile serve --cache requests only, so they are
# imported there, not by every process


def _cache_path(cdir: str, key: str) -> str:
    import hashlib

    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return os.path.join(cdir, digest + ".json")


def _cache_lookup(cdir: str, key: str) -> str | None:
    import json

    path = _cache_path(cdir, key)
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        if (not isinstance(data, dict) or data.get("key") != key
                or not isinstance(data.get("output"), str)):
            raise ValueError("not an entry for this key")
        return data["output"]
    except (FileNotFoundError, NotADirectoryError):
        return None  # no entry at this path: a plain miss
    except (OSError, ValueError):
        print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None


class _CacheEntry:
    """A cache entry written chunk by chunk, whole or not at all.

    The chunks go, JSON-escaped, into a temporary file between the head
    {"key": <key>, "output": " and the tail "}, which is byte for byte
    what json.dump({"key": key, "output": text}) writes.  commit() ends
    the file and moves it into place with os.replace; until then the
    entry's path is untouched.  A failed cache write warns once and drops
    the entry, and the output goes on; discard() drops it when the output
    itself is cut short.
    """

    def __init__(self, cdir: str, key: str):
        import json
        import tempfile

        self.cdir, self.path = cdir, _cache_path(cdir, key)
        self.file = self.tmp = None
        try:
            os.makedirs(cdir, exist_ok=True)
            fd, self.tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
            self.file = os.fdopen(fd, "w", encoding="utf-8")
            self.file.write(f'{{"key": {json.dumps(key)}, "output": "')
        except OSError as exc:
            self._fail(exc)

    def write(self, chunk: str) -> None:
        import json

        if self.file is not None:
            try:
                self.file.write(json.dumps(chunk)[1:-1])
            except OSError as exc:
                self._fail(exc)

    def commit(self) -> None:
        if self.file is not None:
            try:
                self.file.write('"}')
                self.file.close()
                os.replace(self.tmp, self.path)
            except OSError as exc:
                self._fail(exc)

    def discard(self) -> None:
        if self.file is not None:
            f, self.file = self.file, None
            try:
                f.close()
            except OSError:
                pass  # the entry is dropped either way
        if self.tmp is not None and os.path.exists(self.tmp):
            os.unlink(self.tmp)

    def _fail(self, exc: OSError) -> None:
        print(f"warning: cache store in {self.cdir} failed: {exc}",
              file=sys.stderr)
        self.discard()


def _with_cache(args, compute):
    """The output's chunk writer, served from or teed into the --cache.

    compute() returns the writer of a freshly computed output; it runs
    before any output is written.  A hit writes the stored output as one
    chunk.  On a miss every chunk also goes into a _CacheEntry, which is
    committed after the last chunk and discarded if the output stops
    early.  The key is the package version plus every parsed option,
    sorted by name, except those in _NOT_IN_KEY.
    """
    cdir = "cache" in args and (args.cache or os.environ.get(CACHE_ENV))
    if not cdir:
        return compute()
    key = "|".join([__version__] + [f"{k}={v}"
                                    for k, v in sorted(vars(args).items())
                                    if k not in _NOT_IN_KEY])
    hit = _cache_lookup(cdir, key)
    if hit is not None:
        return lambda write: write(hit)
    render = compute()

    def teed(write):
        entry = _CacheEntry(cdir, key)

        def both(chunk):
            write(chunk)
            entry.write(chunk)

        try:
            render(both)
        except BaseException:
            entry.discard()
            raise
        entry.commit()

    return teed


def _enforce_limit(args) -> None:
    """Reject out-of-range options before any work.

    --limit must be at least 0, --m1, --m2 and --max lie in 0..--limit
    (100 without one), --a lies in 1..--limit, and --jobs must be at
    least 1.  The a >= 3 numerator spans the exponents of the Adams
    images, which grow with a, so --a is bounded like the colors.
    """
    limit = getattr(args, "limit", 100)
    if limit < 0:
        raise ValueError(f"--limit {limit} is negative")
    for name, least in (("a", 1), ("m1", 0), ("m2", 0), ("max", 0)):
        v = getattr(args, name, None)
        if v is not None and not least <= v <= limit:
            raise ValueError(f"--{name} {v} lies outside {least}..{limit}"
                             + (" (see --limit)" if "limit" in args else ""))
    if getattr(args, "jobs", 1) < 1:
        raise ValueError("--jobs must be at least 1")


def _writer(args, value):
    """value's chunk writer for --format; a table is its own CSV writer."""
    if callable(value):
        return value
    return value.write_json if args.format == "json" else value.write_text


def _emit(args, render) -> int:
    """Pass render's chunks to the --out file, or to stdout.

    On stdout a newline follows unless the output ends with one.
    """
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as f:
                render(f.write)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc}") from None
        return 0
    stdout, last = sys.stdout, ""

    def write(chunk):
        nonlocal last
        stdout.write(chunk)
        last = chunk or last

    render(write)
    if not last.endswith("\n"):
        stdout.write("\n")
    return 0


# -- value computation -------------------------------------------------


def _compute_result(a: int, b: int, m1: int, m2: int, var: str):
    if a == 2:
        res = jones_t2b(b, (m1, m2))
    else:
        res = jones_rosso(TorusKnotSpec(a, b), (m1, m2))
    return res.mirrored() if var == "qinv" else res


def _jones(args):
    return _compute_result(args.a, args.b, args.m1, args.m2, args.var)


def _degrees(args):
    return degree_report(_jones(args))


def _plethysm(args):
    w = (args.m1, args.m2)
    return psi2_closed(w) if args.a == 2 else psi_oracle(w, args.a)


def _qdim(args):
    return qdim_closed((args.m1, args.m2))


def _twist(args):
    return twist_monomial((args.m1, args.m2), args.num, args.den)


def _table_chain(task) -> list[tuple[tuple[int, int], str]]:
    """(color, row after its m1,m2 columns) for each cell of one chain.

    The chain ends at the cell top.  For a = 2 it is the whole diagonal
    below top, evaluated from one growing numerator (_t2b_diagonal);
    otherwise it is top alone.
    """
    a, b, top, var, full = task
    if a == 2:
        results = _t2b_diagonal(b, top)
    else:
        results = [jones_rosso(TorusKnotSpec(a, b), top)]
    rows = []
    for res in results:
        if var == "qinv":
            res = res.mirrored()
        terms = res.value._terms
        # the degree window only: the report's exponent lists go unused
        tail = "%d,%d,%d,%d,%d" % (*_degree_window(terms), len(terms))
        if full:
            tail += f",{res.value.to_text()}"
        rows.append((res.color, tail))
    return rows


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size for --jobs: no more workers than tasks or CPUs."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _table(args):
    """Compute every cell; returns the writer of the CSV, row by row."""
    a, b, mx, var, full = args.a, args.b, args.max, args.var, args.full
    header = "m1,m2,min_deg,max_deg,min_coeff,max_coeff,term_count"
    if full:
        header += ",polynomial"
    # J(m1, m2) = J(m2, m1): V_(m2,m1) is dual to V_(m1,m2) and torus
    # knots are invertible.  So only the cells with m1 <= m2 are computed,
    # and each row with m1 > m2 is its mirror's row with the colors
    # swapped.  For a = 2 a chain is a diagonal (j, j + d), which ends at
    # (mx - d, mx); otherwise it is one cell.  The largest go first.
    if a == 2:
        tops = [(mx - d, mx) for d in range(mx + 1)]
    else:
        tops = [(m1, m2) for m1 in range(mx + 1) for m2 in range(m1, mx + 1)]
    tasks = sorted(((a, b, top, var, full) for top in tops),
                   key=lambda t: dimension(t[2]), reverse=True)
    workers = _worker_count(args.jobs, len(tasks))
    if workers > 1:
        from multiprocessing import Pool  # only a parallel table pays for it

        # one chain per task, so no worker draws a chunk of big chains last
        with Pool(workers) as pool:
            chains = pool.map(_table_chain, tasks, chunksize=1)
    else:
        chains = map(_table_chain, tasks)
    tails = {color: tail for rows in chains for color, tail in rows}

    def write_csv(write):
        write(header + "\n")
        for m1 in range(mx + 1):
            for m2 in range(mx + 1):
                write(f"{m1},{m2},{tails[min(m1, m2), max(m1, m2)]}\n")

    return write_csv


# -- selfcheck ----------------------------------------------------------


def _selfcheck_properties(mx: int):
    rng2 = [(m1, m2) for m1 in range(mx + 1) for m2 in range(mx + 1)]

    def qdim_weyl_equivalence():
        # the evaluator's stride divisions against the long division
        return all(qdim_weyl(w) == qdim_closed(w) for w in rng2)

    def twist_pairing():
        return all(twist_weyl_check(w) for w in rng2)

    def plethysm_oracle_equivalence():
        return all(psi2_closed(w) == psi_oracle(w, 2) for w in rng2)

    def plethysm_schur_form():
        pairs = [(m1, m2) for m1 in range(2 * mx + 1) for m2 in range(m1 + 1)]
        return all(psi2_schur_form(m1, m2) == psi2_closed((m1 - m2, m2))
                   for m1, m2 in pairs)

    def product_lemma_rows():
        return all(verify_lemma_LR(m1, m2)
                   for m1 in range(mx + 1) for m2 in range(m1 + 1))

    def plethysm_recurrence():
        return all(verify_lemma_psi2_recurrence(m1, m2)
                   for m1 in range(1, mx + 1) for m2 in range(m1))

    def signed_dimension_conservation():
        return all(signed_dimension(psi_oracle(w, a)) == dimension(w)
                   for w in rng2 for a in (2, 3))

    def torus_route_equivalence():
        # the weight form against the closed plethysm expansion
        return all(jones_rosso(TorusKnotSpec(2, b), w).value
                   == jones_t2b(b, w).value
                   for b in (1, 3) for w in rng2)

    def oracle_route_equivalence():
        # the weight form against the straightened Schur expansion
        return all(jones_rosso(TorusKnotSpec(a, b), w).value
                   == _rosso_jones(psi_oracle(w, a)._terms, a, b, w)
                   for a, b in ((3, 4), (4, 5), (5, 3)) for w in rng2)

    def torus_symmetry():
        return all(jones_rosso(TorusKnotSpec(3, 2), w).value
                   == jones_rosso(TorusKnotSpec(2, 3), w).value
                   for w in rng2)

    def color_swap_symmetry():
        # the table computes m1 <= m2 only and mirrors the other rows
        knot = TorusKnotSpec(3, 4)
        pairs = [(m1, m2) for m1, m2 in rng2 if m1 < m2]
        return (all(jones_t2b(b, w).value == jones_t2b(b, w[::-1]).value
                    for b in (3, 5) for w in pairs)
                and all(jones_rosso(knot, w).value
                        == jones_rosso(knot, w[::-1]).value for w in pairs))

    def table_chain_equivalence():
        # the table's diagonal numerators, evaluated at every cell,
        # against jones_t2b, which sums a fresh numerator per cell and
        # evaluates it once; the diagonals ending on the top and right
        # edges cover the square
        tops = [(m1, mx) for m1 in range(mx + 1)]
        tops += [(mx, m2) for m2 in range(mx)]
        return all(res == jones_t2b(b, res.color)
                   for b in (3, 5) for top in tops
                   for res in _t2b_diagonal(b, top))

    def unknot_normalization():
        if not all(jones_t2b(1, w).value == jones_t2b(1, w).value.one()
                   for w in rng2):
            return False
        return all(jones_t2b(3, w).value.eval_one() == 1 for w in rng2)

    return [
        ("qdim-weyl-equivalence", qdim_weyl_equivalence),
        ("twist-pairing-check", twist_pairing),
        ("plethysm-oracle-equivalence", plethysm_oracle_equivalence),
        ("plethysm-schur-form", plethysm_schur_form),
        ("product-lemma-rows", product_lemma_rows),
        ("plethysm-recurrence", plethysm_recurrence),
        ("signed-dimension-conservation", signed_dimension_conservation),
        ("torus-route-equivalence", torus_route_equivalence),
        ("oracle-route-equivalence", oracle_route_equivalence),
        ("torus-symmetry", torus_symmetry),
        ("color-swap-symmetry", color_swap_symmetry),
        ("table-chain-equivalence", table_chain_equivalence),
        ("unknot-normalization", unknot_normalization),
    ]


def _cmd_selfcheck(args) -> int:
    failures = 0
    for name, check in _selfcheck_properties(args.max):
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, not an abort
            print(f"FAIL {name} ({exc})")
            failures += 1
            continue
        print(("PASS" if ok else "FAIL") + f" {name}")
        failures += 0 if ok else 1
    return 3 if failures else 0


# -- parser -------------------------------------------------------------


def _add_common(p, color=True, knot=False, var=False, fmt=True, cache=False):
    if knot:
        p.add_argument("--a", type=int, default=2,
                       help="torus strand count (default 2)")
        p.add_argument("--b", type=int, required=True,
                       help="torus winding count")
    if color:
        p.add_argument("--m1", type=int, required=True)
        p.add_argument("--m2", type=int, required=True)
    p.add_argument("--limit", type=int, default=100,
                   help="bound on m1, m2 and table ranges (default 100)")
    if var:
        p.add_argument("--var", choices=("q", "qinv"), default="q",
                       help="report in q or in 1/q (default q)")
    if fmt:
        p.add_argument("--format", choices=("text", "json"), default="text")
    if cache:
        p.add_argument("--cache", default=None,
                       help=f"cache directory (default ${CACHE_ENV})")
        p.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="sl3jones",
        description="Exact sl3 colored invariants of torus knots T(a,b).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jones", help="colored invariant of one knot/color")
    _add_common(p, knot=True, var=True, cache=True)
    p.set_defaults(func=_jones)

    p = sub.add_parser("plethysm", help="signed second-plethysm expansion")
    p.add_argument("--a", type=int, default=2,
                   help="plethysm degree (2 uses the closed form)")
    _add_common(p, cache=True)
    p.set_defaults(func=_plethysm)

    p = sub.add_parser("qdim", help="quantum dimension of a weight")
    _add_common(p)
    p.set_defaults(func=_qdim)

    p = sub.add_parser("twist", help="twist power of a weight")
    _add_common(p)
    p.add_argument("--num", type=int, default=1,
                   help="numerator p of the power theta^(p/r) (default 1)")
    p.add_argument("--den", type=int, default=1,
                   help="denominator r >= 1 of the power (default 1)")
    p.set_defaults(func=_twist)

    p = sub.add_parser("degrees", help="degree and coefficient extremes")
    _add_common(p, knot=True, var=True, cache=True)
    p.set_defaults(func=_degrees)

    p = sub.add_parser("table", help="CSV degree table over a color range")
    _add_common(p, color=False, knot=True, var=True, fmt=False, cache=True)
    p.add_argument("--max", type=int, required=True,
                   help="range bound: colors (m1, m2) with 0 <= mi <= max")
    p.add_argument("--full", action="store_true",
                   help="append the full polynomial column")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default 1, serial)")
    p.set_defaults(func=_table)

    p = sub.add_parser("selfcheck", help="run the cross-formula checks")
    p.add_argument("--max", type=int, default=5,
                   help="weight range bound for the checks (default 5)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _enforce_limit(args)
        if args.command == "selfcheck":  # its own report, never cached
            return _cmd_selfcheck(args)
        return _emit(args, _with_cache(
            args, lambda: _writer(args, args.func(args))))
    # OverflowError is an ArithmeticError, so this clause comes before the
    # next: a list longer than an index can hold, or than memory, is the
    # request's size, not a fault
    except (MemoryError, OverflowError) as exc:
        detail = str(exc) or "out of memory"
        print(f"usage error: request too large ({detail})", file=sys.stderr)
        return 2
    # NotSymmetricError is a ValueError, so this clause comes before that
    # one: a character that fails the symmetry check is a fault, not a
    # usage error
    except (LaurentError, ArithmeticError, NotSymmetricError) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: point fd 1 at
        # /dev/null so the flush at exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
