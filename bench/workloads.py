"""Workload definitions: the request lists the benchmark sends.

Every workload repetition runs in a fresh child process on purpose.  The
schur3 memo (`_schur_cached`, an lru_cache of 4096 entries), the module
imports and, for `session`, the cache directory and its page-cache state
then start each repetition the way a CLI user meets them: nothing is
carried over from an earlier repetition.

Only `session` draws its inputs from the seed.  The other three are fixed
request lists, so any seed gives the same inputs for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# session generator parameters, recorded with every result.  The
# benchmark's definition fixes only the shape of the mix: the five
# commands, odd b <= 51, m1, m2 <= 30 skewed to small values, and a fixed
# share of repeats.  No record of real use exists, so the repeat share and
# the skew below are unverified assumptions; every other choice is the
# simplest one: a uniform command mix and the CLI's defaults for --format,
# --var, --num and --den.
SESSION_REQUESTS = 240        # >= 200 so ten samples lie beyond the p95
SESSION_REPEAT_SHARE = 0.25   # assumed share of requests that repeat one
SESSION_SKEW = 2.5            # assumed: m = floor(31 * u**skew), likewise b
SESSION_COMMANDS = ("jones", "degrees", "plethysm", "qdim", "twist")
CACHED_COMMANDS = frozenset({"jones", "degrees", "plethysm"})
# The distinct requests come from a fixed catalog so their reference
# digests can be stored; the seed picks their order and the repeats.
_CATALOG_SEED = 20101010


@dataclass(frozen=True)
class Request:
    """One unit of work.

    key: the reference-digest key (CLI argv without --out/--cache, or a
    library call).  kind: "cli" or "lib".  For "cli", argv is passed to
    sl3jones.cli.main; out says the output is written with --out; cache
    says --cache is added.  For "lib", fn names a top-level sl3jones
    function and args are its plain-int arguments.  invariant is the
    format of an invariant output ("text" or "json") or None.  repeat
    marks a request that repeats an earlier one in the same list.
    """

    key: str
    kind: str
    argv: tuple = ()
    fn: str = ""
    args: tuple = ()
    out: bool = False
    cache: bool = False
    invariant: str | None = None
    repeat: bool = False

    @property
    def command(self) -> str:
        return self.argv[0] if self.kind == "cli" else self.fn


def cli_request(argv: str, out=False, cache=False, invariant=None) -> Request:
    return Request(key=argv, kind="cli", argv=tuple(argv.split()), out=out,
                   cache=cache, invariant=invariant)


def lib_request(fn: str, *args: int, invariant=None) -> Request:
    key = f"{fn}{args}"
    return Request(key=key, kind="lib", fn=fn, args=args, invariant=invariant)


LARGE = (
    cli_request("jones --b 3 --m1 100 --m2 100", out=True, invariant="text"),
    cli_request("jones --b 51 --m1 40 --m2 40 --format json", out=True,
                invariant="json"),
)

TABLE_SERIAL = cli_request("table --b 3 --max 20", out=True)
TABLE_PARALLEL = cli_request("table --b 3 --max 20 --jobs 2", out=True)


def _oracle() -> tuple[Request, ...]:
    reqs = [lib_request("psi_oracle", m1, m2, 2)
            for m1 in range(11) for m2 in range(11)]
    reqs += [lib_request("psi_oracle", m1, m2, 3)
             for m1 in range(7) for m2 in range(7)]
    # weights with m1 + m2 <= 8: (8, 0), (4, 4), (0, 8); the full square
    # up to (8, 8) takes ~14 s per repetition on T(4,5) alone
    reqs += [lib_request("jones_rosso", a, b, m1, m2, invariant="text")
             for a, b in ((3, 4), (3, 5), (4, 5))
             for m1 in range(9) for m2 in range(9 - m1)]
    reqs += [lib_request("verify_lemma_LR", m1, m2)
             for m1 in range(13) for m2 in range(m1 + 1)]
    reqs += [lib_request("verify_lemma_psi2_recurrence", m1, m2)
             for m1 in range(1, 11) for m2 in range(m1)]
    return tuple(reqs)


ORACLE = _oracle()


def _skewed(rng: random.Random, n: int) -> int:
    """An integer in [0, n), skewed towards 0."""
    return int(n * rng.random() ** SESSION_SKEW)


def _draw(rng: random.Random) -> Request:
    """One session request from the stated distribution."""
    cmd = SESSION_COMMANDS[int(len(SESSION_COMMANDS) * rng.random())]
    argv = f"{cmd} --m1 {_skewed(rng, 31)} --m2 {_skewed(rng, 31)}"
    if cmd in ("jones", "degrees"):
        argv += f" --b {2 * _skewed(rng, 26) + 1}"
    return cli_request(argv, cache=cmd in CACHED_COMMANDS,
                       invariant="text" if cmd == "jones" else None)


def session_catalog() -> tuple[Request, ...]:
    """The fixed set of distinct session requests, in catalog order."""
    n_distinct = SESSION_REQUESTS - round(SESSION_REQUESTS
                                          * SESSION_REPEAT_SHARE)
    rng = random.Random(_CATALOG_SEED)
    seen: dict[str, Request] = {}
    while len(seen) < n_distinct:
        r = _draw(rng)
        seen.setdefault(r.key, r)
    return tuple(seen.values())


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def session_requests(seed: int) -> tuple[Request, ...]:
    """The session request list for one seed.

    Every seed sends each catalog request once, in a seeded order, and
    fills a fixed share of positions with repeats of a seeded earlier
    request.  The distinct work is therefore the same for every seed;
    what the seed changes is the order and which requests repeat.
    """
    rng = random.Random(seed)
    fresh = iter(_shuffled(rng, session_catalog()))
    n_repeat = round(SESSION_REQUESTS * SESSION_REPEAT_SHARE)
    repeat_at = set(_shuffled(rng, range(1, SESSION_REQUESTS))[:n_repeat])
    out: list[Request] = []
    for i in range(SESSION_REQUESTS):
        if i in repeat_at:
            out.append(replace(out[int(rng.random() * i)], repeat=True))
        else:
            out.append(next(fresh))
    return tuple(out)


_SERIAL = {"large": lambda seed: LARGE,
           "table": lambda seed: (TABLE_SERIAL,),
           "oracle": lambda seed: ORACLE,
           "session": session_requests}
NAMES = tuple(_SERIAL)


def requests(workload: str, seed: int) -> tuple[Request, ...]:
    """The serial request list of a workload (table's --jobs 2 excluded)."""
    return _SERIAL[workload](seed)


def all_reference_requests() -> tuple[Request, ...]:
    """Every request whose output has a stored reference digest."""
    return (LARGE + (TABLE_SERIAL, TABLE_PARALLEL) + ORACLE
            + session_catalog())
