"""Write reference.json: the SHA-256 of every reference request's output.

usage: python3 bench/make_reference.py

Runs every request the workloads can send (the session's whole catalog)
once, in process, with the package from `src/` beside this directory.
Run it only at a commit whose outputs are known to be right; the stored
digests then define a correct output for every later run.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import execute  # noqa: E402  (needs the src path above)
import verify  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests, records = {}, []

    def record(req, data):
        problem = req.invariant and verify.invariant_problem(data,
                                                             req.invariant)
        digests[req.key] = verify.digest(data)
        return problem or None

    with tempfile.TemporaryDirectory() as tmp:
        execute.send(workloads.all_reference_requests(), tmp,
                     os.path.join(tmp, "cache"), None, record, records)
    bad = [r for r in records if r["problem"] or r["cache_problem"]]
    for r in bad:
        print(f"{r['key']}: {r['problem'] or r['cache_problem']}",
              file=sys.stderr)
    if bad:
        return 1
    with open(verify.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump({"package_version": execute.sl3jones.__version__,
                   "digests": dict(sorted(digests.items()))}, f, indent=0)
        f.write("\n")
    print(f"{len(digests)} digests written to {verify.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
