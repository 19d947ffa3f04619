"""One benchmark repetition, run by run.py in a fresh interpreter.

Set-up ends when sl3jones.cli is imported and its parser has been built
and used once (`--version`).  Nothing else is imported before that point,
so setup_s is what every CLI call pays; the harness modules load after.

usage: child.py SPAWN_TIME WORKLOAD SEED MODE WORKDIR INJECT
"""

import io
import sys
import time


def _ready():
    from sl3jones import cli
    real, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = cli.main(["--version"])
    except SystemExit as exc:
        code = exc.code
    finally:
        version, sys.stdout = sys.stdout.getvalue(), real
    return version, code


if __name__ == "__main__":
    _version, _code = _ready()
    _setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[1])
    import execute
    sys.exit(execute.main(_setup_s, _version, _code, sys.argv[2:]))
