"""Run one ballbodies CLI command in this fresh interpreter, with its layers traced.

    python -X importtime perfbench/cli_child.py <ballbodies arguments...>

Times ``import ballbodies.cli`` as the span ``cli.import``, installs the span
tracer, and calls ``main([...], standalone_mode=False)`` as the span
``cli.command``.  After the command's own report it prints MARKER and the
spans as JSON, and exits with the command's exit code.  ``ballbodies`` must
be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time

MARKER = "\n--perfbench-spans--\n"


def main(argv: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    import ballbodies.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    code = 0
    try:
        tracer.wrap("cli.command", cli.main)(argv, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.write(MARKER + json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
