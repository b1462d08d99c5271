"""Run the coinseer CLI the way its console script does.

usage: python3 launch.py SRC READY_FILE TRACE_FILE -- CLI_ARGS...

SRC is the directory holding the ``coinseer`` package. Once the package
is imported, the launcher writes ``time.monotonic()`` to READY_FILE; the
clock is system-wide, so the parent can subtract its spawn time. With
TRACE_FILE other than ``-``, calls into coinseer's modules are recorded
(see tracer.py) and the spans are written there when the command ends.
"""

import sys
import time


def main() -> int:
    src, ready_file, trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SRC READY_FILE TRACE_FILE -- ARGS...")
    sys.path.insert(0, src)
    from coinseer import cli

    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))
    if trace_file == "-":
        return cli.main(argv)
    from tracer import Tracer

    tracer = Tracer(argv[0])
    tracer.install()
    try:
        return tracer.run(lambda: cli.main(argv))
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
