"""Run one ``repro`` CLI command the way ``python -m repro`` does, and say
when it is ready.

    python perfbench/launch.py [--trace DIR] -- <repro arguments>

The launcher imports ``repro.cli`` and builds its parser, prints
``perfbench-ready <monotonic seconds>`` on stderr, then hands the
arguments to ``repro.cli.main``.  The benchmark reads that line to take
the command's set-up time from the same process it times end to end.

With ``--trace DIR`` it also installs the span wrappers of
:mod:`spans` after the import (so the import is its own
``startup.import`` span), runs the command inside a ``process.main``
span and writes the spans to *DIR* when the command returns.  The
daemon (``service``) is traced this way too: ``repro.cli.main`` calls
``run_service``, which returns after SIGTERM.
"""

import argparse
import sys
import time


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="DIR")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import repro.cli
    repro.cli.build_parser()
    ready = time.perf_counter()
    print(f"perfbench-ready {ready:.9f}", file=sys.stderr, flush=True)
    if not args.trace:
        return repro.cli.main(command)

    import spans
    recorder = spans.Recorder(args.trace)
    recorder.record("startup.import", started, ready)
    spans.install(recorder)
    root = recorder.begin("process.main")
    try:
        return repro.cli.main(command)
    finally:
        recorder.finish(root)
        recorder.dump()


if __name__ == "__main__":
    raise SystemExit(main())
