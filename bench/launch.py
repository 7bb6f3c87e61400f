"""One padichg process of the benchmark, started fresh for every sample.

    python3 bench/launch.py MODE PROBE_PATH -- PADICHG_ARGS...

MODE is one of
  run    run `padichg.cli.main` on the arguments, exactly as the console script;
  trace  the same, with the outside-in wrappers of tracing.py installed;
  setup  stop when `padichg.cli.parse_args` returns (a set-up probe).

The process writes PROBE_PATH (JSON) before it exits: `parsed_at`, the
CLOCK_MONOTONIC time at which `parse_args` returned, and in trace mode the
recorded spans and counters.  It exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    mode, probe_path, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace", "setup") or sep != "--":
        print("usage: launch.py {run,trace,setup} PROBE_PATH -- ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import padichg.cli as cli

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.install()

    probe: dict = {}
    parse = cli.parse_args

    def stamped(args):
        config = parse(args)
        probe["parsed_at"] = time.monotonic()
        return config

    code = 0
    if mode == "setup":
        stamped(argv)
    else:
        cli.parse_args = stamped
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)

    if tracer is not None:
        probe["spans"] = tracer.spans
        probe["counters"] = tracer.counters
        probe["distinct"] = tracer.distinct()
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump(probe, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
