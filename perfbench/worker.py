"""One benchmark pass in a fresh process.

    python3 worker.py SPEC_JSON

The spec names the source tree to import, the (n, k) contexts to build, the
CLI argument lists to run, whether to trace, and where to write the result.
Set-up ends when `asymflat` is imported and the contexts are built; the
result records that moment on the system-wide monotonic clock, so the
launcher can measure set-up from the moment it started this process.
Exit codes: 0 pass ran (commands may still have failed), 3 set-up failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_command(cli, argv: list) -> dict:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return {"rc": exc.code if isinstance(exc.code, int) else 1,
                "error": f"SystemExit({exc.code!r})"}
    except Exception:
        return {"rc": None, "error": traceback.format_exc()}
    return {"rc": rc, "error": None}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    try:
        sys.path.insert(0, spec["src"])
        import asymflat
        from asymflat import cli
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
            from perfbench.tracer import Tracer
            tracer = Tracer()
            tracer.install()
        for n, k in spec["contexts"]:
            asymflat.GBCContext(n, k)
    except Exception:
        traceback.print_exc()
        return 3
    ready = time.monotonic()

    commands = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        commands.append(_run_command(cli, argv))
    wall = time.perf_counter() - start

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["trace_file"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sys_s": usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "commands": commands,
    }
    with open(spec["result_file"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
