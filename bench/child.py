"""Run one acol CLI command in this process, optionally traced.

usage: python3 child.py SRC REPORT TRACE RUN_ID ACOL-ARGS...

Imports acol from SRC (and nowhere else), parses the command's config, and
records that moment on the system-wide monotonic clock as the end of
set-up. With TRACE=1 it then installs the hooks of ``spans.HOOKS`` and runs
the command inside a ``cli.command`` span. REPORT (JSON) receives the
set-up time stamp and, when traced, the spans and the absent hooks. The
exit code is the command's.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, report, trace, run_id, *args = argv
    sys.path.insert(0, src)
    import acol.cli
    import acol.config

    if Path(acol.__file__).resolve().parent != (Path(src) / "acol").resolve():
        print(f"acol was imported from {acol.__file__}, not from {src}", file=sys.stderr)
        return 2
    acol.config.load_config(args[args.index("--config") + 1])
    out = {"ready": time.monotonic()}
    if trace == "1":
        import spans

        tracer = spans.Tracer(run_id)
        out["absent"] = tracer.install("acol")
        code = tracer.call(spans.COMMAND_SPAN, acol.cli.main, (args,))
        out["spans"] = tracer.spans
    else:
        code = acol.cli.main(args)
    with open(report, "w") as f:
        json.dump(out, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
