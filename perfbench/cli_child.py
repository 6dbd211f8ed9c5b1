"""Run one `dicke` CLI command as `python3 -m dicke.cli` would, then report
the process's own peak resident memory and, traced, its spans.

Usage: python3 perfbench/cli_child.py REPORT_FILE CASE TRACE -- CLI_ARGS...

Stdout, stderr and the exit code are the command's own.  REPORT_FILE gets
one JSON object, {"vm_hwm_kb": ..., "spans": [...]}; the spans list is
empty unless TRACE is 1.  Exits 70 when a tracing wrapper could not be
removed.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def peak_rss_kb() -> int:
    """High-water RSS of this process since its exec (VmHWM).  Unlike
    getrusage, it does not include the memory of the process that spawned
    this one."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    report, case, trace, separator, *cli_args = argv
    if separator != "--" or trace not in ("0", "1"):
        raise SystemExit(__doc__)
    import dicke.cli

    tracer = Tracer(case) if trace == "1" else None
    if tracer:
        tracer.install()
    try:
        code = dicke.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        clean = tracer.uninstall() if tracer else True
        with open(report, "w", encoding="utf-8") as handle:
            json.dump({"vm_hwm_kb": peak_rss_kb(), "spans": tracer.spans if tracer else []}, handle)
    return code if clean else 70


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
