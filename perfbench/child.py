"""Run one ksums CLI request in this fresh process and report on a pipe.

Usage: child.py REPORT_FD TRACE ARG...

The ARGs go to `ksums.cli.main` unchanged; stdout, stderr and the exit code
are the CLI's own. On REPORT_FD the child writes one JSON object: the
CLOCK_MONOTONIC time at which the CLI's parser was built (the end of
set-up), its peak RSS, and with TRACE=1 the tracer's snapshot.

Peak RSS is this process's VmHWM. The rusage that wait4 returns would not
do: Linux carries the spawning process's high-water mark across exec, so it
reads at least the parent's RSS at the time of the fork.
"""

import json
import os
import sys
import time

# os.path rather than pathlib: everything imported here is set-up time
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))


def _peak_rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return None


def main():
    fd, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    report = {}
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from ksums import cli
    build_parser = cli.build_parser

    def timed_build_parser():
        parser = build_parser()
        report.setdefault("setup_end", time.monotonic())
        return parser

    cli.build_parser = timed_build_parser
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    report["rss_mb"] = _peak_rss_mb()
    if tracer:
        report["trace"] = tracer.snapshot()
    with os.fdopen(fd, "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
