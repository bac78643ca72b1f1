"""ksums benchmark: cold CLI requests, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, `smoke` (a few-second
variant for tests), or `all` (every BENCHMARK.json workload in turn).

With --trace 0 the workload's request sequence is sent in passes, one
request at a time, each in a fresh `python3 perfbench/child.py` process.
After the first pass, a request that would end after S seconds is skipped,
and the run ends with a pass that sends none. Between requests the benchmark
times a fixed calibration loop in its own process, and each request's times
are scaled to a host on which that loop takes CAL_REF_S (see `calibrate`).
With --trace 1 the sequence runs once, each request untraced and then
traced, and the per-layer metrics come from the traced requests, unscaled.

The benchmark and its children run on one CPU, so the calibration loop and
the requests meet the same core.

Every output is checked against an independent route (checks.py) after the
timed requests. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it reports the
workload, seed and per-request details.
"""

import argparse
import compileall
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REQUEST_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "request_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}

PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({
    "field.mul_calls": "count",
    "field.check_element_calls": "count",
    "field.table_s": "s",
    "combinat.binom_calls": "count",
    "combinat.stirling2_calls": "count",
    "matgf.mat_inv_calls": "count",
    "matgf.mat_mul_calls": "count",
    "matgf.gl_yield_ratio": "ratio",
    "charsums.kloosterman_calls": "count",
    "charsums.enum_tuples": "count",
    "charsums.kloosterman_gl_calls": "count",
    "charsums.values_hit_ratio": "ratio",
    "orthogroup.parabolic_elements": "count",
    "orthogroup.cells_built": "count",
    "orthogroup.products": "count",
    "orthogroup.cell_elements": "count",
    "orthogroup.dedup_ratio": "ratio",
    "coset_codes.weight_distribution_calls": "count",
    "coset_codes.dp_terms": "count",
    "coset_codes.dual_weight_calls": "count",
    "coset_codes.macwilliams_calls": "count",
    "moments.recursive_calls": "count",
    "moments.recursive_hit_ratio": "ratio",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.stdout_bytes": "bytes",
    "cache.hit_ratio": "ratio",
    "cache.entries": "count",
    "trace.overhead_frac": "ratio",
})
RECURSIVE = ("moments.mk_recursive", "moments.mk2_recursive", "moments.mk_even_recursive")
# A round figure near the calibration loop's median time on the reference
# host (2-vCPU Intel Xeon VM, Python 3.11.7); scaled times read as seconds on
# a host where the loop takes exactly this long.
CAL_REF_S = 0.1


def calibrate():
    """Seconds this process takes for a fixed mix of the work the CLI does:
    GF(2^8) arithmetic on small ints through list and dict lookups, modular
    squaring of a 2048-bit int, and building and dropping tuples and dicts.

    The host's speed drifts by up to 2x in phases of seconds to minutes.
    Timed next to each request, this loop reads the speed of the moment; the
    ksums package is never involved, so no change to it moves the loop."""
    start = time.perf_counter()
    acc, big, mod = 1, 3, (1 << 2048) - 159
    row, table = [0] * 256, {}
    for i in range(30000):
        acc = ((acc << 1) ^ (0x11B if acc & 0x80 else 0) ^ i) & 0xFF
        row[acc] += 1
        table[acc ^ (i & 1023)] = row[(acc * 7) & 0xFF]
        if not i & 15:
            big = (big * big + i) % mod
    for _ in range(3):
        pairs = [(i, i * i) for i in range(40000)]
        squares = dict(pairs)
        acc ^= sum(squares[i] & 0xFF for i in range(0, 40000, 3))
        del pairs, squares
    return time.perf_counter() - start


class Request:
    """One CLI request run in a fresh child process, with what it cost."""

    def __init__(self, argv, trace):
        self.argv = argv
        self.trace = trace
        self.stdout = self.stderr = b""
        self.report = {}
        self.timed_out = False
        self.code = None
        self.latency_s = self.setup_s = self.rss_mb = None
        self.speed = 1.0  # CAL_REF_S over the calibration time around the request

    def run(self):
        read_fd, write_fd = os.pipe()
        start = time.monotonic()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(write_fd), str(int(self.trace)), *self.argv],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
        try:
            chunks = self._drain((out_fd, err_fd, read_fd), start + REQUEST_TIMEOUT_S)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            raise
        finally:
            if self.timed_out:
                proc.kill()
            self.code = proc.wait()
            self.latency_s = time.monotonic() - start
            proc.stdout.close()
            proc.stderr.close()
            os.close(read_fd)
        self.stdout, self.stderr = bytes(chunks[out_fd]), bytes(chunks[err_fd])
        if chunks[read_fd] and not self.timed_out:
            self.report = json.loads(chunks[read_fd])
        if "setup_end" in self.report:
            self.setup_s = self.report["setup_end"] - start
        self.rss_mb = self.report.get("rss_mb")
        return self

    def _drain(self, fds, deadline):
        chunks = {fd: bytearray() for fd in fds}
        with selectors.DefaultSelector() as sel:
            for fd in fds:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    self.timed_out = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd] += data
                    else:
                        sel.unregister(key.fd)
        return chunks


def run_closed_loop(argvs, seconds):
    """Send the sequence in passes, one request at a time. The first pass
    sends every request; later ones skip a request that would end after
    `seconds` (by its last latency), and the loop stops after a pass that
    sends none. A calibration runs before the first request and after each
    one, and a request's speed is CAL_REF_S over the mean of the two around
    it. Returns each request's samples, in sequence order."""
    samples = [[] for _ in argvs]
    deadline = time.monotonic() + seconds
    cal_before = calibrate()
    sent = True
    while sent:
        sent = False
        for k, argv in enumerate(argvs):
            if samples[k] and (time.monotonic() + samples[k][-1].latency_s + cal_before
                               > deadline):
                continue
            req = Request(argv, trace=False).run()
            cal_after = calibrate()
            req.speed = CAL_REF_S / ((cal_before + cal_after) / 2)
            cal_before = cal_after
            samples[k].append(req)
            sent = True
    return samples


def end_to_end(samples, verified, attempted):
    """Times are scaled by each request's speed. Each request counts at its
    median over its samples, so a slow spell of the host, or a sequence cut
    off part way, moves a metric less than it would as a pass total, a
    maximum or a median over every sample."""
    per_request = [statistics.median(r.latency_s * r.speed for r in reqs) for reqs in samples]
    return {
        "wall_s": sum(per_request),
        "request_p50_s": statistics.median(per_request),
        "setup_s": statistics.median(r.setup_s * r.speed for reqs in samples for r in reqs
                                     if r.setup_s is not None),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in reqs if r.rss_mb)
                           for reqs in samples if any(r.rss_mb for r in reqs)),
        "verified_frac": verified / attempted,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced_s):
    """Per-layer metrics summed over the traced requests of one pass."""
    calls, items, self_s, counters = Counter(), Counter(), Counter(), Counter()
    table_s = 0.0
    caches = {}
    for req in traced:
        snap = req.report["trace"]
        for name, (n, seconds, yielded) in snap["functions"].items():
            calls[name] += n
            items[name] += yielded
            self_s[name.split(".")[0]] += seconds
        self_s.update(snap["imports"])
        table_s += snap["table_s"]
        counters.update(snap["counters"])
        for name, info in snap["caches"].items():
            caches[name] = [a + b for a, b in zip(caches.get(name, [0, 0, 0]), info)]

    def hit_ratio(names):
        hits = sum(caches[n][0] for n in names)
        return _ratio(hits, hits + sum(caches[n][1] for n in names))

    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({
        "field.mul_calls": calls["field.mul"],
        "field.check_element_calls": calls["field.check_element"],
        "field.table_s": table_s,
        "combinat.binom_calls": calls["combinat.binom"],
        "combinat.stirling2_calls": calls["combinat.stirling2"],
        "matgf.mat_inv_calls": calls["matgf.mat_inv"],
        "matgf.mat_mul_calls": calls["matgf.mat_mul"],
        "matgf.gl_yield_ratio": _ratio(items["matgf.gl_matrices"], counters["matgf.gl_tried"]),
        "charsums.kloosterman_calls": calls["charsums.kloosterman"],
        "charsums.enum_tuples": counters["charsums.enum_tuples"],
        "charsums.kloosterman_gl_calls": calls["charsums.kloosterman_gl"],
        "charsums.values_hit_ratio": hit_ratio(["charsums.kloosterman_values"]),
        "orthogroup.parabolic_elements": counters["orthogroup.parabolic_elements"],
        "orthogroup.cells_built": counters["orthogroup.cells_built"],
        "orthogroup.products": counters["orthogroup.products"],
        "orthogroup.cell_elements": counters["orthogroup.cell_elements"],
        "orthogroup.dedup_ratio": _ratio(counters["orthogroup.cell_elements"],
                                         counters["orthogroup.products"]),
        "coset_codes.weight_distribution_calls": calls["coset_codes.weight_distribution"],
        "coset_codes.dp_terms": counters["coset_codes.dp_terms"],
        "coset_codes.dual_weight_calls": calls["coset_codes.dual_weight"],
        "coset_codes.macwilliams_calls": calls["coset_codes.weight_distribution_macwilliams"],
        "moments.recursive_calls": sum(calls[n] for n in RECURSIVE),
        "moments.recursive_hit_ratio": hit_ratio(RECURSIVE),
        "verify.checks": counters["verify.checks"],
        "verify.checks_failed": counters["verify.checks_failed"],
        "cli.stdout_bytes": sum(len(r.stdout) for r in traced),
        "cache.hit_ratio": hit_ratio(list(caches)),
        "cache.entries": sum(info[2] for info in caches.values()),
        "trace.overhead_frac": sum(r.latency_s for r in traced) / untraced_s - 1,
    })
    return metrics


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (details, result) as printed."""
    import checks  # imports ksums, which main has put on the path
    argvs = workloads.requests(name, seed)
    if trace:
        untraced, traced = [], []
        for argv in argvs:
            untraced.append(Request(argv, trace=False).run())
            traced.append(Request(argv, trace=True).run())
        done = untraced + traced
    else:
        samples = run_closed_loop(argvs, seconds)
        done = [r for reqs in samples for r in reqs]
    failures = []
    for req in done:
        if req.timed_out:
            reason = f"timed out after {REQUEST_TIMEOUT_S} s"
        elif req.code != 0:
            reason = f"exit code {req.code}: {req.stderr.decode(errors='replace')[-300:]}"
        elif req.trace and "trace" not in req.report:
            reason = "traced child sent no trace"
        else:
            reason = checks.check(req.argv, req.stdout)
        if reason:
            failures.append({"argv": req.argv, "reason": reason})
    attempted = len(done)
    verified = attempted - len(failures)
    if trace:
        values = per_layer([r for r in traced if "trace" in r.report],
                           sum(r.latency_s for r in untraced))
        units = PER_LAYER
    else:
        values = end_to_end(samples, verified, attempted)
        units = END_TO_END
    details = {
        "workload": name, "seed": seed, "trace": trace,
        "requests": len(argvs),
        "latency_s_rss_mb": [[" ".join(r.argv), round(r.latency_s, 4), r.rss_mb]
                             for r in done],
        "failures": failures,
    }
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):  # children inherit it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run unwinds through Request.run, which kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "ksums" / "cli.py").is_file():
        print(f"error: no ksums sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # bytecode as an installed CLI has it, whatever PYTHONDONTWRITEBYTECODE says,
    # so that set-up time never includes compiling the package
    compileall.compile_dir(ROOT / "src" / "ksums", quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    names = ([w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
             if args.workload == "all" else [args.workload])
    unknown = [n for n in names if n not in workloads.BUILDERS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{sorted(workloads.BUILDERS) + ['all']}")
    for name in names:
        details, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details))
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print(f"{name:18} {metric:40} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
