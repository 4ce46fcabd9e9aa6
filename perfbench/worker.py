"""One workload in one fresh process: set up, run whole rounds, check, report.

Started by run.py with BLAS/OpenMP threads capped at 1 and ``src`` on the
path. Prints one JSON object of raw measurements on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --spans STEM
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback

# ops per run at least, so the 90th percentile has four or more samples beyond it
MIN_OPS = 40


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed right now.

    The loop does the kind of work stablab's ops do (int bit operations,
    small tuples, dict stores). run.py scales each op's latency by it.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(8000):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 255] = (acc, i)
    return time.perf_counter() - start


class SpeedSampler:
    """Speed probes before and after an op, and every PERIOD_S during it.

    The probes inside an op run from a SIGALRM handler, between the op's
    bytecodes; their time is subtracted from the op's latency. An op's probe
    time is the mean of its samples, so a long op is scaled by its mean
    machine speed, not by the speed at its two ends.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(speed_probe())
        self.stolen += time.perf_counter() - start

    def time_op(self, op):
        """(outcome or None, error or None, latency s, probe s) of one op."""
        self.samples = [speed_probe()]
        self.stolen = 0.0
        out = error = None
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as err:  # one failed op must not end the run; it is counted
            error = err
        finally:
            latency = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(speed_probe())
        return out, error, latency - self.stolen, sum(self.samples) / len(self.samples)


def run_rounds(workload, inputs: dict, seconds: float, tracer) -> dict:
    """Whole rounds until the next one would end past ``seconds`` (and MIN_OPS are done)."""
    sampler = SpeedSampler()
    results, latencies, probes, keys, failed = [], [], [], [], 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for key, op in workload.round_ops(inputs, rounds):
            if tracer is not None:
                tracer.op = len(latencies)
            keys.append(repr(key))
            out, error, latency, probe = sampler.time_op(op)
            latencies.append(latency)
            probes.append(probe)
            if error is None:
                results.append((rounds, key, out))
            else:
                failed += 1
                traceback.print_exception(error, file=sys.stderr)
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(latencies) >= MIN_OPS and elapsed + elapsed / rounds > seconds:
            return {
                "results": results,
                "latencies_s": latencies,
                "probes_s": probes,
                "op_keys": keys,
                "failed": failed,
                "rounds": rounds,
                "elapsed_s": elapsed,
            }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import stablab.cli  # noqa: F401  (the import every stablab command pays)

    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    t2 = time.perf_counter()
    report = {"import_s": t1 - t0, "inputs_s": t2 - t1, "probe_s": statistics.median(speed_probe() for _ in range(5))}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(extra_modules=(workloads,))
        tracer.install()
    try:
        run = run_rounds(workload, inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checks run

    errors = workload.check(inputs, run.pop("results"))
    for line in errors[:20]:
        print(line, file=sys.stderr)
    report.update(run)
    report.update(
        {
            "correct": not errors,
            "errors": len(errors),
            "attempted": len(run["latencies_s"]),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }
    )
    if tracer is not None:
        report["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
