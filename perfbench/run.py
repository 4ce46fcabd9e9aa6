"""stablab benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload indist --seed 0 --seconds 20 --trace 0

Run from the repository root; stablab is imported from ``src``. Set-up is
timed in SETUP_REPEATS fresh processes (median reported), then the workload
runs in one more fresh process for about ``--seconds``. With ``--trace 0``
the last line holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones. Raw outputs go to ``perfbench/out/``. Exit 0 when every
output checked out, 1 when a check failed, 2 when the run could not start
or finish.

Times are reported at a reference machine speed: each measured time is
multiplied by PROBE_REF_S over the time a fixed loop (``worker.speed_probe``)
took right beside it. On shared hosts the same op can take twice as long
from one second to the next; the scaling removes that drift and leaves
changes in stablab's own work. The raw wall-clock figures are kept in the
raw output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("indist", "sparsify", "amplify", "frontier")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 10
RUN_TIMEOUT_S = 120
# speed_probe's time on an unloaded 2.1 GHz Xeon core (2-vCPU VM), the
# speed all reported times are scaled to
PROBE_REF_S = 1.2e-3


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, timeout: float) -> dict:
    """Run worker.py with the given arguments; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stablab" / "__init__.py").is_file():
        print(f"run.py: no stablab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_child([*common, "--setup-only"], SETUP_TIMEOUT_S) for _ in range(SETUP_REPEATS)]
        run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", str(out_dir / f"spans-{tag}")]
        result = run_child(run_args, RUN_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2

    latencies = [t * PROBE_REF_S / p for t, p in zip(result["latencies_s"], result["probes_s"])]
    ops_per_s = len(latencies) / sum(latencies)

    def setup_median(part) -> float:
        return statistics.median(part(s) * PROBE_REF_S / s["probe_s"] for s in setups)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
        metrics["setup.import_s"] = {"value": setup_median(lambda s: s["import_s"]), "unit": "s"}
        metrics["setup.inputs_s"] = {"value": setup_median(lambda s: s["inputs_s"]), "unit": "s"}
        metrics["traced.ops_per_s"] = {"value": ops_per_s, "unit": "op/s"}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "unit": "ms"},
            "setup_s": {"value": setup_median(lambda s: s["import_s"] + s["inputs_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    raw = {"args": vars(args), "setups": setups, "result": result, "summary": summary}
    (out_dir / f"run-{tag}.json").write_text(json.dumps(raw, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
