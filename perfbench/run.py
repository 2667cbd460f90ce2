"""Benchmark entry point for tritcirc.

    python3 perfbench/run.py --workload compile|verify|route --seed N \
        --seconds S --trace 0|1

Runs one workload in a child process (worker.py) as a closed loop: one
caller issues items back to back for S seconds of item time, in whole rounds
of the workload's item mix, and checks every output against reference.py.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.

``setup_s`` is the median over SETUPS fresh worker processes of the time from
starting the process to its READY line (interpreter, imports, input
generation, warm-up), less the set-up probes the worker runs, and scaled by
their median; the last of them goes on to the timed loop.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile", "verify", "route")
SETUPS = 15
DEADLINE_S = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it, its set-up time (start to READY, less the
    probes) as measured, and that time scaled by the worker's probes."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline().split()
    elapsed = time.perf_counter() - start
    if len(line) != 3 or line[0] != "READY":
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    scale, probe_s = float(line[1]), float(line[2])
    return proc, elapsed - probe_s, (elapsed - probe_s) * scale


def finish(proc: subprocess.Popen) -> str:
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tritcirc" / "__init__.py").is_file():
        print(f"no tritcirc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    proc = None
    try:
        setups, walls = [], []
        for _ in range(0 if args.trace else SETUPS - 1):
            proc, wall, scaled = start_worker(args, setup_only=True)
            finish(proc)
            walls.append(wall)
            setups.append(scaled)
        proc, wall, scaled = start_worker(args, setup_only=False)
        walls.append(wall)
        setups.append(scaled)
        result = json.loads(finish(proc).strip().splitlines()[-1])
    except (RuntimeError, TimeoutError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    measured = result["metrics"]
    measured["setup_s"] = statistics.median(setups)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in measured]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    if not args.trace:
        measured["wall"]["setup_s"] = statistics.median(walls)
        print(f"# {args.workload}: {measured['items']} items, {measured['rounds']} rounds; "
              f"wall-clock {json.dumps(measured['wall'])}; probe median "
              f"{measured['probe_median_ms']:.3f} ms; scaled set-ups {setups}")
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                         for m in names}
    print(json.dumps(result))
    if not result["correct"]:
        print("benchmark failed: an output was rejected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
