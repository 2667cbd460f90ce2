"""One workload process: set up, print READY, run whole rounds, report.

Started by run.py.  With ``--setup-only`` it exits right after READY, so
run.py can time set-up more than once.  It imports tritcirc from ``src/`` of
the checkout it lives in and refuses to run without it.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads (README: BLAS pinning).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
MIN_ROUNDS = 3
# The probe's time on the reference machine; README: "Scaled timings".
PROBE_REF_S = 1.0e-3
# The set-up probe's time on the reference machine; README: "Scaled timings".
SETUP_PROBE_REF_S = 1.6e-3
SETUP_PROBES = 3  # set-up probes at each of three points of set-up


def import_program():
    if not (SRC / "tritcirc" / "__init__.py").is_file():
        sys.exit(f"no tritcirc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tritcirc
    import tritcirc.cli  # noqa: F401
    import tritcirc.qaoa  # noqa: F401
    import tritcirc.sim  # noqa: F401

    if Path(tritcirc.__file__).resolve().parent != SRC / "tritcirc":
        sys.exit(f"imported tritcirc from {tritcirc.__file__}, not {SRC}")


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter and numpy work.

    It brackets every item, so each item's time can be scaled by the speed
    the shared machine had while the item ran.
    """
    start = time.perf_counter()
    rows = [{"kind": "CX", "qutrits": (i % 7, (i + 1) % 7), "angle": i * 0.5}
            for i in range(300)]
    json.dumps(rows)
    a = np.arange(112 * 112, dtype=complex).reshape(112, 112) / 1e3
    for _ in range(2):
        a = a @ a
        a /= np.abs(a).max()
    return time.perf_counter() - start


MODULE_SOURCE = "".join(
    f"def f{i}(a, b=2):\n    x = [a * j + b for j in range(8)]\n"
    f"    return {{'key': x, 'n': len(x)}}\n" for i in range(25))


def setup_probe() -> float:
    """Seconds taken by fixed pure-interpreter work: compile and run a small
    module, as an import does, call its functions, dump their results.

    Set-up is mostly such work, and its speed follows this probe more closely
    than ``probe``, whose numpy half it lacks.
    """
    start = time.perf_counter()
    namespace: dict = {}
    exec(compile(MODULE_SOURCE, "<probe>", "exec"), namespace)
    json.dumps([namespace[f"f{i}"](i) for i in range(25)])
    return time.perf_counter() - start


class Run:
    """Item times, failures and per-round circuit counts of a timed loop.

    Every item runs once a round, between two probes.  Its latency is the
    median over rounds of its wall time scaled by PROBE_REF_S over the mean
    of the two probes around it.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.samples: list[tuple[int, float, int]] = []  # key, wall s, probe index
        self.elapsed = 0.0
        self.attempted = self.failed = self.rounds = 0
        self.problems: list[str] = []
        self.round_counts: dict | None = None

    def note(self, message: str) -> None:
        if len(self.problems) < 5:
            print(message, file=sys.stderr)
        self.problems.append(message)

    def run_item(self, item, key=None, tracer=None) -> dict | None:
        if tracer is not None:
            tracer.item = self.attempted
        self.attempted += 1
        self.probes.append(probe())
        start = time.perf_counter()
        try:
            result = item.run()
        except (Exception, SystemExit):
            self.failed += 1
            self.note(f"{item.cls} failed:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        self.elapsed += elapsed
        self.samples.append((key, elapsed, len(self.probes) - 1))
        try:
            return item.check(result)
        except Exception:
            self.failed += 1
            self.note(f"{item.cls} output rejected:\n{traceback.format_exc()}")
            return None

    def run_round(self, items, tracer=None) -> None:
        totals = {"cx": 0, "gates": 0, "depth": 0}
        for key, item in enumerate(items):
            counts = self.run_item(item, key, tracer)
            for name in totals:
                totals[name] += counts[name] if counts else 0
        if self.round_counts is None:
            self.round_counts = totals
        elif totals != self.round_counts:
            self.note(f"round {self.rounds} counts {totals} != first round {self.round_counts}")
        self.rounds += 1

    def run_for(self, items, seconds: float, min_rounds: int, tracer=None) -> None:
        """Whole rounds until the items' own time reaches ``seconds``."""
        while self.rounds < min_rounds or self.elapsed < seconds:
            self.run_round(items, tracer)
        self.probes.append(probe())

    def latencies(self, scaled: bool = True) -> list[float]:
        """Each item's median over rounds, scaled or as wall time."""
        times: dict[int, list[float]] = {}
        for key, elapsed, i in self.samples:
            speed = (self.probes[i] + self.probes[i + 1]) / 2 if scaled else PROBE_REF_S
            times.setdefault(key, []).append(elapsed * PROBE_REF_S / speed)
        return [statistics.median(v) for v in times.values()]


def timings(latencies: list[float]) -> tuple[float, float, float]:
    """items_per_s, item_p50_ms, item_p90_ms of per-item latencies."""
    return (len(latencies) / sum(latencies), statistics.median(latencies) * 1e3,
            statistics.quantiles(latencies, n=10)[8] * 1e3)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup_probes = [setup_probe() for _ in range(SETUP_PROBES)]
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        items, warmup = workloads.build(args.workload, args.seed, work)
        setup_probes += [setup_probe() for _ in range(SETUP_PROBES)]
        setup = Run()
        for item in warmup:
            setup.run_item(item)
        setup_probes += [setup_probe() for _ in range(SETUP_PROBES)]
        scale = SETUP_PROBE_REF_S / statistics.median(setup_probes)
        print(f"READY {scale!r} {sum(setup_probes)!r}", flush=True)
        if args.setup_only:
            return 0 if not setup.problems else 1
        if args.trace:
            metrics, run = traced(items, args, tracing)
        else:
            run = Run()
            run.run_for(items, args.seconds, MIN_ROUNDS)
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not (setup.problems or run.problems),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def end_to_end(run: Run) -> dict:
    latencies = run.latencies()
    rate, p50, p90 = timings(latencies)
    wall = timings(run.latencies(scaled=False))
    counts = run.round_counts
    return {
        "items_per_s": rate,
        "item_p50_ms": p50,
        "item_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cx_total": counts["cx"],
        "gates_total": counts["gates"],
        "depth_total": counts["depth"],
        "items": len(latencies),
        "rounds": run.rounds,
        "wall": dict(zip(("items_per_s", "item_p50_ms", "item_p90_ms"), wall)),
        "probe_median_ms": statistics.median(run.probes) * 1e3,
    }


def traced(items, args, tracing):
    """Half the time untraced, then half traced; per-layer figures come from
    the traced half, and the gap in items_per_s is the tracing overhead."""
    plain = Run()
    plain.run_for(items, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install()
    run = Run()
    try:
        run.run_for(items, args.seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracing.layer_metrics(tracer, run.rounds)
    traced_rate, plain_rate = timings(run.latencies())[0], timings(plain.latencies())[0]
    metrics["trace.items_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100 * (1 - traced_rate / plain_rate)
    run.problems += plain.problems
    run.attempted += plain.attempted
    run.failed += plain.failed
    return metrics, run


if __name__ == "__main__":
    sys.exit(main())
