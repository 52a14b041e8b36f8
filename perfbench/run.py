#!/usr/bin/env python3
"""renorml1 benchmark: one closed-loop client, one process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload witness-deep --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the tree the script sits in. An op is
one verified report: one in-process ``renorml1.cli.main([...])`` call with
``--out`` in a scratch directory, or one public library call. The timed phase
repeats whole passes over the workload's ops until ``--seconds`` of op time
are spent; every op is checked outside the timed region. An op's latency is
its median over the passes.

Op times are reported at a reference machine speed; see ``Speedometer``.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass
untraced and the same pass traced, and prints the per-layer metrics. The last
stdout line is the JSON result; the line before it is a readable summary.

Scratch files, span dumps and per-seed records live under ``.perfbench_run/``.
A record holds the input digest, the report digest and the exact counters of
one (workload, seed, source) triple; a later run that disagrees with it is
reported as incorrect.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from oracle import max_bits
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

SETUP_REPS = 9
MAX_WALL_S = 150.0
# Speed probe: a fixed Fraction kernel, run from a timer signal this often.
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.5
# The kernel's time at the reference speed (median on a 2-vCPU VM, Python 3.11).
PROBE_REF_S = 1.2e-3
_PROBE_TERMS = tuple(Fraction(i % 97 - 48, i % 89 + 1) for i in range(400))
# Counters that must repeat exactly for the same source and seed.
EXACT = (
    "max_bits",
    "cli.report_bytes",
    "dyadic.calls",
    "dyadic.cells",
    "renorm.tnorm_sq.calls",
    "renorm.tnorm_sq.cells",
    "witness.d2p_witness.calls",
    "witness.split_level_max",
    "probes.calls",
    "renorm.dual_norm_estimate.iterations",
    "ell1.combo_l1.calls",
    "ured.steps",
    "cli.main.calls",
    "spans",
)


def load_package(src: Path) -> SimpleNamespace:
    """A fresh import of renorml1 from `src`, so every set-up pays for it."""
    for name in [n for n in sys.modules if n == "renorml1" or n.startswith("renorml1.")]:
        del sys.modules[name]
    pkg = importlib.import_module("renorml1")
    if Path(pkg.__file__).resolve().parent != (src / "renorml1").resolve():
        raise ImportError(f"renorml1 imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{n: importlib.import_module("renorml1." + n) for n in LAYERS})


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "renorml1").glob("*.py"), *(root / "perfbench").glob("*.py")]):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Speedometer:
    """Times calls at the reference machine speed.

    The host's CPU speed drifts by up to a third within a minute. A timer
    signal runs a fixed Fraction kernel every PROBE_EVERY_S, also in the middle
    of long ops. The package spends nearly all its time in Fraction arithmetic,
    like the kernel, so a call's time multiplied by PROBE_REF_S over the mean
    kernel time from PROBE_WINDOW_S before the call to PROBE_WINDOW_S after it
    reads the same at any speed. Time spent in the signal handler is not
    counted toward the call.
    """

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.kernel: list[float] = []  # its kernel seconds
        self.spent = 0.0  # seconds inside the handler

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, *_) -> None:
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would be the interrupted op's work
        try:
            best = float("inf")
            for _ in range(2):
                k0 = perf_counter()
                acc = Fraction(0)
                for x in _PROBE_TERMS:
                    acc += x * x
                best = min(best, perf_counter() - k0)
        finally:
            if collecting:
                gc.enable()
        self.times.append(t0)
        self.kernel.append(best)
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        """Seconds, not counting time spent in the handler."""
        return perf_counter() - self.spent

    def measure(self, fn):
        """Run fn(); returns (result or raised exception, (raw s, start, end))."""
        spent0 = self.spent
        t0 = perf_counter()
        try:
            result = fn()
        except (Exception, SystemExit) as exc:
            result = exc
        t1 = perf_counter()
        return result, (t1 - t0 - (self.spent - spent0), t0, t1)

    def adjust(self, timing: tuple[float, float, float]) -> float:
        """A measured call's time at the reference speed; best called once the
        samples after the call have been taken."""
        raw, t0, t1 = timing
        seen = self.kernel[
            bisect.bisect_left(self.times, t0 - PROBE_WINDOW_S) : bisect.bisect_right(self.times, t1 + PROBE_WINDOW_S)
        ] or self.kernel[-1:]
        return raw * PROBE_REF_S * len(seen) / sum(seen)


class Runner:
    """Runs passes over a workload's ops; checks and digests every report."""

    def __init__(self, wl, speed: Speedometer):
        self.wl = wl
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}  # op index -> report digest (CLI) or result (library)
        self.digest = hashlib.sha256()
        self.max_bits = 0
        self.cli_bytes = 0

    def run_pass(self, tracer: Tracer | None = None) -> list[tuple[float, float, float]]:
        """One pass over the ops; returns their (raw seconds, start, end)."""
        first_pass = not self.first
        timings = []
        for i, op in enumerate(self.wl.ops):
            if tracer:
                tracer.op, tracer.active = i, True
            result, timing = self.speed.measure(op.run)
            timings.append(timing)
            if tracer:
                tracer.active = False
            self.attempted += 1
            try:
                if isinstance(result, BaseException):
                    raise result
                if first_pass:
                    data = op.check(result)
                    self.first[i] = hashlib.sha256(data).digest() if op.cli else result
                    self.digest.update(hashlib.sha256(data).digest())
                    self.max_bits = max(self.max_bits, max_bits(data))
                    self.cli_bytes += len(data) if op.cli else 0
                elif op.cli:
                    if hashlib.sha256(op.check(result)).digest() != self.first[i]:
                        raise ValueError("report bytes differ from the first pass")
                elif result != self.first[i]:
                    raise ValueError("result differs from the first pass")
            except (Exception, SystemExit) as exc:
                self.failed += 1
                if first_pass:
                    self.first[i] = None
                    self.digest.update(b"failed")
                print(f"op {i} ({op.kind}) failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return timings


def set_up(src: Path, name: str, seed: int, scratch: Path):
    """Import, generate and write the inputs, and run the warm-up ops."""
    mods = load_package(src)
    wl = WORKLOADS[name](mods, seed, scratch)
    for op in wl.warmup:
        op.check(op.run())
    return wl


def check_record(path: Path, fields: dict) -> list[str]:
    """Compare with what earlier runs of this source and seed recorded."""
    old = json.loads(path.read_text()) if path.exists() else {}
    diffs = [f"{k}: {old[k]} != {v}" for k, v in fields.items() if k in old and old[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**old, **fields}, indent=1, sort_keys=True))
    return diffs


def bench(args, root: Path, scratch: Path, speed: Speedometer) -> int:
    src = root / "src"
    wall0 = perf_counter()
    problems: list[str] = []

    setup_timings, input_digests = [], set()
    for _ in range(1 if args.trace else SETUP_REPS):
        wl, timing = speed.measure(lambda: set_up(src, args.workload, args.seed, scratch))
        if isinstance(wl, BaseException):
            raise wl
        setup_timings.append(timing)
        input_digests.add(wl.input_digest())
    if len(input_digests) != 1:
        problems.append("inputs differ between set-ups")

    # The inputs stay alive all run; keep collections from walking them in timed ops.
    gc.collect()
    gc.freeze()
    runner = Runner(wl, speed)
    if args.trace:
        untraced = runner.run_pass()
        tracer = Tracer(wl.mods, speed.clock)
        tracer.install()
        try:
            traced = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        untraced_s = sum(map(speed.adjust, untraced))
        traced_s = sum(map(speed.adjust, traced))
        metrics = tracer.metrics(traced_s / sum(t[0] for t in traced), traced_s, untraced_s)
        metrics["max_bits"] = runner.max_bits
        metrics["cli.report_bytes"] = runner.cli_bytes
        spans = root / ".perfbench_run" / "spans" / f"{args.workload}-seed{args.seed}.csv.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
        units = {k: ("count" if k in EXACT or k.endswith(".calls") else "s") for k in metrics}
        units.update({"max_bits": "bits", "cli.report_bytes": "bytes"})
        units["trace_overhead_ratio"] = units["renorm.dual_norm_estimate.converged_ratio"] = "ratio"
        counters = {k: metrics[k] for k in EXACT}
        summary = f"traced {len(traced)} ops in {traced_s:.3f} s, untraced {untraced_s:.3f} s; spans in {spans}"
    else:
        passes, raw_timed = [], 0.0
        while raw_timed < args.seconds and perf_counter() - wall0 < MAX_WALL_S:
            passes.append(runner.run_pass())
            raw_timed += sum(t[0] for t in passes[-1])
        adjusted = [[speed.adjust(t) for t in p] for p in passes]
        timed = sum(map(sum, adjusted))
        # one latency per op of the pass, the median over the passes, so the
        # percentiles do not depend on how many passes fitted in the run
        latencies = [statistics.median(op) for op in zip(*adjusted)]
        metrics = {
            "ops_per_s": len(passes) * len(latencies) / timed,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "setup_s": statistics.median(map(speed.adjust, setup_timings)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
        counters = {}
        summary = (
            f"{len(passes)} passes of {len(latencies)} ops in {raw_timed:.3f} s ({timed:.3f} s at reference speed);"
            f" op_p50_ms and op_p90_ms from {len(latencies)} per-op medians ({len(latencies) // 10} beyond p90)"
        )

    report_digest = runner.digest.hexdigest()
    record = root / ".perfbench_run" / "records" / f"{args.workload}-seed{args.seed}-{source_digest(root)[:16]}.json"
    problems += check_record(record, {"inputs_sha256": input_digests.pop(), "reports_sha256": report_digest, **counters})
    for p in problems:
        print(f"not repeatable: {p}", file=sys.stderr)

    print(
        f"# {args.workload} seed={args.seed}: {summary}; failed {runner.failed}/{runner.attempted};"
        f" reports sha256 {report_digest}"
    )
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "renorml1" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'renorml1'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = root / ".perfbench_run" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with Speedometer() as speed:
            return bench(args, root, scratch, speed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
