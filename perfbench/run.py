"""besovcalc benchmark: one seeded workload, run in this process as a closed
loop with a single caller.

    python3 perfbench/run.py --workload suite|reproduce|calculus \
        --seed N --seconds S --trace 0|1

Each item is timed alone; its reference check runs outside the timer, and an
item that raises or misses its gate counts as failed without ending the run.
--seconds sets the item count (see workloads.ITEMS_PER_S), so one seed always
runs the same items.  With --trace 0 the result carries the end-to-end
metrics.  With --trace 1 the items run once untraced and once more, on freshly
built inputs, with besovcalc's entry points wrapped; the result carries the
per-layer metrics and the tracing overhead (traced minus untraced wall time).

Metric lines and the run environment are printed first; the last line of
standard output is one JSON object with the keys correct, attempted, failed and
metrics.  Run from the repository root: the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# Guard only: a run stops starting items after this many times --seconds (at
# least a minute), so that a much slower machine still ends well within limits.
DEADLINE_FACTOR = 3.0
DIGITS_FLOOR = 1e-16

# The end-to-end metrics of the JSON result, each with a bound in BENCHMARK.json.
# items_per_s, item_p50_s, item_tail_s and failed_frac are printed above it
# without a bound: on the 2-CPU sandbox that defined the benchmark, the same
# call's wall time drifts up to twofold within a minute, so the spread of item
# times over ten runs exceeds the largest bound a metric may have (0.25).
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_frac": "ratio",
    "bound_cover_frac": "ratio",
    "min_digits": "digits",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    name: str
    group: str
    seconds: float
    check: "Check"

    @property
    def passed(self) -> bool:
        return self.check.passed


def import_program():
    """Import besovcalc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import besovcalc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import besovcalc from {SRC}: {exc}")
    if Path(besovcalc.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: besovcalc was imported from {besovcalc.__file__}, not {SRC}")


def run_items(items, recorder=None, deadline=math.inf):
    """Run items in order, one at a time; return one Outcome per item attempted."""
    from workloads import Check

    outcomes = []
    for item in items:
        if time.perf_counter() > deadline:
            break
        if recorder is not None:
            recorder.active = True
        start = time.perf_counter()
        try:
            result = item.run()
            error = None
        except Exception as exc:  # any failure is one failed item; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if recorder is not None:
            recorder.active = False
        if error is None:
            try:
                check = item.check(result)
            except Exception as exc:
                error = f"reference check raised {type(exc).__name__}: {exc}"
        if error is not None:
            check = Check(False, reason=error)
        outcomes.append(Outcome(item.name, item.group, seconds, check))
    return outcomes


def traced_pass(workload: str, seed: int, n_items: int):
    """Build the inputs and run the items with besovcalc's entry points wrapped."""
    import tracing
    import workloads

    rec = tracing.Recorder()
    with tracing.installed(rec):
        rec.active = True
        items = workloads.build(workload, seed, n_items)
        rec.active = False
        outcomes = run_items(items, recorder=rec)
    return outcomes, rec


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n items above its rank (0 if none)."""
    for q in range(99, 0, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; q = 0 gives the largest value."""
    n = len(sorted_values)
    if q <= 0:
        return sorted_values[-1]
    return sorted_values[max(math.ceil(q * n / 100), 1) - 1]


def summarize(outcomes) -> dict:
    """End-to-end figures of one pass; see END_TO_END_UNITS."""
    n = len(outcomes)
    times = sorted(o.seconds for o in outcomes)
    busy = sum(times)
    passed = sum(o.passed for o in outcomes)
    referenced = [o for o in outcomes if o.check.gap is not None and o.check.bound is not None]
    uncovered = [o for o in referenced if o.check.gap > o.check.bound]
    covered = len(referenced) - len(uncovered)
    gaps = [o.check.gap for o in outcomes if o.check.gap is not None]
    q = tail_percentile(n)
    return {
        "n": n,
        "busy_s": busy,
        "tail_q": q,
        "referenced": len(referenced),
        "covered": covered,
        "uncovered": uncovered,
        "failed": [o for o in outcomes if not o.passed],
        "items_per_s": passed / busy if busy > 0 else 0.0,
        "item_p50_s": percentile(times, 50),
        "item_tail_s": percentile(times, q),
        "pass_frac": passed / n,
        "failed_frac": (n - passed) / n,
        "bound_cover_frac": covered / len(referenced) if referenced else 0.0,
        "min_digits": min(-math.log10(max(g, DIGITS_FLOOR)) for g in gaps) if gaps else 0.0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_commit": git_commit(),
    }


def setup_probe(workload: str, seed: int, n_items: int) -> float:
    """Import the program and build the inputs in a fresh interpreter; return seconds."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--items",
        str(n_items),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def print_end_to_end(workload, seed, s, setup_s):
    print(f"workload {workload}  seed {seed}  items {s['n']}  busy {s['busy_s']:.3f} s")
    tail = f"p{s['tail_q']}" if s["tail_q"] else "max (fewer than 11 items)"
    rows = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} fresh imports plus input builds"),
        ("items_per_s", s["items_per_s"], "1/s", "passed items per second of item time; no bound"),
        ("item_p50_s", s["item_p50_s"], "s", f"{s['n']} items; no bound"),
        ("item_tail_s", s["item_tail_s"], "s", f"{tail} of {s['n']} items; no bound"),
        ("failed_frac", s["failed_frac"], "ratio", f"{len(s['failed'])} of {s['n']} items; bounded as pass_frac"),
        ("pass_frac", s["pass_frac"], "ratio", "1 - failed_frac"),
        (
            "bound_cover_frac",
            s["bound_cover_frac"],
            "ratio",
            f"{s['covered']} of {s['referenced']} items with a reference",
        ),
        ("min_digits", s["min_digits"], "digits", "-log10 of the largest gap to a reference"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "this process"),
    ]
    for name, value, unit, note in rows:
        if value is not None:
            print(f"  {name:<18} {value:>12.6g} {unit:<7} {note}")
    for o in s["failed"]:
        print(f"  FAILED {o.name}: {o.check.reason}")
    for o in s["uncovered"]:
        print(f"  UNCOVERED {o.name}: gap {o.check.gap:.3e} > reported bound {o.check.bound:.3e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "reproduce", "calculus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--items", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One BLAS thread: a closed loop with one caller, small dense matrices, and
    # work counts that do not depend on a threaded reduction order.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    started = time.perf_counter()
    import_program()
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.items)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0

    import tracing

    n_items = workloads.item_count(args.workload, args.seconds)
    deadline = started + max(DEADLINE_FACTOR * args.seconds, 60.0)
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(
            setup_probe(args.workload, args.seed, n_items) for _ in range(SETUP_REPEATS)
        )
    items = workloads.build(args.workload, args.seed, n_items)
    plain = run_items(items, deadline=deadline)
    summary = summarize(plain)
    if len(plain) < n_items:
        print(f"deadline reached: {len(plain)} of {n_items} items attempted")
    print_end_to_end(args.workload, args.seed, summary, setup_s)
    outcomes = plain

    if args.trace:
        outcomes, rec = traced_pass(args.workload, args.seed, len(plain))
        family_s: dict[str, float] = {}
        for o in plain:
            family_s[o.group] = family_s.get(o.group, 0.0) + o.seconds
        traced_s = sum(o.seconds for o in outcomes)
        metrics = tracing.layer_metrics(rec, family_s, traced_s, summary["busy_s"])
        print(f"traced: {len(outcomes)} items, {traced_s:.3f} s traced vs {summary['busy_s']:.3f} s untraced")
        for name, m in metrics.items():
            value = m["value"]
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"  {name:<36} {shown} {m['unit']}")
    else:
        values = {**summary, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print("env " + json.dumps(environment(), sort_keys=True))
    failed = sum(not o.passed for o in outcomes)
    result = {
        "correct": failed == 0 and all(o.passed for o in plain),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
