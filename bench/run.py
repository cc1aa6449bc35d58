"""Benchmark entry point for lambda-forge.

    python3 bench/run.py --workload {certify,verify,sample} --seed N \\
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed in a fresh interpreter, times
set-up, then runs a fixed number of whole rounds of items (as many as fill
S seconds on the reference machine) in a closed loop (one client, one item
in flight), checking every result.  Times are CPU times over the pace of a
probe thread on the same core, in reference-machine seconds (``pacing``).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
traces set-up and a fixed number of rounds for the per-layer metrics, then
alternates untraced and traced rounds for S seconds to report the tracing
overhead.  The last line of standard output is the result object; the line
before it is the full record (provenance, input digest, percentiles),
also written under ``bench/out/``.
"""

import time

SCRIPT_START = time.perf_counter()
SCRIPT_CPU = time.thread_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
#: CPUs this process may use, before it pins itself to one
NPROC = len(os.sched_getaffinity(0))


def die(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program() -> None:
    """Import lambda_forge from the checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "lambda_forge", "__init__.py")):
        die(f"no lambda_forge sources under {SRC}")
    sys.path.insert(0, SRC)
    import lambda_forge

    if not os.path.abspath(lambda_forge.__file__).startswith(SRC + os.sep):
        die(f"lambda_forge imported from {lambda_forge.__file__}, not {SRC}")


# -- provenance -------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "nproc": NPROC,
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "seed": seed,
    }


# -- running ----------------------------------------------------------------


class Tally:
    """Attempts and failures over a stretch of item runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.deferred = []
        self.errors = []

    def fail(self, item, why: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append({"kind": item.get("kind"), "why": why})


def run_one(wl, item, tally: Tally, ok=None, index: int = 0, clock=time.perf_counter):
    """Runs and checks one item; returns its latency by ``clock``, None if
    it raised.

    ``ok[index]`` is cleared when the item fails, at once or, for a
    deferred check, in ``settle``.
    """
    tally.attempted += 1
    start = clock()
    try:
        result = wl.run_item(item)
    except Exception as exc:  # an item that raises counts as failed
        tally.fail(item, f"{type(exc).__name__}: {exc}")
        if ok is not None:
            ok[index] = False
        return None
    latency = clock() - start
    if wl.deferred_check:
        tally.deferred.append((item, result, ok, index))
    elif not wl.check(item, result):
        tally.fail(item, "result failed its exactness check")
        if ok is not None:
            ok[index] = False
    return latency


def run_round(wl, batch, tally: Tally, tracer=None, first_item: int = 0) -> float:
    """Runs a list of items; returns the seconds it took."""
    start = time.perf_counter()
    for offset, item in enumerate(batch):
        if tracer is not None:
            tracer.item = first_item + offset
        run_one(wl, item, tally)
    return time.perf_counter() - start


def settle(wl, tally: Tally):
    """Run deferred checks (outside every timed span)."""
    for item, result, ok, index in tally.deferred:
        if not wl.check(item, result):
            tally.fail(item, "result failed its check after the timed span")
            if ok is not None:
                ok[index] = False
    tally.deferred = []


def measure(wl, items, tally: Tally, pacer):
    """Runs the items once, in order; returns (latencies, ok, wall).

    A latency is the item's main-thread CPU time over the pace during it
    (``pacing``), in reference-machine seconds, or None if the item raised.
    ``ok`` is False for an item that raised or failed its check.  As in
    ``timeit``, the cyclic garbage collector is off while items run: the
    probe thread's allocations would move its collections from item to
    item.
    """
    perf_counter, thread_time = time.perf_counter, time.thread_time
    ok = [True] * len(items)
    runs = []
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        for index, item in enumerate(items):
            begin = perf_counter()
            cpu = run_one(wl, item, tally, ok, index, clock=thread_time)
            runs.append((cpu, begin, perf_counter()))
        wall = perf_counter() - start
    finally:
        gc.enable()
    settle(wl, tally)
    latencies = [None if cpu is None else cpu / pacer.pace(begin, end)
                 for cpu, begin, end in runs]
    return latencies, ok, wall


def tail(latencies):
    """(value, percentile) of the highest percentile with >= 10 items beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def paced_setup(pacer) -> float:
    """Main-thread CPU time since the script started, in reference seconds."""
    return (time.thread_time() - SCRIPT_CPU) / pacer.pace(SCRIPT_START, time.perf_counter())


def setup_in_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"set-up child failed:\n{proc.stderr}", 1)
    return float(proc.stdout.strip().splitlines()[-1])


def make_workload(args, workdir):
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    return wl


def end_to_end(args, workdir, pacer):
    import workloads

    repeats = workloads.SETUP_REPEATS[args.workload]
    setups = [setup_in_child(args) for _ in range(repeats - 1)]
    wl = make_workload(args, workdir)
    setups.append(paced_setup(pacer))
    stream = wl.rounds()
    rounds = wl.rounds_for(args.seconds)
    items = [item for _ in range(rounds) for item in next(stream)]
    tally = Tally()
    latencies, ok, wall = measure(wl, items, tally, pacer)
    timed = [lat for lat in latencies if lat is not None]
    work = sum(wl.units(item) for item, good in zip(items, ok) if good)
    rate = work / sum(timed) if timed else 0.0
    p50 = statistics.median(timed) if timed else 0.0
    tail_s, tail_pct = tail(timed) if timed else (0.0, 0.0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (rate, "1/s"),
        "item_p50_ms": (p50 * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_kind = {}
    for item, latency in zip(items, latencies):
        if latency is not None:
            by_kind.setdefault(item["kind"], []).append(latency)
    unit = workloads.WORK_UNIT[args.workload]
    extra = {
        "work_unit": unit,
        f"{unit}_per_s": rate,
        "rounds": rounds,
        "mean_pace": pacer.mean_pace(),
        "wall_work_per_s": work / wall,
        "failed_ratio": tally.failed / tally.attempted,
        "latency_samples": len(timed),
        "tail_percentile": tail_pct,
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
        "kind_items": {k: len(v) for k, v in by_kind.items()},
        "setup_runs_s": setups,
        "timed_s": wall,
        "inputs_digest": wl.inputs_digest(),
    }
    return tally, metrics, extra


def traced(args, workdir):
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    wl = make_workload(args, workdir)
    stream = wl.rounds()
    tally = Tally()
    per_round = len(wl.round_kinds)
    for r in range(workloads.TRACED_ROUNDS[args.workload]):
        run_round(wl, next(stream), tally, tracer, r * per_round)
    tracer.uninstall()
    missing = tracer.missing(args.workload)
    if missing:
        die("traced run recorded no call of expected layers "
            f"{missing} on {args.workload}; a wrapper missed a renamed import", 3)

    # rounds alternate plain, traced, traced, plain, ... so that neither
    # side always gets the odd or the even rounds of the stream
    seconds = {False: 0.0, True: 0.0}
    work = {False: 0, True: 0}
    start = time.perf_counter()
    block = 0
    while time.perf_counter() - start < args.seconds or not work[True]:
        for traced_round in ((False, True) if block % 2 == 0 else (True, False)):
            batch = next(stream)
            side = Tracer()
            if traced_round:
                side.install()
            try:
                seconds[traced_round] += run_round(wl, batch, tally)
            finally:
                side.uninstall()
            work[traced_round] += sum(wl.units(item) for item in batch)
        block += 1
    settle(wl, tally)
    metrics = tracer.metrics()
    overhead = (work[False] / seconds[False]) / (work[True] / seconds[True])
    metrics["trace.overhead"] = (overhead, "ratio")
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
    tracer.save(spans)
    extra = {
        "traced_rounds": workloads.TRACED_ROUNDS[args.workload],
        "spans_file": os.path.relpath(spans, ROOT),
        "spans": len(tracer.span_id),
        "failed_ratio": tally.failed / tally.attempted,
        "inputs_digest": wl.inputs_digest(),
    }
    return tally, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "verify", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print its seconds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")

    import_program()
    pacer = None
    if not args.trace:
        from pacing import Pacer, pin_to_one_cpu

        pin_to_one_cpu()
        pacer = Pacer().start()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            make_workload(args, workdir)
            print(paced_setup(pacer))
            return 0
        if args.trace:
            tally, metrics, extra = traced(args, workdir)
        else:
            tally, metrics, extra = end_to_end(args, workdir, pacer)
    except Exception:
        traceback.print_exc()
        die("run aborted", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if pacer is not None:
            pacer.stop()

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
