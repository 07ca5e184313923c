"""Benchmark for sampled policy evaluation, the exact referees and the
process pool.

    python3 bench/run.py --workload feedback --seed 1 --seconds 20 --trace 0

Builds the workload from the seed, runs whole rounds of its operations
until --seconds have passed, checks every output outside the timed part
and prints one JSON line last: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
peak_rss_mb). With --trace 1 each round runs twice, untraced and then
traced, and the metrics are per layer (see README.md). Files go to
.bench_out/ at the repository root.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 15
REF_START_SECONDS = 0.09   # reference start time at the speed setup_s is quoted at
REF_SECONDS = 0.004   # reference task time at the speed ops_per_s is quoted at
REF_EVERY = 0.25      # seconds of rounds between two reference samples

_rng = random.Random(5)
_REF_ADJ = [[_rng.randrange(200) for _ in range(4)] for _ in range(200)]
del _rng


def reference_seconds() -> float:
    """Median of three timings of a fixed pure-Python task that runs no
    pfim code: reachability with big-int masks from 20 sources over a
    fixed random 200-node graph, plus dict updates. It uses the
    interpreter the way the workloads do, so its time follows the
    machine's speed; the median drops a timing disturbed by a process
    that has just exited. Garbage collection is off while it runs."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            counts: dict[int, int] = {}
            for s in range(20):
                seen, stack = 1 << s, [s]
                while stack:
                    for v in _REF_ADJ[stack.pop()]:
                        if not seen >> v & 1:
                            seen |= 1 << v
                            stack.append(v)
                counts[seen.bit_count()] = counts.get(seen.bit_count(), 0) + 1
            for i in range(1300):
                counts[i % 97] = counts.get(i % 97, 0) + i
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        gc.enable()


def _import_program():
    """Put the checkout's sources ahead of anything installed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads
    return workloads


def timed_round(workload, r: int):
    """Run round r; return its seconds, its outputs (None if it raised)
    and the error text. A round that raises fails all its operations."""
    t0 = time.perf_counter()
    try:
        out, err = workload.run_round(r), None
    except Exception as exc:  # an operation failed: count it, keep measuring
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def check_round(workload, r: int, out, err) -> tuple[int, int, int]:
    """Returns the (attempted, failed, wrong) operation counts of round r,
    whose outputs are `out`, or None if it raised `err`. An operation
    fails when its round raised, a check finds a problem or it shows the
    workload's known program fault (`known_faults`). It is wrong, which
    makes `correct` false, unless the known fault is all that was found."""
    if out is None:
        print(f"round {r} raised {err}", file=sys.stderr)
        return workload.round_size, workload.round_size, 0
    failed = wrong = 0
    for p, fault in zip(workload.problems(r, out), workload.known_faults(r, out),
                        strict=True):
        if p or fault:
            failed += 1
            wrong += bool(p)
            if r == 0 or p:
                texts = p + [f"known fault: {text}" for text in fault]
                print(f"round {r}: {'; '.join(texts)}", file=sys.stderr)
    return len(out), failed, wrong


def start_seconds(argv: list[str]) -> float:
    """Seconds from starting this file in a fresh interpreter with argv to
    its first line, which must read "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"start-up probe {argv} failed")
    return elapsed


def probe_setup(args) -> float:
    """Time from process start to the end of set-up (imports, graph
    generation or loading, instances), quoted at a fixed start-up speed.
    Each of SETUP_PROBES fresh interpreters that only set up is paired
    with a reference start just before it: the same interpreter runs
    this file with --reference-start, which loads this file and its
    standard library modules and stops, no pfim code. The result is the
    median set-up over reference ratio times REF_START_SECONDS, so that
    the machine's speed of starting processes and importing cancels."""
    ratios = []
    for _ in range(SETUP_PROBES):
        ref = start_seconds(["--reference-start"])
        ratios.append(start_seconds(["--setup-probe", "--workload", args.workload,
                                     "--seed", str(args.seed)]) / ref)
    return statistics.median(ratios) * REF_START_SECONDS


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any child it has
    waited for (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_untraced(args, workload) -> dict:
    """`ops_per_s` is quoted at a fixed machine speed. A reference task
    runs before the first round and then after every REF_EVERY seconds
    of rounds. Each round's time is scaled by REF_SECONDS over the mean
    of the two reference samples around it, so that drifts in the
    machine's speed cancel.

    Each round is checked as soon as it has run, and only what `rate`
    needs of its outputs is kept (`Workload.keep`). Kept outputs would
    otherwise add to peak_rss_mb as a faster program fits more rounds
    into the run. Checking does not count towards --seconds."""
    counts, done, rounds = [0, 0, 0], [], 0
    refs = [reference_seconds()]
    start = last = time.perf_counter()
    checking = 0.0
    while (not rounds or rounds % workload.cycle
           or time.perf_counter() - start - checking < args.seconds):
        t, out, err = timed_round(workload, rounds)
        t0 = time.perf_counter()
        counts = [a + b for a, b in zip(counts, check_round(workload, rounds, out, err))]
        if out is not None:
            done.append((t, workload.keep(out), len(refs) - 1))
        rounds += 1
        checking += time.perf_counter() - t0
        if time.perf_counter() - last >= REF_EVERY:
            refs.append(reference_seconds())
            last = time.perf_counter()
    refs.append(reference_seconds())
    rss = peak_rss_mb()
    scaled = [(t * 2.0 * REF_SECONDS / (refs[b] + refs[b + 1]), kept) for t, kept, b in done]
    attempted, failed, wrong = counts
    metrics = {
        "setup_s": {"value": probe_setup(args), "unit": "s"},
        "ops_per_s": {"value": workload.rate(*zip(*scaled)) if scaled else 0.0,
                      "unit": "ops/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return {"correct": wrong == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_traced(args, workloads, workload) -> dict:
    """Each round runs untraced and then traced, so that both copies see
    the same operations and the same machine load. The untraced copy is
    checked, and the traced copy must equal it."""
    import tracing

    spill = os.path.join(OUTDIR, f"spill-{args.workload}-{args.seed}")
    shutil.rmtree(spill, ignore_errors=True)
    os.makedirs(spill)
    setup_tracer = tracing.Tracer(spill)
    uninstall = tracing.install(setup_tracer)
    try:
        workloads.WORKLOADS[args.workload](args.seed, OUTDIR)
    finally:
        uninstall()
    setup_spans = setup_tracer.collect()

    tracer = tracing.Tracer(spill)
    counts, done, rounds = [0, 0, 0], [], 0   # done: (untraced s, traced s, work)
    start = time.perf_counter()
    checking = 0.0
    while (not rounds or rounds % workload.cycle
           or time.perf_counter() - start - checking < args.seconds):
        t, out, err = timed_round(workload, rounds)
        uninstall = tracing.install(tracer)
        try:
            traced_t, traced_out, _ = timed_round(workload, rounds)
        finally:
            uninstall()
        t0 = time.perf_counter()
        counts = [a + b for a, b in zip(counts, check_round(workload, rounds, out, err))]
        if out is not None and out != traced_out:
            counts[1] += len(out)
            counts[2] += len(out)
            print(f"round {rounds}: traced output differs from untraced", file=sys.stderr)
        if out is not None:
            done.append((t, traced_t, workload.work(workload.keep(out))))
        rounds += 1
        checking += time.perf_counter() - t0
    spans = tracer.collect()
    shutil.rmtree(spill, ignore_errors=True)
    if args.workload == "perturbed" and all(s[5] == tracer.main_pid for s in spans):
        raise RuntimeError("no spans came back from the pool workers")

    attempted, failed, wrong = counts
    metrics = tracing.layer_metrics(
        spans, max(1, sum(d[2] for d in done)), setup_spans,
        sum(d[0] for d in done), sum(d[1] for d in done))
    with open(os.path.join(OUTDIR, f"trace-{args.workload}-{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs", "pid"],
                   "spans": spans}, fh)
    return {"correct": wrong == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if (sys.argv[1:] if argv is None else argv) == ["--reference-start"]:
        print("ready", flush=True)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["feedback", "blind", "perturbed", "referee"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.makedirs(OUTDIR, exist_ok=True)

    workloads = _import_program()
    outdir = os.path.join(OUTDIR, "probe") if args.setup_probe else OUTDIR
    os.makedirs(outdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    result = (run_traced(args, workloads, workload) if args.trace
              else run_untraced(args, workload))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
