"""httpglass benchmark: seeded workloads timed end to end through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up generates the workload's inputs from
the seed (at least three times).  The timed loop then calls
``httpglass.cli.main`` in-process, one command after another (a closed loop
with one client), until ``--seconds`` have passed and at least two commands
have run.  A fixed host-speed reference (hostspeed.py) runs before every
set-up and command and after the last, and every reported time is the
median over the run of the time adjusted to nominal host speed.  Every
command's output file must hash the same.  The output checks run after the
loop.  The last line of standard output is one JSON object; the exit code is
1 when a check fails.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
half the time runs untraced and half with spans around every layer call, and
the metrics are the per-layer ones.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_run"
# set-up runs at least SETUPS times and until SETUP_SECONDS have passed, so a
# cheap set-up (train, keyscan) gets more samples than an expensive one
SETUPS = 3
SETUP_SECONDS = 2.0


def describe(name: str, times: list[float]) -> str:
    q = statistics.quantiles(times, n=4)
    return (f"{name}: {len(times)} samples; min {min(times):.4f} quartiles "
            f"{q[0]:.4f} {q[1]:.4f} {q[2]:.4f} max {max(times):.4f} s")


def repeat(step, reference, enough) -> tuple[list[float], list[float]]:
    """Call ``step``, which returns the time it measured, until
    ``enough(times)``, with the reference before each call and after the
    last; returns (the times of ``step``, the reference times)."""
    times, refs = [], [reference.time()]
    while not enough(times):
        times.append(step())
        refs.append(reference.time())
    return times, refs


def report(name: str, times: list[float], refs: list[float]) -> float:
    """Print the raw and adjusted times; returns the adjusted median."""
    adjusted = hostspeed.adjusted(times, refs)
    print(describe(f"{name} raw", times))
    print(describe("host reference", refs))
    print(describe(f"{name} at nominal host speed", adjusted))
    return statistics.median(adjusted)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(cli, workload) -> float:
    """Run one CLI command; returns its wall time.  Raises on a non-zero exit."""
    gc.collect()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(workload.argv())
        wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(workload.argv())} exited {code}: "
                           f"{err.getvalue().strip()}")
    return wall


def timed_loop(cli, workload, seconds: float, reference,
               fingerprints: list) -> tuple[list[float], list[float]]:
    """Commands back to back until ``seconds`` have passed (at least two)."""
    def command():
        wall = run_command(cli, workload)
        fingerprints.append(sha256(workload.path(workload.output)))
        return wall
    deadline = time.perf_counter() + seconds
    return repeat(command, reference, lambda walls: len(walls) >= 2
                  and time.perf_counter() >= deadline)


def peak_memory_mb(cli, workload, fingerprints: list) -> float:
    """Peak Python heap of one command, traced by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        run_command(cli, workload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fingerprints.append(sha256(workload.path(workload.output)))
    return peak / 1e6


def profile_throughput(workload) -> dict:
    """MiB/s of scanning the dump with one keyscan profile at a time."""
    from httpglass import keyscan
    out = {}
    for profile in keyscan.PROFILE_NAMES:
        start = time.perf_counter()
        keyscan.scan_file(workload.path("dump.bin"), profiles=[profile])
        out[f"keyscan.mib_per_s.{profile}"] = (
            workload.input_bytes / 2 ** 20 / (time.perf_counter() - start))
    return out


def traced_metrics(cli, workload, seconds: float, fingerprints: list) -> dict:
    """Untraced and traced commands alternate, so both meet the same host."""
    import spans  # only a traced run loads the wrappers
    tracer = spans.Tracer()
    run_command(cli, workload)  # warm caches, as the memory run does untraced
    untraced = []
    deadline = time.perf_counter() + seconds
    while len(untraced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_command(cli, workload))
        fingerprints.append(sha256(workload.path(workload.output)))
        restore = spans.install(tracer)
        try:
            run_command(cli, workload)
        finally:
            restore()
        fingerprints.append(sha256(workload.path(workload.output)))
    tracer.write(os.path.join(WORK, f"{workload.name}.spans.jsonl"))
    metrics, walls, self_sums = spans.layer_metrics(tracer)
    wall, traced = statistics.median(untraced), statistics.median(walls)
    metrics["trace.overhead_frac"] = traced / wall - 1
    print(f"trace: span self times of a traced command sum to a median of "
          f"{statistics.median(self_sums):.4f} s; median traced wall_s "
          f"{traced:.4f} s, untraced {wall:.4f} s (raw), overhead "
          f"{metrics['trace.overhead_frac']:+.2%}")
    if workload.name == "keyscan":
        metrics.update(profile_throughput(workload))
    else:
        from httpglass.keyscan import PROFILE_NAMES
        metrics.update({f"keyscan.mib_per_s.{p}": 0.0 for p in PROFILE_NAMES})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "httpglass", "cli.py")):
        print("error: src/httpglass not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from httpglass import cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(cli, workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, workloads, args, workdir) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    reference = hostspeed.Reference()

    def setup():
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        return time.perf_counter() - start
    setups, setup_refs = repeat(setup, reference, lambda times: len(times)
                                >= SETUPS and sum(times) >= SETUP_SECONDS)

    fingerprints: list[str] = []
    try:
        if args.trace:
            metrics = traced_metrics(cli, workload, args.seconds, fingerprints)
        else:
            # the memory-traced command also warms caches before timing
            peak = peak_memory_mb(cli, workload, fingerprints)
            walls, refs = timed_loop(cli, workload, args.seconds, reference,
                                     fingerprints)
            wall = report("wall_s", walls, refs)
            metrics = {"setup_s": report("setup_s", setups, setup_refs),
                       "wall_s": wall,
                       "records_per_s": workload.records / wall,
                       "mib_per_s": workload.input_bytes / 2 ** 20 / wall,
                       "peak_mem_mb": peak}
            print("raw wall_s of each command: "
                  + " ".join(f"{w:.4f}" for w in walls))
        outcome = workload.check()
    except RuntimeError as exc:  # a command exited non-zero
        print(f"check failed: {exc}")
        attempted = workload.attempted()
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1

    problems = list(outcome.problems)
    if outcome.label_f1 < workloads.LABEL_F1_FLOOR:
        problems.append(f"label_f1 {outcome.label_f1:.4f} is below "
                        f"{workloads.LABEL_F1_FLOOR}")
    if len(set(fingerprints)) != 1:
        problems.append(f"{workload.output} differs between commands: "
                        f"{len(set(fingerprints))} distinct hashes")
    print(f"fingerprint {workload.output} sha256 {fingerprints[0]}")
    failed = len(outcome.failed_ids)
    print(f"failed_frac {failed / outcome.attempted:.6g} "
          f"({failed}/{outcome.attempted})"
          + (f": {', '.join(outcome.failed_ids)}" if failed else ""))
    metrics["label_f1"] = outcome.label_f1
    with open("BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in listed}
    for name, entry in result.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": outcome.attempted,
                      "failed": failed, "metrics": result}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
