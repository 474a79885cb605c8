"""tempocom's benchmark: times the two public entry points, ``graph.load`` on
a ``.tgraph`` file and ``driver.detect`` on the loaded graph, checks every
output with computations made apart from the program (checks.py), and prints
one JSON line of metrics as the last line of its standard output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planted-c6 --seed 0 --seconds 25 --trace 0

One process, one instance at a time, ``RunConfig.threads=1`` and one BLAS
thread. The run's instances are generated from ``--seed`` before anything is
timed (generate.py, in a process of its own); the program receives only the
files. With ``--trace 0`` the run detects every instance in rounds until
``--seconds`` would be exceeded by one more round, and prints the end-to-end
metrics. With ``--trace 1`` it detects every instance once untraced and once
traced (tracing.py), checks that both give identical outputs, and prints the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: OpenBLAS's second thread only
# contends with the other core's tenants on a small shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import ALPHA, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# setup_s is the median of whole passes of graph.load over the run's
# instances, at least this many loads and this many seconds of them
SETUP_LOADS = 4
SETUP_SECONDS = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def to_result(g, state):
    """The detect outputs as plain data over node labels."""
    return checks.Result(
        phi_star=state.phi_star,
        communities=tuple(
            checks.Community(frozenset(g.labels[u] for u in c.nodes),
                             c.interval.start, c.interval.end, c.phi)
            for c in state.communities),
        verdicts=tuple(checks.Verdict(v.interval.start, v.interval.end,
                                      v.status, v.bound_value)
                       for v in state.verdicts))


class Instance:
    """One generated file with its planted community."""

    def __init__(self, path: Path):
        self.path = path
        truth = json.loads(path.with_suffix(".truth.json").read_text())
        self.planted = checks.Community(frozenset(truth["nodes"]),
                                        truth["t"], truth["t_end"],
                                        float("nan"))


def make_instances(workload, seed: int, run_dir: Path) -> list[Instance]:
    subprocess.run([sys.executable, str(HERE / "generate.py"), workload.name,
                    str(seed), str(run_dir)], check=True)
    return [Instance(run_dir / f"instance{i}.tgraph")
            for i in range(workload.instances)]


def load_all(instances: list[Instance]) -> tuple[list, list[float]]:
    """Every instance loaded in passes until SETUP_LOADS and SETUP_SECONDS
    are reached; the last pass's graphs and every load's time."""
    from tempocom import graph
    graphs, times = [None] * len(instances), []
    while len(times) < SETUP_LOADS or sum(times) < SETUP_SECONDS:
        for i, inst in enumerate(instances):
            gc.collect()
            t0 = time.perf_counter()
            graphs[i] = graph.load(inst.path)
            times.append(time.perf_counter() - t0)
    return graphs, times


def detect_once(g, cfg, detect=None):
    """(seconds, state), or (None, error) when detect raises."""
    from tempocom import driver
    detect = detect or driver.detect
    gc.collect()
    t0 = time.perf_counter()
    try:
        state = detect(g, cfg)
    except Exception as err:  # a failed operation is counted, not fatal
        return None, err
    return time.perf_counter() - t0, state


def check_all(instances, results) -> list[list[str]]:
    """Errors per instance of its (first) result; [] where it passed."""
    out = []
    for inst, res in zip(instances, results):
        if res is None:
            out.append([])
            continue
        out.append(checks.check_result(checks.Instance.read(inst.path), res,
                                       ALPHA, planted=inst.planted))
    return out


def report(label: str, errors: list[str]) -> None:
    for line in errors[:5]:
        print(f"{label}: {line}", file=sys.stderr)
    if len(errors) > 5:
        print(f"{label}: ... {len(errors) - 5} more", file=sys.stderr)


def timed_run(wl, instances, graphs, cfg, seconds):
    """Rounds over every instance until one more round would pass the
    deadline; every round's outputs must equal the first round's."""
    from tempocom.pruning import PRUNED_STATUSES
    k = len(graphs)
    times: list[list[float]] = [[] for _ in range(k)]
    first = [None] * k
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        for i, g in enumerate(graphs):
            attempted += 1
            dt, state = detect_once(g, cfg)
            if dt is None:
                failed += 1
                report(f"instance {i}", [f"detect raised {state!r}"])
                continue
            res = to_result(g, state)
            if first[i] is None:
                first[i] = res
            elif res != first[i]:
                failed += 1
                report(f"instance {i}", ["outputs differ between rounds"])
                continue
            times[i].append(dt)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    t0 = time.perf_counter()
    for i, errors in enumerate(check_all(instances, first)):
        if errors:
            correct = False
            report(f"instance {i}", errors)
            # every round of this instance gave this same result
            failed += len(times[i])
            times[i] = []
    ok = [i for i in range(k) if times[i]]
    if not ok:
        sys.exit("every detect failed")
    pruned = [sum(v.status in PRUNED_STATUSES for v in first[i].verdicts)
              / len(first[i].verdicts) for i in ok]
    metrics = {
        "detect_s": (statistics.median(t for i in ok for t in times[i]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "phi_star": (statistics.fmean(first[i].phi_star for i in ok), "1"),
        "pruned_fraction": (statistics.fmean(pruned), "1"),
    }
    print(f"{wl.name}: {rounds} round(s) of {k} instance(s) in "
          f"{elapsed:.1f} s, checked in {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    return correct, attempted, failed, metrics


def traced_run(instances, graphs, cfg, trace_path):
    """Each instance detected untraced and then traced, in turn, so that
    both sides see the same state of the machine; both must agree."""
    from tracing import Tracer
    k = len(graphs)
    attempted, failed, correct = 2 * k, 0, True
    plain, plain_times, traced_times = [None] * k, [], []
    tracer = Tracer()
    for i, g in enumerate(graphs):
        dt, state = detect_once(g, cfg)
        if dt is None:
            failed += 2
            report(f"instance {i}", [f"detect raised {state!r}"])
            continue
        plain[i] = to_result(g, state)
        plain_times.append(dt)
        with tracer.installed():
            dt, state = detect_once(g, cfg, tracer.detect)
        if dt is None:
            failed += 1
            report(f"instance {i} traced", [f"detect raised {state!r}"])
            continue
        traced_times.append(dt)
        if to_result(g, state) != plain[i]:
            correct = False
            failed += 1
            report(f"instance {i}", ["traced outputs differ from untraced"])
    tracer.write(trace_path)

    for i, errors in enumerate(check_all(instances, plain)):
        if errors:
            correct = False
            failed += 2
            report(f"instance {i}", errors)
    if not traced_times or not plain_times:
        sys.exit("every detect failed")

    metrics = tracer.metrics()
    untraced = statistics.fmean(plain_times)
    traced = statistics.fmean(traced_times)
    overhead = traced / untraced - 1.0
    metrics["trace.detect_s"] = (traced, "s")
    metrics["trace.untraced_detect_s"] = (untraced, "s")
    metrics["trace.overhead"] = (overhead, "1")
    print(f"tracing overhead: {100 * overhead:+.1f}% of detect "
          f"({traced:.3f} s traced, {untraced:.3f} s untraced, mean of {k})")
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    if not (ROOT / "src" / "tempocom" / "driver.py").is_file():
        sys.exit("tempocom's sources (src/tempocom) are not in this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)

    from tempocom.driver import RunConfig
    from tempocom.pruning import PRUNED_STATUSES
    if PRUNED_STATUSES != checks.PRUNED:
        sys.exit(f"pruned statuses changed: {sorted(PRUNED_STATUSES)}")

    wl = WORKLOADS[args.workload]
    cfg = RunConfig(alpha=ALPHA, threads=1, **wl.run)
    run_dir = OUT / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        t0 = time.perf_counter()
        instances = make_instances(wl, args.seed, run_dir)
        t1 = time.perf_counter()
        graphs, load_times = load_all(instances)
        print(f"{wl.name}: generated in {t1 - t0:.1f} s, "
              f"{len(load_times)} loads in {sum(load_times):.1f} s",
              file=sys.stderr)
        if args.trace:
            correct, attempted, failed, metrics = traced_run(
                instances, graphs, cfg,
                OUT / f"trace-{wl.name}-seed{args.seed}.csv.gz")
        else:
            correct, attempted, failed, metrics = timed_run(
                wl, instances, graphs, cfg, args.seconds)
            metrics["setup_s"] = (statistics.median(load_times), "s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
