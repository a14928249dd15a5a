"""foglink benchmark: one workload, closed loop, one process.

Run from the root of a foglink source checkout:

    python3 perfbench/run.py --workload qos-pipeline --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run
reports the end-to-end metrics (set-up time, the median of each timed
stage over the iterations, peak RSS); with ``--trace 1`` it alternates
untraced and traced iterations and reports per-layer metrics from
``tracing.py``.  The last line of standard output is the JSON result; the
line before it carries the per-iteration samples, the machine description
and the check details.  A run that cannot find ``src/foglink`` exits 2
without a result.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; one thread never exceeds nproc
# and keeps the two-core timings free of thread contention.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

END_TO_END = ("setup_s", "main_stage_s", "second_stage_s", "peak_rss_mb")
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
IMPORT_PROBE = ("import time; start = time.perf_counter(); import foglink; "
                "print(time.perf_counter() - start)")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(root: Path) -> float:
    """Time ``import foglink`` in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, root: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(root)
        start = time.perf_counter()
        workload.setup()
        samples.append(imported + time.perf_counter() - start)
    return samples


def _compare_outputs(workload, out: Path, reference, problems: list, what: str):
    from workloads import tree_hash
    digest = tree_hash(out)
    if reference is not None and not workload.op(digest == reference):
        changed = sorted(k for k in set(digest) | set(reference)
                         if digest.get(k) != reference.get(k))
        problems.append(f"{what} outputs differ: {', '.join(changed)}")
    return digest if reference is None else reference


def measure(workload, root: Path, seconds: float) -> tuple[dict, dict, list]:
    setup = _setup(workload, root)
    out = workload.work / "out"
    main, second, problems, reference = [], [], [], None
    deadline = time.perf_counter() + seconds
    while len(main) < MIN_ITERATIONS or time.perf_counter() < deadline:
        main_s, second_s = workload.iterate(out)
        main.append(main_s)
        second.append(second_s)
        problems += workload.check(out)
        reference = _compare_outputs(workload, out, reference, problems, "repeated")
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "main_stage_s": {"value": statistics.median(main), "unit": "s"},
        "second_stage_s": {"value": statistics.median(second), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    samples = {"setup_s": setup, "main_stage_s": main, "second_stage_s": second}
    return metrics, samples, problems


def measure_traced(workload, seconds: float) -> tuple[dict, dict, list]:
    from tracing import OVERHEAD_METRIC, Tracer, layer_metrics
    tracer = Tracer()
    with tracer:
        workload.setup()
    setup_stats = tracer.stats
    tracer.reset()
    plain_out, traced_out = workload.work / "out", workload.work / "out_traced"
    plain, traced, iteration_stats, problems, reference = [], [], [], [], None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        main_s, second_s = workload.iterate(plain_out)
        plain.append(main_s + second_s)
        problems += workload.check(plain_out)
        reference = _compare_outputs(workload, plain_out, reference, problems, "repeated")
        with tracer:
            main_s, second_s = workload.iterate(traced_out)
        traced.append(main_s + second_s)
        iteration_stats.append(tracer.stats)
        tracer.reset()
        problems += workload.check(traced_out)
        _compare_outputs(workload, traced_out, reference, problems, "traced vs untraced")

    metrics, count_problems = layer_metrics(setup_stats, iteration_stats)
    workload.op(not count_problems)
    problems += count_problems
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    first = iteration_stats[0]
    for name in workload.expected_layers:
        calls = first[name].calls + setup_stats[name].calls
        if not workload.op(calls > 0):
            problems.append(f"traced layer {name} recorded no calls")
    for name in workload.forbidden_layers:
        if not workload.op(first[name].calls == 0):
            problems.append(f"layer {name} ran {first[name].calls} times in this workload")
    samples = {"untraced_iteration_s": plain, "traced_iteration_s": traced}
    return metrics, samples, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "foglink" / "__init__.py").is_file():
        print("perfbench: run from the root of a foglink checkout (src/foglink not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import foglink
    if not Path(foglink.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: foglink imported from {foglink.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from tracing import TraceSetupError
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        if args.trace:
            metrics, samples, problems = measure_traced(workload, args.seconds)
        else:
            metrics, samples, problems = measure(workload, root, args.seconds)
    except TraceSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "samples": samples,
              "detail": workload.detail, "problems": problems}
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
