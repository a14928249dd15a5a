"""Fast self-test of the benchmark itself, on tiny inputs.

Run from the root of a foglink checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the workloads and metrics the
code produces, runs every workload once untraced and once traced and
requires all checks to pass, then feeds each workload's check a
deliberately wrong output and requires the check to fail.  It also
requires the tracer to refuse a listed function that exists nowhere.
Exits 0 when every step behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    archive_days=30, fog_days=3, feature_days=2, check_rows=20,
    learner_config=tuple({**workloads.LEARNER_CONFIG, "sample_records": 20}.items()),
    sweep_config=(("visibility_step_km", 0.25),))

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the code")
    expect({m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END),
           "BENCHMARK.json end_to_end metrics match the code")
    layers = {name for name, _, _ in tracing.PER_LAYER} | {tracing.OVERHEAD_METRIC}
    expect({m["name"] for m in spec["per_layer"]} == layers,
           "BENCHMARK.json per_layer metrics match the code")


def fresh_workload(cls, work: Path):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return cls(work, seed=7, sizes=TINY)


def check_workload(cls, work: Path) -> None:
    w = fresh_workload(cls, work)
    metrics, _, problems = run.measure(w, ROOT, seconds=0)
    expect(not problems and w.failed == 0 and set(metrics) == set(run.END_TO_END),
           f"{cls.name}: untraced run passes its checks {problems}")

    w = fresh_workload(cls, work)
    metrics, _, problems = run.measure_traced(w, seconds=0)
    expect(not problems and w.failed == 0, f"{cls.name}: traced run passes its checks {problems}")
    expect(len(metrics) == len(tracing.PER_LAYER) + 1,
           f"{cls.name}: traced run reports every layer")

    # one more iteration per deliberately wrong output
    for tamper in TAMPER[cls.name]:
        w = fresh_workload(cls, work)
        w.setup()
        out = work / "out"
        w.iterate(out)
        tamper(w, out)
        problems = w.check(out)
        expect(bool(problems) and w.failed > 0,
               f"{cls.name}: check rejects {tamper.__doc__} {problems[:1]}")


def _wrong_r2(w, out: Path) -> None:
    """a metrics.csv whose gbr R2 is 0.5"""
    path = out / "metrics.csv"
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    for k, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == "gbr" and cells[1] == "all":
            cells[head.index("R2")] = "0.5"
            lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _shifted_targets(w, out: Path) -> None:
    """QoS targets shifted by 1e-6 dB"""
    w.qos.table.targets[:] += 1e-6


def _shifted_predictions(w, out: Path) -> None:
    """rf predictions shifted down by one row"""
    path = out / "predict_rf.csv"
    lines = path.read_text().splitlines()
    values = [line.rsplit(",", 1) for line in lines[1:]]
    shifted = np.roll([v for _, v in values], 1)
    path.write_text("\n".join([lines[0]] + [f"{f},{v}" for (f, _), v in zip(values, shifted)])
                    + "\n")


TAMPER = {"qos-pipeline": (_wrong_r2, _shifted_predictions),
          "fog-archive": (_shifted_targets,)}


def check_missing_function() -> None:
    saved = list(tracing.TRACED)
    tracing.TRACED.append(("tree", "no_such_function", None))
    try:
        tracing.Tracer().patch()
        expect(False, "tracer refuses a listed function found at zero sites")
    except tracing.TraceSetupError:
        expect(True, "tracer refuses a listed function found at zero sites")
    finally:
        tracing.TRACED[:] = saved
    import foglink.tree
    expect(not hasattr(foglink.tree.fit_regression_tree, "__wrapped__"),
           "a refused patch leaves no wrapper behind")


def main() -> int:
    if not (ROOT / "src" / "foglink" / "__init__.py").is_file():
        print("selftest: run from the root of a foglink checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / "selftest"
    try:
        check_spec()
        check_missing_function()
        for cls in workloads.WORKLOADS.values():
            check_workload(cls, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
