"""The two benchmark workloads: inputs, one closed-loop iteration, checks.

Every workload drives foglink in-process, one operation after another, and
calls it only through module attributes so the tracer's wrappers apply.
Inputs come from the workload seed alone.  Each iteration has two timed
stages, reported as ``main_stage_s`` and ``second_stage_s``:

    qos-pipeline   main: ``foglink train --data``
                   second: ``foglink evaluate``, then ``foglink predict`` with
                   each of the five saved models on unseen feature rows
    fog-archive    main: CSV text -> parse -> QoS table
                   second: ``attenuation-sweep`` + ``link-sweep`` (fine grid)

``check`` returns a list of failure messages; an empty list means every
correctness check passed.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from foglink import atmosphere, cli, dataset, link_budget

MODEL_NAMES = ("rf", "gbr", "adbr", "stacked", "mlp")
R2_GATED = ("rf", "gbr", "stacked")
R2_FLOOR = 0.95
TARGET_TOL_DB = 1e-9

# Learner settings for the train/predict workloads: the default config's
# structure (all five models, five stacking folds, min-leaf sizes, tree
# depths) with fewer rows and ensemble members, so one `train` takes a few
# seconds instead of a minute and a run can repeat it.
LEARNER_CONFIG = {
    "sample_records": 50,
    "rf_trees": 4,
    "gbr_stages": 10,
    "gbr_learning_rate": 0.3,
    "adbr_rounds": 10,
    "mlp_epochs": 30,
}

# Sweep grids for fog-archive: fine enough that CSV writing and the scalar
# physics loops dominate, coarse enough to repeat within a run.
SWEEP_CONFIG = {
    "visibility_step_km": 0.004,
    "range_step_km": 0.004,
    "atten_step_db_per_km": 0.04,
}


@dataclass(frozen=True)
class Sizes:
    archive_days: int = 3650       # qos-pipeline training archive
    fog_days: int = 365            # fog-archive
    feature_days: int = 56         # qos-pipeline feature rows for `predict`
    check_rows: int = 200          # fog-archive rows recomputed by the scalar oracle
    learner_config: tuple = tuple(LEARNER_CONFIG.items())
    sweep_config: tuple = tuple(SWEEP_CONFIG.items())


def _profiles():
    return list(dataset.DEFAULT_STATION_PROFILES.values())


def _table_sweep(cfg) -> dataset.TransceiverSweep:
    """The QoS-table grid a run config describes, as ``foglink train`` builds it."""
    return dataset.TransceiverSweep(
        base=cfg.transceiver(), wavelengths_nm=tuple(cfg.wavelengths_nm),
        tx_powers_w=tuple(cfg.tx_powers_w), range_km=cfg.link_range_km,
        attenuation_model=cfg.model())


def _write_config(path: Path, items) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in items))


def _run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed operation
        print(f"foglink {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return -1


def tree_hash(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _r2(actual: np.ndarray, predicted: np.ndarray) -> float:
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    return 1.0 - float(np.sum((actual - predicted) ** 2)) / ss_tot


def _grid_size(lo: float, hi: float, step: float) -> int:
    return int(np.arange(lo, hi + 0.5 * step, step).size)


def _timed(stage) -> float:
    gc.collect()  # start each stage without garbage left by the previous one
    start = time.perf_counter()
    stage()
    return time.perf_counter() - start


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


class Workload:
    """One workload: ``setup`` writes inputs, ``iterate`` runs one iteration
    (the main stage, then the second stage, each timed) into ``out`` and
    ``check`` verifies what the iteration left there."""

    name = ""
    expected_layers: tuple[str, ...] = ()   # must show calls when traced
    forbidden_layers: tuple[str, ...] = ()  # must show no calls when traced

    def __init__(self, work: Path, seed: int, sizes: Sizes = Sizes()) -> None:
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.detail: dict = {}

    def op(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def setup(self) -> None:
        raise NotImplementedError

    def main_stage(self) -> None:
        raise NotImplementedError

    def second_stage(self) -> None:
        raise NotImplementedError

    def iterate(self, out: Path) -> tuple[float, float]:
        self.out = _fresh(out)
        return _timed(self.main_stage), _timed(self.second_stage)

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError


class QosPipeline(Workload):
    name = "qos-pipeline"
    expected_layers = (
        "tree.fit_regression_tree", "tables.LabeledTable.subset",
        "forest.fit_random_forest", "boosting.fit_gradient_boost",
        "adaboost.fit_adaboost_r2", "stacking.fit_stacked",
        "stacking.build_level1_sample", "stacking.fit_base_learner",
        "stacking.solve_stacking_weights", "neural.train",
        "serialize.save_model", "serialize.load_model",
        "tree.RegressionTree.predict", "forest.RandomForestModel.predict",
        "boosting.GradientBoostModel.predict", "adaboost.AdaBoostModel.predict",
        "adaboost.AdaBoostModel.predict_row", "stacking.StackedModel.predict",
        "neural.MLPModel.predict", "dataset.synthesize_dataset",
        "dataset.write_visibility_csv", "dataset.parse_visibility_csv",
        "dataset.build_qos_table", "atmosphere.all", "link_budget.all",
        "metrics.compute_metrics", "cli.cmd_train", "cli.cmd_evaluate",
        "cli.cmd_predict")

    # the feature rows for `predict` come from an archive with another seed
    FEATURE_SEED_OFFSET = 1_000_003

    def setup(self) -> None:
        records = dataset.synthesize_dataset(_profiles(), self.sizes.archive_days, self.seed)
        (self.work / "visibility.csv").write_text(dataset.write_visibility_csv(records))
        _write_config(self.work / "learners.cfg", self.sizes.learner_config)
        self.detail["records"] = len(records)

        unseen = dataset.synthesize_dataset(
            _profiles(), self.sizes.feature_days, self.seed + self.FEATURE_SEED_OFFSET)
        cfg = cli.RunConfig()
        table = dataset.build_qos_table(unseen, _table_sweep(cfg), cfg.noise(),
                                        cfg.budget()).table
        header = ",".join(table.feature_names)
        lines = [",".join(repr(float(v)) for v in row) for row in table.features]
        (self.work / "features.csv").write_text("\n".join([header] + lines) + "\n")
        self.targets = table.targets
        self.detail["predict_rows"] = table.n_rows

    def main_stage(self) -> None:
        self.rc_evaluate, self.rc_predict = None, {}
        self.rc_train = _run_cli(["train", "--data", str(self.work / "visibility.csv"),
                                  "--config", str(self.work / "learners.cfg"),
                                  "--seed", str(self.seed), "--out-dir", str(self.out)])

    def second_stage(self) -> None:
        self.rc_evaluate = _run_cli(["evaluate", "--out-dir", str(self.out)])
        for name in MODEL_NAMES:
            self.rc_predict[name] = _run_cli([
                "predict", "--model", str(self.out / "models" / f"{name}.json"),
                "--features", str(self.work / "features.csv"),
                "--out", str(self.out / f"predict_{name}.csv")])

    def check(self, out: Path) -> list[str]:
        problems = []
        for what, rc in (("train", self.rc_train), ("evaluate", self.rc_evaluate)):
            if not self.op(rc == 0):
                problems.append(f"{what} exited {rc}")
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
        failures = manifest.get("failures", {"manifest": "missing"})
        self.attempted += len(MODEL_NAMES)
        self.failed += len(failures)
        problems += [f"model {name} failed: {why}" for name, why in failures.items()]
        if manifest:
            self.detail["table_rows"] = manifest["n_rows"]
        metrics_path = out / "metrics.csv"
        rows = _read_csv(metrics_path) if metrics_path.exists() else []
        r2 = {row["model"]: float(row["R2"]) for row in rows if row["location"] == "all"}
        for name in R2_GATED:
            ok = r2.get(name, -math.inf) >= R2_FLOOR
            if not self.op(ok):
                problems.append(f"held-out R2 of {name} is {r2.get(name)} < {R2_FLOOR}")
        self.detail["r2_all"] = r2
        if r2:
            self.detail["r2_min"] = min(r2.get(name, -math.inf) for name in R2_GATED)
        problems += self.check_predictions(out)
        return problems

    def check_predictions(self, out: Path) -> list[str]:
        problems, r2 = [], {}
        for name, rc in self.rc_predict.items():
            if not self.op(rc == 0):
                problems.append(f"predict {name} exited {rc}")
                continue
            predicted = np.array([float(row["prediction"])
                                  for row in _read_csv(out / f"predict_{name}.csv")])
            if not self.op(predicted.size == self.targets.size
                           and bool(np.all(np.isfinite(predicted)))):
                problems.append(f"predict {name}: {predicted.size} rows (expected "
                                f"{self.targets.size}) or non-finite values")
                continue
            r2[name] = _r2(self.targets, predicted)
            if name in R2_GATED and not self.op(r2[name] >= R2_FLOOR):
                problems.append(f"R2 of {name} on unseen rows is {r2[name]} < {R2_FLOOR}")
        if not self.op(len(self.rc_predict) == len(MODEL_NAMES)):
            problems.append(f"predict ran for {sorted(self.rc_predict)} only")
        self.detail["r2_unseen"] = r2
        return problems


class FogArchive(Workload):
    name = "fog-archive"
    expected_layers = (
        "dataset.synthesize_dataset", "dataset.write_visibility_csv",
        "dataset.parse_visibility_csv", "dataset.build_qos_table",
        "atmosphere.all", "link_budget.all", "link_budget.power_penalty_db",
        "cli.cmd_attenuation_sweep", "cli.cmd_link_sweep")
    forbidden_layers = (
        "tree.fit_regression_tree", "tree.RegressionTree.predict",
        "neural.train", "neural.MLPModel.predict", "serialize.load_model",
        "serialize.save_model", "cli.cmd_train", "cli.cmd_predict")

    def setup(self) -> None:
        records = dataset.synthesize_dataset(_profiles(), self.sizes.fog_days, self.seed)
        (self.work / "visibility.csv").write_text(dataset.write_visibility_csv(records))
        _write_config(self.work / "sweep.cfg", self.sizes.sweep_config)
        self.n_records = len(records)
        self.detail["records"] = len(records)
        self.cfg = cli.load_config(str(self.work / "sweep.cfg"))
        self.sweep = _table_sweep(self.cfg)

    def main_stage(self) -> None:
        text = (self.work / "visibility.csv").read_text()
        parsed = dataset.parse_visibility_csv(text.splitlines())
        self.qos = dataset.build_qos_table(parsed.records, self.sweep,
                                           self.cfg.noise(), self.cfg.budget())
        self.records = parsed.records
        self.detail["table_rows"] = self.qos.table.n_rows

    def second_stage(self) -> None:
        config, out = str(self.work / "sweep.cfg"), str(self.out)
        self.rc_atten = _run_cli(["attenuation-sweep", "--config", config, "--out-dir", out])
        self.rc_link = _run_cli(["link-sweep", "--config", config, "--out-dir", out])

    def check(self, out: Path) -> list[str]:
        problems = []
        for what, rc in (("attenuation-sweep", self.rc_atten), ("link-sweep", self.rc_link)):
            if not self.op(rc == 0):
                problems.append(f"{what} exited {rc}")
        problems += self.check_table()
        problems += self.check_sweeps(out)
        del self.qos, self.records
        return problems

    def check_table(self) -> list[str]:
        problems = []
        cfg, sweep, table = self.cfg, self.sweep, self.qos.table
        n_lam, n_pow = len(sweep.wavelengths_nm), len(sweep.tx_powers_w)
        per_record = n_lam * n_pow * 2
        expected_rows = self.n_records * per_record
        if not self.op(len(self.records) == self.n_records and table.n_rows == expected_rows):
            problems.append(f"table has {table.n_rows} rows from {len(self.records)} "
                            f"records, expected {expected_rows}")
            return problems
        rng = np.random.default_rng(self.seed)
        worst, misplaced = 0.0, []
        for i in rng.choice(table.n_rows, size=min(self.sizes.check_rows, table.n_rows),
                            replace=False):
            i = int(i)
            # rows run record-major, then wavelength, power, modulation
            record = self.records[i // per_record]
            lam = sweep.wavelengths_nm[(i // (n_pow * 2)) % n_lam]
            power = sweep.tx_powers_w[(i // 2) % n_pow]
            path = atmosphere.OpticalPath(lam, sweep.range_km, record.visibility_km,
                                          sweep.reference_wavelength_nm)
            beta = atmosphere.extinction_coefficient(path, sweep.attenuation_model)
            snr = link_budget.snr_budget_db(replace(
                cfg.budget(), tx_power_dbm=link_budget.watts_to_dbm(power),
                wavelength_m=lam * 1e-9,
                total_attenuation_db=atmosphere.path_attenuation_db(beta, sweep.range_km)))
            worst = max(worst, abs(table.targets[i] - snr))
            features = table.features[i]
            if (features[0], features[3], features[4], self.qos.stations[i]) != (
                    i % 2, power, lam, record.station):
                misplaced.append(i)
        self.detail["target_max_abs_err_db"] = worst
        if not self.op(worst <= TARGET_TOL_DB):
            problems.append(f"QoS targets differ from the scalar budget by {worst} dB")
        if not self.op(not misplaced):
            problems.append(f"rows {misplaced[:5]} do not hold their record's grid point")
        return problems

    def check_sweeps(self, out: Path) -> list[str]:
        cfg = self.cfg
        n_vis = _grid_size(cfg.visibility_min_km, cfg.visibility_max_km, cfg.visibility_step_km)
        n_range = _grid_size(cfg.range_min_km, cfg.range_max_km, cfg.range_step_km)
        n_att = _grid_size(cfg.atten_min_db_per_km, cfg.atten_max_db_per_km,
                           cfg.atten_step_db_per_km)
        n_lam, n_pow = len(cfg.wavelengths_nm), len(cfg.tx_powers_w)
        expected = {
            "attenuation_sweep.csv": n_vis * n_lam,
            "data_rate_vs_attenuation.csv": n_att * n_lam,
            "received_power_vs_range.csv": n_range * n_lam,
            "ber_vs_attenuation.csv": n_att * n_pow,
            "capacity_vs_range.csv": n_range * n_lam,
            "power_penalty_vs_range.csv": n_range * len(cfg.fog_classes()),
        }
        problems, total = [], 0
        for name, rows in expected.items():
            path = out / name
            got = len(path.read_text().splitlines()) - 1 if path.exists() else -1
            total += max(got, 0)
            if not self.op(got == rows):
                problems.append(f"{name} has {got} rows, grid gives {rows}")
        self.detail["sweep_rows"] = total
        return problems


WORKLOADS = {w.name: w for w in (QosPipeline, FogArchive)}
