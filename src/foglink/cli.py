"""Command-line front end: link sweeps, the train/evaluate pipeline, and
prediction from saved models.

Commands
    attenuation-sweep   visibility x wavelength attenuation table
    link-sweep          data-rate / received-power / BER / capacity / penalty CSVs
    synth-data          seeded surrogate visibility archive
    train               fit rf, gbr, adbr, stacked and mlp on the QoS table
    evaluate            per-station metric reports for saved models
    predict             append a prediction column to a feature CSV

Every command is deterministic given its inputs, flags and --seed, and all
outputs are plain CSV/JSON for external plotting.  Exit codes: 0 success,
2 command-line usage (argparse), 3 validation, 4 CSV parse, 5 training
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adaboost import AdaBoostTrainingError
from .atmosphere import (
    AttenuationModel,
    OpticalPath,
    attenuation_db_per_km,
    extinction_coefficient,
    particle_size_exponent,
    path_attenuation_db,
)
from .dataset import (
    DEFAULT_STATION_PROFILES,
    CsvParseError,
    TransceiverSweep,
    build_qos_table,
    parse_visibility_csv,
    split_indices,
    synthesize_dataset,
    write_visibility_csv,
)
from .forest import default_mtry_regression
from .link_budget import (
    OokScheme,
    ReceiverNoiseConfig,
    RfBudgetInputs,
    TransceiverConfig,
    UnattainableBerError,
    achievable_data_rate,
    ber,
    channel_capacity,
    db_to_linear,
    electrical_snr_linear,
    power_penalty_db,
    received_power_geometric,
    snr_budget_db,
    watts_to_dbm,
)
from .metrics import compute_metrics
from .neural import MLPModel, TrainConfig, TrainingError, train
from .serialize import load_model, save_model
from .stacking import LearnerSpec, StackConfig, StackingError, fit_base_learner, fit_stacked

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_PARSE = 4
EXIT_TRAINING = 5

MODEL_NAMES = ("rf", "gbr", "adbr", "stacked", "mlp")
# Learners whose fit draws no random numbers: the stacked model reuses their
# full-table fits rather than refitting them.
SEED_FREE = ("gbr", "adbr")
METRIC_HEADER = ["model", "location", "n", "MSE", "MAE", "MAPE", "RMSE", "R2"]


class ValidationError(ValueError):
    """Bad configuration or missing/ill-shaped inputs."""


@dataclass(frozen=True)
class RunConfig:
    """Flat key=value run parameters; see configs/default.cfg for the keys."""

    # transceiver
    tx_power_w: float = 0.1
    divergence_mrad: float = 3.0
    tx_efficiency: float = 0.8
    rx_efficiency: float = 0.8
    tx_aperture_m: float = 0.1
    rx_aperture_m: float = 0.1
    rx_sensitivity_dbm: float = -40.0
    photons_per_bit: float = 100.0
    # PIN receiver noise
    responsivity_a_per_w: float = 0.7
    load_resistance_ohm: float = 1000.0
    dark_current_a: float = 1e-08
    temperature_k: float = 298.0
    electrical_bandwidth_hz: float = 1e9
    # dB budget terms
    tx_gain_linear: float = 1.0
    rx_gain_linear: float = 1.0
    noise_bandwidth_hz: float = 1e6
    ambient_temp_k: float = 298.0
    noise_figure_db: float = 0.0
    fade_margin_db: float = 0.0
    # sweep grids
    attenuation_model: str = "kruse"
    wavelengths_nm: tuple[float, ...] = (760.0, 860.0, 960.0, 1260.0, 1550.0)
    tx_powers_w: tuple[float, ...] = (0.005, 0.025, 0.1)
    visibility_min_km: float = 0.5
    visibility_max_km: float = 10.0
    visibility_step_km: float = 0.25
    range_min_km: float = 0.1
    range_max_km: float = 10.0
    range_step_km: float = 0.1
    atten_min_db_per_km: float = 1.0
    atten_max_db_per_km: float = 30.0
    atten_step_db_per_km: float = 1.0
    sweep_visibility_km: float = 1.0
    clear_visibility_km: float = 10.0
    ber_wavelength_nm: float = 1550.0
    fog_dense_km: float = 0.05
    fog_thick_km: float = 0.2
    fog_moderate_km: float = 0.5
    fog_light_km: float = 0.77
    target_ber: float = 1e-9
    link_range_km: float = 1.0
    # learner pipeline
    sample_records: int = 250
    split_fractions: tuple[float, ...] = (0.7, 0.15, 0.15)
    rf_trees: int = 20
    rf_min_leaf: int = 5
    gbr_stages: int = 120
    gbr_learning_rate: float = 0.1
    gbr_min_leaf: int = 5
    gbr_max_depth: int = 6
    adbr_rounds: int = 15
    adbr_min_leaf: int = 5
    adbr_max_depth: int = 3
    stack_folds: int = 5
    mlp_hidden: int = 10
    mlp_epochs: int = 150
    mlp_learning_rate: float = 0.05
    mlp_batch_size: int = 32
    mlp_patience: int = 10

    def model(self) -> AttenuationModel:
        try:
            return AttenuationModel(self.attenuation_model)
        except ValueError:
            raise ValidationError(
                f"attenuation_model must be 'kruse' or 'kim', got {self.attenuation_model!r}")

    def transceiver(self) -> TransceiverConfig:
        return TransceiverConfig(
            tx_power_w=self.tx_power_w, divergence_mrad=self.divergence_mrad,
            tx_efficiency=self.tx_efficiency, rx_efficiency=self.rx_efficiency,
            tx_aperture_m=self.tx_aperture_m, rx_aperture_m=self.rx_aperture_m,
            rx_sensitivity_dbm=self.rx_sensitivity_dbm,
            photons_per_bit=self.photons_per_bit)

    def noise(self) -> ReceiverNoiseConfig:
        return ReceiverNoiseConfig(
            responsivity_a_per_w=self.responsivity_a_per_w,
            load_resistance_ohm=self.load_resistance_ohm,
            dark_current_a=self.dark_current_a, temperature_k=self.temperature_k,
            electrical_bandwidth_hz=self.electrical_bandwidth_hz)

    def budget(self) -> RfBudgetInputs:
        return RfBudgetInputs(
            tx_power_dbm=watts_to_dbm(self.tx_power_w),
            tx_gain_linear=self.tx_gain_linear, rx_gain_linear=self.rx_gain_linear,
            noise_bandwidth_hz=self.noise_bandwidth_hz,
            ambient_temp_k=self.ambient_temp_k,
            noise_figure_db=self.noise_figure_db, fade_margin_db=self.fade_margin_db)

    def fog_classes(self) -> dict[str, float]:
        return {"dense": self.fog_dense_km, "thick": self.fog_thick_km,
                "moderate": self.fog_moderate_km, "light": self.fog_light_km}


def _coerce(name: str, default, text: str):
    text = text.strip()
    try:
        if isinstance(default, tuple):
            return tuple(float(part) for part in text.split(",") if part.strip())
        if isinstance(default, bool):
            return text.lower() in ("1", "true", "yes")
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError:
        raise ValidationError(f"config key {name}: cannot parse value {text!r}")


def _run_config(values: dict) -> RunConfig:
    """The defaults with ``values`` applied; every key must be a RunConfig field."""
    unknown = sorted(set(values) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    return replace(RunConfig(), **values)


def load_config(path: Optional[str]) -> RunConfig:
    """Defaults, overridden by a flat key=value file when one is given."""
    if path is None:
        return RunConfig()
    file = Path(path)
    if not file.exists():
        raise ValidationError(f"config file not found: {path}")
    defaults = {f.name: f.default for f in fields(RunConfig)}
    updates = {}
    for raw in file.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line not of form key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        updates[key] = _coerce(key, defaults[key], value) if key in defaults else value
    return _run_config(updates)


def _fmt(value) -> str:
    if isinstance(value, float):  # includes numpy float subclasses
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if step <= 0 or hi < lo:
        raise ValidationError(f"bad grid: min={lo}, max={hi}, step={step}")
    return np.arange(lo, hi + 0.5 * step, step)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_attenuation_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    model = cfg.model()
    visibilities = _grid(cfg.visibility_min_km, cfg.visibility_max_km, cfg.visibility_step_km)
    if visibilities.size == 0 or not cfg.wavelengths_nm:
        raise ValidationError("empty visibility or wavelength grid")
    rows = []
    for v in visibilities:
        for lam in cfg.wavelengths_nm:
            path = OpticalPath(lam, 0.0, float(v))
            beta = extinction_coefficient(path, model)
            rows.append((float(v), lam, particle_size_exponent(float(v), model),
                         beta, attenuation_db_per_km(path, model)))
    _write_csv(out / "attenuation_sweep.csv",
               ["visibility_km", "wavelength_nm", "q", "beta_per_km", "atten_db_per_km"],
               rows)
    return EXIT_OK


def cmd_link_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    model = cfg.model()
    noise = cfg.noise()
    tx = cfg.transceiver()
    attens = _grid(cfg.atten_min_db_per_km, cfg.atten_max_db_per_km, cfg.atten_step_db_per_km)
    ranges = _grid(cfg.range_min_km, cfg.range_max_km, cfg.range_step_km)

    # data rate vs specific attenuation, one curve per wavelength
    rows = []
    for atten in attens:
        for lam in cfg.wavelengths_nm:
            p_rx = received_power_geometric(replace(tx, wavelength_nm=lam),
                                            float(atten), cfg.link_range_km)
            rate = achievable_data_rate(p_rx, lam, cfg.photons_per_bit, noise)
            rows.append((float(atten), lam, p_rx, rate))
    _write_csv(out / "data_rate_vs_attenuation.csv",
               ["attenuation_db_per_km", "wavelength_nm", "received_power_w",
                "data_rate_bps"], rows)

    # received power vs range at the sweep visibility
    rows = []
    for length in ranges:
        for lam in cfg.wavelengths_nm:
            path = OpticalPath(lam, float(length), cfg.sweep_visibility_km)
            atten = attenuation_db_per_km(path, model)
            p_rx = received_power_geometric(replace(tx, wavelength_nm=lam),
                                            atten, float(length))
            rows.append((float(length), lam, atten, p_rx, watts_to_dbm(p_rx)))
    _write_csv(out / "received_power_vs_range.csv",
               ["range_km", "wavelength_nm", "atten_db_per_km", "received_power_w",
                "received_power_dbm"], rows)

    # BER vs attenuation per transmit power (NRZ, fixed wavelength)
    rows = []
    for atten in attens:
        for power in cfg.tx_powers_w:
            head = replace(tx, tx_power_w=power, wavelength_nm=cfg.ber_wavelength_nm)
            p_rx = received_power_geometric(head, float(atten), cfg.link_range_km)
            snr = electrical_snr_linear(p_rx, noise)
            rows.append((float(atten), power, p_rx, snr, ber(OokScheme.NRZ, snr)))
    _write_csv(out / "ber_vs_attenuation.csv",
               ["attenuation_db_per_km", "tx_power_w", "received_power_w",
                "snr_linear", "ber_nrz"], rows)

    # Shannon capacity vs range per wavelength, SNR from the dB budget
    rows = []
    for length in ranges:
        for lam in cfg.wavelengths_nm:
            path = OpticalPath(lam, float(length), cfg.sweep_visibility_km)
            beta = extinction_coefficient(path, model)
            total_db = path_attenuation_db(beta, float(length))
            snr_db = snr_budget_db(replace(cfg.budget(), wavelength_m=lam * 1e-9,
                                           total_attenuation_db=total_db))
            capacity = channel_capacity(cfg.electrical_bandwidth_hz, db_to_linear(snr_db))
            rows.append((float(length), lam, snr_db, capacity))
    _write_csv(out / "capacity_vs_range.csv",
               ["range_km", "wavelength_nm", "snr_db", "capacity_bps"], rows)

    # transmit power penalty vs range per fog class
    clear_beta = extinction_coefficient(
        OpticalPath(cfg.ber_wavelength_nm, 1.0, cfg.clear_visibility_km), model)
    rows = []
    for length in ranges:
        for name, fog_visibility in cfg.fog_classes().items():
            if fog_visibility >= cfg.clear_visibility_km:
                raise ValidationError(
                    f"fog class {name} visibility {fog_visibility} not below "
                    f"clear_visibility_km {cfg.clear_visibility_km}")
            fog_beta = extinction_coefficient(
                OpticalPath(cfg.ber_wavelength_nm, float(length), fog_visibility), model)
            try:
                penalty = power_penalty_db(tx, noise, clear_beta, fog_beta,
                                           float(length), cfg.target_ber)
            except UnattainableBerError as exc:
                raise UnattainableBerError(
                    f"fog class {name} at range {float(length)} km: {exc}") from exc
            rows.append((float(length), name, fog_visibility, penalty))
    _write_csv(out / "power_penalty_vs_range.csv",
               ["range_km", "fog_class", "fog_visibility_km", "power_penalty_db"], rows)
    return EXIT_OK


def _selected_profiles(stations: Optional[str]):
    if not stations:
        return list(DEFAULT_STATION_PROFILES.values())
    names = [s.strip() for s in stations.split(",") if s.strip()]
    unknown = [n for n in names if n not in DEFAULT_STATION_PROFILES]
    if unknown:
        raise ValidationError(
            f"unknown station(s) {', '.join(unknown)}; "
            f"presets: {', '.join(DEFAULT_STATION_PROFILES)}")
    return [DEFAULT_STATION_PROFILES[n] for n in names]


def cmd_synth_data(args) -> int:
    out = _out_dir(args)
    profiles = _selected_profiles(args.stations)
    records = synthesize_dataset(profiles, args.days, args.seed)
    (out / "visibility.csv").write_text(write_visibility_csv(records))
    return EXIT_OK


def _load_records(args, cfg: RunConfig):
    """Records plus a JSON-able description of where they came from."""
    if args.data:
        data_path = Path(args.data)
        if not data_path.exists():
            raise ValidationError(f"data file not found: {args.data}")
        result = parse_visibility_csv(data_path.read_text().splitlines())
        records = result.records
        source = {"kind": "csv", "path": str(args.data)}
    elif args.synth_days:
        profiles = _selected_profiles(args.stations)
        records = synthesize_dataset(profiles, args.synth_days, args.seed)
        source = {"kind": "synth", "days": args.synth_days,
                  "stations": [p.name for p in profiles]}
    else:
        raise ValidationError("either --data or --synth-days is required")
    if not records:
        raise ValidationError("no usable visibility records")
    if cfg.sample_records > 0 and len(records) > cfg.sample_records:
        rng = np.random.default_rng(args.seed)
        keep = np.sort(rng.choice(len(records), cfg.sample_records, replace=False))
        records = [records[i] for i in keep]
    return records, source


def _build_table(records, cfg: RunConfig):
    sweep = TransceiverSweep(
        base=cfg.transceiver(), wavelengths_nm=tuple(cfg.wavelengths_nm),
        tx_powers_w=tuple(cfg.tx_powers_w), range_km=cfg.link_range_km,
        attenuation_model=cfg.model())
    return build_qos_table(records, sweep, cfg.noise(), cfg.budget())


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    records, source = _load_records(args, cfg)
    qos = _build_table(records, cfg)
    train_idx, _, _ = split_indices(qos.table.n_rows, cfg.split_fractions, args.seed)
    table = qos.table.subset(train_idx)
    # the stacked model combines these same specs plus a single tree
    specs = {
        "rf": LearnerSpec("forest", {"n_trees": cfg.rf_trees,
                                     "mtry": default_mtry_regression(table.n_features),
                                     "min_leaf_size": cfg.rf_min_leaf}),
        "gbr": LearnerSpec("gbr", {"n_trees": cfg.gbr_stages,
                                   "learning_rate": cfg.gbr_learning_rate,
                                   "min_leaf_size": cfg.gbr_min_leaf,
                                   "max_depth": cfg.gbr_max_depth}),
        "adbr": LearnerSpec("adbr", {"n_rounds": cfg.adbr_rounds,
                                     "min_leaf_size": cfg.adbr_min_leaf,
                                     "max_depth": cfg.adbr_max_depth}),
    }

    models_dir = out / "models"
    models_dir.mkdir(exist_ok=True)
    fitted, manifest_models, failures = {}, {}, {}
    log_rows: list[tuple] = []
    for name in MODEL_NAMES:
        try:
            if name in specs:
                model = fit_base_learner(specs[name], table, args.seed)
                hyperparameters = dict(specs[name].params)
                if name == "rf":
                    hyperparameters["seed"] = args.seed
            elif name == "stacked":
                stack = StackConfig(
                    (*specs.values(), LearnerSpec("tree", {"min_leaf_size": cfg.rf_min_leaf})),
                    cfg.stack_folds, args.seed)
                model = fit_stacked(table, stack, {specs[n].label: fitted[n]
                                                   for n in SEED_FREE if n in fitted})
                hyperparameters = {"n_folds": stack.n_folds, "seed": stack.seed,
                                   "base": [spec.kind for spec in stack.base_learner_specs]}
            else:
                net = MLPModel.initialize((table.n_features, cfg.mlp_hidden, 1), seed=args.seed)
                result = train(net, table, TrainConfig(
                    learning_rate=cfg.mlp_learning_rate, epochs=cfg.mlp_epochs,
                    batch_size=cfg.mlp_batch_size, seed=args.seed,
                    early_stop_patience=cfg.mlp_patience))
                model = result.model
                hyperparameters = {"hidden": cfg.mlp_hidden, "epochs": cfg.mlp_epochs,
                                   "learning_rate": cfg.mlp_learning_rate,
                                   "batch_size": cfg.mlp_batch_size,
                                   "patience": cfg.mlp_patience, "seed": args.seed}
        except Exception as exc:  # keep fitting the remaining models
            failures[name] = f"{type(exc).__name__}: {exc}"
            print(f"training failed for {name}: {exc}", file=sys.stderr)
            continue
        fitted[name] = model
        if name == "mlp":
            for epoch, (tl, vl) in enumerate(zip(result.train_loss, result.val_loss)):
                log_rows.append(("mlp", "train_loss", epoch, tl))
                log_rows.append(("mlp", "val_loss", epoch, vl))
        if name == "rf" and model.oob_error is not None:
            log_rows.append(("rf", "oob_mse", 0, model.oob_error))
        if name == "adbr":
            for k, loss in enumerate(model.round_errors or []):
                log_rows.append(("adbr", "round_loss", k, loss))
        if name == "stacked":
            for l, weight in enumerate(model.weights):
                log_rows.append(("stacked", "weight", l, float(weight)))
        if name == "gbr":
            train_mse = float(np.mean((model.predict(table.features) - table.targets) ** 2))
            log_rows.append(("gbr", "train_mse", 0, train_mse))
        save_model(model, models_dir / f"{name}.json")
        manifest_models[name] = {"file": f"models/{name}.json",
                                 "hyperparameters": hyperparameters}

    manifest = {
        "seed": args.seed,
        "source": source,
        "config": {f.name: (list(getattr(cfg, f.name))
                            if isinstance(getattr(cfg, f.name), tuple)
                            else getattr(cfg, f.name))
                   for f in fields(RunConfig)},
        "n_records_used": len(records),
        "n_rows": qos.table.n_rows,
        "feature_names": list(qos.table.feature_names),
        "models": manifest_models,
        "failures": failures,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    _write_csv(out / "training_log.csv", ["model", "event", "step", "value"], log_rows)
    return EXIT_TRAINING if failures else EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    manifest_path = Path(args.manifest) if args.manifest else out / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest {manifest_path} is not a JSON object")
    missing = [key for key in ("config", "source", "seed", "n_rows", "models")
               if key not in manifest]
    if missing:
        raise ValidationError(f"manifest {manifest_path} lacks key(s): {', '.join(missing)}")
    cfg = _run_config({key: tuple(value) if isinstance(value, list) else value
                       for key, value in manifest["config"].items()})

    source = manifest["source"]
    seed = manifest["seed"]
    if args.data:
        namespace = argparse.Namespace(data=args.data, synth_days=None,
                                       stations=None, seed=seed)
    elif source["kind"] == "csv":
        namespace = argparse.Namespace(data=source["path"], synth_days=None,
                                       stations=None, seed=seed)
    else:
        namespace = argparse.Namespace(data=None, synth_days=source["days"],
                                       stations=",".join(source["stations"]), seed=seed)
    records, _ = _load_records(namespace, cfg)
    qos = _build_table(records, cfg)
    if qos.table.n_rows != manifest["n_rows"]:
        raise ValidationError(
            f"rebuilt table has {qos.table.n_rows} rows, manifest says "
            f"{manifest['n_rows']}; data or config drifted since training")
    _, _, test_idx = split_indices(qos.table.n_rows, cfg.split_fractions, seed)
    test = qos.subset(test_idx)

    base = manifest_path.parent
    missing = [name for name, entry in manifest["models"].items()
               if not (base / entry["file"]).exists()]
    if missing:
        raise ValidationError("missing model file(s): " + ", ".join(
            str(base / manifest["models"][name]["file"]) for name in missing))

    metric_rows, prediction_rows = [], []
    for name in sorted(manifest["models"]):
        model = load_model(base / manifest["models"][name]["file"])
        predicted = model.predict(test.table.features)
        groups = {"all": np.arange(test.table.n_rows)}
        for station in sorted(set(test.stations)):
            groups[station] = np.nonzero(test.stations == station)[0]
        for location, idx in sorted(groups.items()):
            report = compute_metrics(test.table.targets[idx], predicted[idx])
            metric_rows.append((name, location, report.n, report.mse, report.mae,
                                "" if report.mape is None else report.mape,
                                report.rmse,
                                "" if report.r2 is None else report.r2))
        for i in range(test.table.n_rows):
            prediction_rows.append((name, test.stations[i], i,
                                    test.table.targets[i], float(predicted[i])))
    _write_csv(out / "metrics.csv", METRIC_HEADER, metric_rows)
    _write_csv(out / "predictions.csv",
               ["model", "location", "row", "actual", "predicted"], prediction_rows)
    return EXIT_OK


def cmd_predict(args) -> int:
    model_path = Path(args.model)
    feature_path = Path(args.features)
    for path in (model_path, feature_path):
        if not path.exists():
            raise ValidationError(f"file not found: {path}")
    model = load_model(model_path)
    lines = feature_path.read_text().splitlines()
    if not lines:
        raise CsvParseError(1, "empty feature file, header row required")
    header = [h.strip() for h in lines[0].split(",")]
    expected = list(model.feature_names or [])
    if header != expected:
        raise ValidationError(
            f"feature columns {header} do not match the model's recorded "
            f"feature names {expected} (order matters)")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(expected):
            raise CsvParseError(line_no, f"expected {len(expected)} columns, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise CsvParseError(line_no, f"non-numeric feature value in {line!r}")
        if not all(map(math.isfinite, values)):
            raise CsvParseError(line_no, f"non-finite feature value in {line!r}")
        rows.append(values)
    out_path = Path(args.out) if args.out else _out_dir(args) / "predictions.csv"
    if rows:
        X = np.asarray(rows)
        predictions = model.predict(X)
        out_rows = [tuple(row) + (float(p),) for row, p in zip(rows, predictions)]
    else:
        out_rows = []
    _write_csv(out_path, expected + ["prediction"], out_rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foglink",
        description="Fog-limited FSO link sweeps and QoS model pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="global random seed")
        p.add_argument("--config", help="key=value parameter file")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--stations", help="comma-separated station subset")

    p = sub.add_parser("attenuation-sweep", help="visibility/wavelength attenuation CSV")
    common(p)
    p.set_defaults(func=cmd_attenuation_sweep)

    p = sub.add_parser("link-sweep", help="figure-family link CSVs")
    common(p)
    p.set_defaults(func=cmd_link_sweep)

    p = sub.add_parser("synth-data", help="seeded synthetic visibility archive")
    common(p)
    p.add_argument("--days", type=int, default=3650, help="days per station")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="fit the five QoS models")
    common(p)
    p.add_argument("--data", help="visibility CSV (from synth-data or external)")
    p.add_argument("--synth-days", type=int,
                   help="synthesize this many days instead of reading --data")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score saved models on the held-out split")
    common(p)
    p.add_argument("--data", help="visibility CSV override")
    p.add_argument("--manifest", help="manifest path (default <out-dir>/manifest.json)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    common(p)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--features", required=True, help="feature CSV matching the model schema")
    p.add_argument("--out", help="output CSV (default <out-dir>/predictions.csv)")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CsvParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (TrainingError, AdaBoostTrainingError, StackingError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValidationError, ValueError, UnattainableBerError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
