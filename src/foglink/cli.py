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
    Column,
    CsvParseError,
    TransceiverSweep,
    build_qos_table,
    csv_text,
    parse_visibility_csv,
    read_csv_columns,
    synthesize_dataset,
    write_visibility_csv,
)
from .forest import default_mtry_regression
from .link_budget import (
    OokScheme,
    ReceiverNoiseConfig,
    RfBudgetInputs,
    TransceiverConfig,
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
from .neural import MLPModel, TrainConfig, train
from .serialize import load_model, save_model
from .stacking import LearnerSpec, StackConfig, fit_base_learner, fit_stacked
from .tables import split_indices

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_PARSE = 4
EXIT_TRAINING = 5

MODEL_NAMES = ("rf", "gbr", "adbr", "stacked", "mlp")
METRIC_HEADER = ["model", "location", "n", "MSE", "MAE", "MAPE", "RMSE", "R2"]


class ValidationError(ValueError):
    """Bad configuration or missing/ill-shaped inputs."""


@dataclass(frozen=True)
class RunConfig:
    """Flat key=value run parameters; see configs/default.cfg for the keys."""

    # transceiver
    tx_power_w: float = 0.1
    divergence_mrad: float = 3.0
    tx_aperture_m: float = 0.1
    rx_aperture_m: float = 0.1
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
            tx_aperture_m=self.tx_aperture_m, rx_aperture_m=self.rx_aperture_m,
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
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError:
        raise ValidationError(f"config key {name}: cannot parse value {text!r}")


def _run_config(values: dict) -> RunConfig:
    """The defaults with ``values`` applied; every key must be a RunConfig
    field, every int field must hold an int, and every float or float-tuple
    field must hold finite numbers; booleans are refused for both.
    ``split_fractions`` must hold three fractions and ``sample_records``
    must not be negative."""
    unknown = sorted(set(values) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    cfg = replace(RunConfig(), **values)
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(f.default, int) and type(value) is not int:
            raise ValidationError(f"config key {f.name}: need an integer, got {value!r}")
        if isinstance(f.default, (float, tuple)):
            numbers = value if isinstance(f.default, tuple) else (value,)
            if not (isinstance(numbers, tuple) and all(
                    type(v) in (int, float) and math.isfinite(v) for v in numbers)):
                raise ValidationError(
                    f"config key {f.name}: need finite numbers, got {value!r}")
    if len(cfg.split_fractions) != 3:
        raise ValidationError(f"config key split_fractions: need three fractions "
                              f"(train, middle, test), got {cfg.split_fractions!r}")
    if cfg.sample_records < 0:
        raise ValidationError(f"config key sample_records: need 0 (all records) or a "
                              f"positive count, got {cfg.sample_records!r}")
    return cfg


def _input_file(path, what: str) -> Path:
    """``path`` as a Path; a missing path or a directory is a ValidationError."""
    file = Path(path)
    if not file.is_file():
        raise ValidationError(f"{what} not found or not a regular file: {path}")
    return file


def load_config(path: Optional[str]) -> RunConfig:
    """Defaults, overridden by a flat key=value file when one is given."""
    if path is None:
        return RunConfig()
    defaults = {f.name: f.default for f in fields(RunConfig)}
    updates = {}
    for raw in _input_file(path, "config file").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line not of form key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        updates[key] = _coerce(key, defaults[key], value) if key in defaults else value
    return _run_config(updates)


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
    model = cfg.model()
    visibilities = _grid(cfg.visibility_min_km, cfg.visibility_max_km,
                         cfg.visibility_step_km)[:, None]
    if visibilities.size == 0 or not cfg.wavelengths_nm:
        raise ValidationError("empty visibility or wavelength grid")
    lams = np.array(cfg.wavelengths_nm)
    path = OpticalPath(lams, 0.0, visibilities)
    (_out_dir(args) / "attenuation_sweep.csv").write_text(csv_text(
        ["visibility_km", "wavelength_nm", "q", "beta_per_km", "atten_db_per_km"],
        [visibilities, lams, particle_size_exponent(visibilities, model),
         extinction_coefficient(path, model), attenuation_db_per_km(path, model)]))
    return EXIT_OK


def cmd_link_sweep(args) -> int:
    """Compute and check all five curves, then write them one file at a time;
    a failure writes nothing."""
    cfg = load_config(args.config)
    model = cfg.model()
    if not cfg.wavelengths_nm or not cfg.tx_powers_w:
        raise ValidationError("empty wavelength or transmit power grid")
    fog_classes = cfg.fog_classes()
    for name, fog_visibility in fog_classes.items():
        if fog_visibility >= cfg.clear_visibility_km:
            raise ValidationError(
                f"fog class {name} visibility {fog_visibility} not below "
                f"clear_visibility_km {cfg.clear_visibility_km}")
    noise = cfg.noise()
    tx = cfg.transceiver()
    lams = np.array(cfg.wavelengths_nm)
    powers = np.array(cfg.tx_powers_w)
    # curves over attenuation or range put that grid on the row axis
    attens = _grid(cfg.atten_min_db_per_km, cfg.atten_max_db_per_km,
                   cfg.atten_step_db_per_km)[:, None]
    ranges = _grid(cfg.range_min_km, cfg.range_max_km, cfg.range_step_km)[:, None]
    curves = {}

    # data rate vs specific attenuation, one curve per wavelength
    p_rx = received_power_geometric(tx, attens, cfg.link_range_km)
    rate = achievable_data_rate(p_rx, lams, cfg.photons_per_bit, noise)
    curves["data_rate_vs_attenuation.csv"] = (
        ["attenuation_db_per_km", "wavelength_nm", "received_power_w", "data_rate_bps"],
        (attens, lams, p_rx, rate))

    # received power vs range at the sweep visibility
    path = OpticalPath(lams, ranges, cfg.sweep_visibility_km)
    atten = attenuation_db_per_km(path, model)
    p_rx = received_power_geometric(tx, atten, ranges)
    curves["received_power_vs_range.csv"] = (
        ["range_km", "wavelength_nm", "atten_db_per_km", "received_power_w",
         "received_power_dbm"],
        (ranges, lams, atten, p_rx, watts_to_dbm(p_rx)))

    # BER vs attenuation per transmit power (NRZ, fixed wavelength)
    p_rx = received_power_geometric(replace(tx, tx_power_w=powers), attens,
                                    cfg.link_range_km)
    snr = electrical_snr_linear(p_rx, noise)
    bers = ber(OokScheme.NRZ, snr)
    curves["ber_vs_attenuation.csv"] = (
        ["attenuation_db_per_km", "tx_power_w", "received_power_w", "snr_linear", "ber_nrz"],
        (attens, powers, p_rx, snr, bers))

    # Shannon capacity vs range per wavelength, SNR from the dB budget
    total_db = path_attenuation_db(extinction_coefficient(path, model), ranges)
    snr_db = snr_budget_db(replace(cfg.budget(), wavelength_m=lams * 1e-9,
                                   total_attenuation_db=total_db))
    capacity = channel_capacity(cfg.electrical_bandwidth_hz, db_to_linear(snr_db))
    curves["capacity_vs_range.csv"] = (
        ["range_km", "wavelength_nm", "snr_db", "capacity_bps"],
        (ranges, lams, snr_db, capacity))

    # transmit power penalty vs range per fog class
    names, fog_visibilities = np.array(list(fog_classes)), np.array(list(fog_classes.values()))
    clear_beta = extinction_coefficient(
        OpticalPath(cfg.ber_wavelength_nm, 1.0, cfg.clear_visibility_km), model)
    fog_beta = extinction_coefficient(
        OpticalPath(cfg.ber_wavelength_nm, 1.0, fog_visibilities), model)
    penalty = power_penalty_db(tx, noise, clear_beta, fog_beta, ranges)
    curves["power_penalty_vs_range.csv"] = (
        ["range_km", "fog_class", "fog_visibility_km", "power_penalty_db"],
        (ranges, names, fog_visibilities, penalty))

    out = _out_dir(args)
    for name, (header, columns) in curves.items():
        (out / name).write_text(csv_text(header, columns))
    return EXIT_OK


def _station_profiles(stations: Optional[str]):
    """The profiles a --stations value names; every preset without one."""
    names = (list(DEFAULT_STATION_PROFILES) if stations is None
             else [s.strip() for s in stations.split(",") if s.strip()])
    if not names:
        raise ValidationError(f"--stations {stations!r} names no station; "
                              f"presets: {', '.join(DEFAULT_STATION_PROFILES)}")
    unknown = [n for n in names if n not in DEFAULT_STATION_PROFILES]
    if unknown:
        raise ValidationError(
            f"unknown station(s) {', '.join(unknown)}; "
            f"presets: {', '.join(DEFAULT_STATION_PROFILES)}")
    return [DEFAULT_STATION_PROFILES[n] for n in names]


def cmd_synth_data(args) -> int:
    profiles = _station_profiles(args.stations)
    out = _out_dir(args)
    records = synthesize_dataset(profiles, args.days, args.seed)
    (out / "visibility.csv").write_text(write_visibility_csv(records))
    return EXIT_OK


def _load_records(path, seed: int, cfg: RunConfig):
    """The records of the visibility CSV at ``path``, subsampled with
    ``seed``; rows at a non-synoptic hour and skipped rows are reported on
    stderr."""
    data_path = _input_file(path, "data file")
    with data_path.open() as lines:  # streamed: the parser reads 4,096 lines at a time
        result = parse_visibility_csv(lines)
    records, rejected = result.records, result.rejected
    if result.odd_hours:
        line_no, hour = result.odd_hours[0]
        print(f"{data_path}: {len(result.odd_hours)} row(s) at a non-synoptic hour, "
              f"the first at line {line_no} (hour {hour})", file=sys.stderr)
    if rejected:
        print(f"{data_path}: skipped {len(rejected)} row(s), the first at line "
              f"{rejected[0].line_no} ({rejected[0].reason})", file=sys.stderr)
    if len(records) == 0:
        raise ValidationError("no usable visibility records")
    if cfg.sample_records > 0 and len(records) > cfg.sample_records:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(records), cfg.sample_records, replace=False))
        records = records[keep]
    return records


def _build_table(records, cfg: RunConfig):
    sweep = TransceiverSweep(
        base=cfg.transceiver(), wavelengths_nm=tuple(cfg.wavelengths_nm),
        tx_powers_w=tuple(cfg.tx_powers_w), range_km=cfg.link_range_km,
        attenuation_model=cfg.model())
    return build_qos_table(records, sweep, cfg.noise(), cfg.budget())


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    records = _load_records(args.data, args.seed, cfg)
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
                # the stack fits with --seed too, so it reuses the fits above
                stack = StackConfig(
                    (*specs.values(), LearnerSpec("tree", {"min_leaf_size": cfg.rf_min_leaf})),
                    cfg.stack_folds, args.seed)
                model = fit_stacked(table, stack, [fitted.get(n) for n in specs] + [None])
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
            for k, loss in enumerate(model.round_errors):
                log_rows.append(("adbr", "round_loss", k, loss))
        if name == "stacked":  # one row per configured learner, 0 for a non-member
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
        "source": {"kind": "csv", "path": args.data},
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
    log = np.array(log_rows, dtype=object).reshape(-1, 4)  # no rows when every fit failed
    (out / "training_log.csv").write_text(csv_text(["model", "event", "step", "value"], log.T))
    return EXIT_TRAINING if failures else EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    manifest_path = _input_file(args.manifest or out / "manifest.json", "manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
    except RecursionError:
        raise ValidationError(f"manifest {manifest_path} is nested too deeply") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest {manifest_path} is not a JSON object")
    missing = [key for key in ("config", "source", "seed", "n_rows", "models")
               if key not in manifest]
    if missing:
        raise ValidationError(f"manifest {manifest_path} lacks key(s): {', '.join(missing)}")
    source, models = manifest["source"], manifest["models"]
    if not isinstance(source, dict) or source.get("kind") != "csv":
        bad = ["source.kind ('csv')"]
    else:
        bad = [] if isinstance(source.get("path"), str) else ["source.path"]
    # exact types: bool is an int subclass, and a seed of true draws what seed 1 draws
    bad += [key for key, typ in (("config", dict), ("seed", int), ("n_rows", int),
                                 ("models", dict)) if type(manifest[key]) is not typ]
    if isinstance(models, dict):
        bad += [f"models.{name}.file" for name, entry in sorted(models.items())
                if not (isinstance(entry, dict) and isinstance(entry.get("file"), str))]
    if bad:
        raise ValidationError(
            f"manifest {manifest_path} lacks or mistypes field(s): {', '.join(bad)}")
    cfg = _run_config({key: tuple(value) if isinstance(value, list) else value
                       for key, value in manifest["config"].items()})

    seed = manifest["seed"]
    records = _load_records(args.data or source["path"], seed, cfg)
    qos = _build_table(records, cfg)
    if qos.table.n_rows != manifest["n_rows"]:
        raise ValidationError(
            f"rebuilt table has {qos.table.n_rows} rows, manifest says "
            f"{manifest['n_rows']}; data or config drifted since training")
    _, _, test_idx = split_indices(qos.table.n_rows, cfg.split_fractions, seed)
    test = qos.subset(test_idx)

    base = manifest_path.parent
    missing = [name for name, entry in models.items() if not (base / entry["file"]).is_file()]
    if missing:
        raise ValidationError("missing model file(s): " + ", ".join(
            str(base / models[name]["file"]) for name in missing))

    groups = {"all": np.arange(test.table.n_rows)}
    groups.update((s, np.nonzero(test.stations == s)[0]) for s in set(test.stations.tolist()))
    names, locations = sorted(models), sorted(groups)
    predicted = np.reshape([load_model(base / models[name]["file"]).predict(test.table.features)
                            for name in names], (len(names), test.table.n_rows))
    # model-major metric rows; a MAPE or R² without a value is an empty cell
    reports = [compute_metrics(test.table.targets[groups[location]], p[groups[location]])
               for p in predicted for location in locations]
    values = ([getattr(report, key.lower()) for report in reports] for key in METRIC_HEADER[2:])
    (out / "metrics.csv").write_text(csv_text(METRIC_HEADER, [
        np.repeat(names, len(locations)), locations * len(names),
        *([("" if v is None else v) for v in column] for column in values)]))
    (out / "predictions.csv").write_text(csv_text(
        ["model", "location", "row", "actual", "predicted"],
        [np.array(names)[:, None], test.stations, np.arange(test.table.n_rows),
         test.table.targets, predicted]))
    return EXIT_OK


def cmd_predict(args) -> int:
    model_path = _input_file(args.model, "model file")
    feature_path = _input_file(args.features, "feature file")
    model = load_model(model_path)
    expected = list(model.feature_names or [])
    # streamed through the archive's block reader, so only a newline ends a line
    with feature_path.open() as lines:
        first = next(lines, None)
        if first is None:
            raise CsvParseError(1, "empty feature file, header row required")
        header = [h.strip() for h in first.split(",")]
        if header != expected:
            raise ValidationError(
                f"feature columns {header} do not match the model's recorded "
                f"feature names {expected} (order matters)")
        _, columns = read_csv_columns(lines, [Column(name) for name in expected])
    out_path = Path(args.out) if args.out else Path(args.out_dir) / "predictions.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    X = np.column_stack(columns)
    out_path.write_text(csv_text(expected + ["prediction"], [*columns, model.predict(X)]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foglink",
        description="Fog-limited FSO link sweeps and QoS model pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"--seed": dict(type=int, default=0, help="global random seed"),
              "--config": dict(help="key=value parameter file"),
              "--out-dir": dict(default="out", help="output directory")}

    def command(name, func, help, *flags):
        """A subcommand with the shared flags it reads; it declares the rest."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    command("attenuation-sweep", cmd_attenuation_sweep,
            "visibility/wavelength attenuation CSV", "--config", "--out-dir")
    command("link-sweep", cmd_link_sweep, "figure-family link CSVs", "--config", "--out-dir")

    p = command("synth-data", cmd_synth_data, "seeded synthetic visibility archive",
                "--seed", "--out-dir")
    p.add_argument("--days", type=int, default=3650, help="days per station")
    p.add_argument("--stations", help="comma-separated station subset")

    p = command("train", cmd_train, "fit the five QoS models",
                "--seed", "--config", "--out-dir")
    p.add_argument("--data", required=True,
                   help="visibility CSV (from synth-data or external)")

    p = command("evaluate", cmd_evaluate, "score saved models on the held-out split",
                "--out-dir")
    p.add_argument("--data", help="visibility CSV override")
    p.add_argument("--manifest", help="manifest path (default <out-dir>/manifest.json)")

    p = command("predict", cmd_predict, "apply a saved model to a feature CSV", "--out-dir")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--features", required=True, help="feature CSV matching the model schema")
    p.add_argument("--out", help="output CSV (default <out-dir>/predictions.csv)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CsvParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # ValidationError among them
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a path that cannot be read, or written as asked
        if exc.filename is None:
            raise
        print(f"validation error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
