import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_tree import reference_grow
from test_link_budget import path_loss_penalty

from foglink import adaboost, boosting, cli, forest, stacking, tree
from foglink.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TRAINING,
    EXIT_VALIDATION,
    RunConfig,
    load_config,
    main,
)
from foglink.atmosphere import OpticalPath, extinction_coefficient
from foglink.dataset import CsvParseError, TransceiverSweep, csv_text, parse_visibility_csv
from foglink.link_budget import (
    ReceiverNoiseConfig,
    RfBudgetInputs,
    TransceiverConfig,
    watts_to_dbm,
)
from foglink.serialize import load_model, save_model
from foglink.tables import LabeledTable
from foglink.tree import fit_regression_tree

ROOT = Path(__file__).resolve().parents[1]
FAST_PIPELINE = """
sample_records = 30
wavelengths_nm = 760,1550
tx_powers_w = 0.01,0.1
rf_trees = 4
gbr_stages = 10
gbr_max_depth = 3
adbr_rounds = 3
stack_folds = 2
mlp_epochs = 5
"""


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def write_cfg(tmp_path, text, name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(text)
    return str(cfg)


class TestConfig:
    def test_defaults_load_without_file(self):
        assert load_config(None) == RunConfig()

    def test_overrides_and_comments(self, tmp_path):
        path = write_cfg(tmp_path, "# comment\nrf_trees = 7\nwavelengths_nm = 850,1550\n")
        cfg = load_config(path)
        assert cfg.rf_trees == 7
        assert cfg.wavelengths_nm == (850.0, 1550.0)

    def test_unknown_keys_listed(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "rf_trees = 7\nbogus_key = 3\nworse = x\n")
        with pytest.raises(ValueError, match="bogus_key"):
            load_config(path)
        path = write_cfg(tmp_path, "rx_sensitivity_dbm = -40.0\n")  # removed: no formula read it
        with pytest.raises(ValueError, match="unknown config keys: rx_sensitivity_dbm"):
            load_config(path)
        # removed: no command's formula read them
        path = write_cfg(tmp_path, "tx_efficiency = 0.9\nrx_efficiency = 0.9\n")
        with pytest.raises(ValueError, match="unknown config keys: rx_efficiency, tx_efficiency$"):
            load_config(path)
        # removed: no output depended on it
        path = write_cfg(tmp_path, "target_ber = 1e-9\n")
        assert main(["link-sweep", "--config", path, "--out-dir", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: unknown config keys: target_ber\n"

    def test_example_config_file_parses_to_defaults(self):
        assert load_config("configs/default.cfg") == RunConfig()

    def test_example_config_file_documents_every_key_at_its_default(self, tmp_path):
        """With every ``# key = value`` line uncommented, the file sets each
        RunConfig field once, to its default."""
        text = (ROOT / "configs" / "default.cfg").read_text()
        uncommented = re.sub(r"^# (?=\w+ =)", "", text, flags=re.MULTILINE)
        keys = re.findall(r"^(\w+) =", uncommented, flags=re.MULTILINE)
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
        assert load_config(write_cfg(tmp_path, uncommented)) == RunConfig()

    def test_physics_configs_take_each_field_of_a_run_key_by_name(self):
        """Every physics field but five is set from the run key of its name,
        so a renamed key fails here rather than leave its field at the
        default."""
        physics = (TransceiverConfig, ReceiverNoiseConfig, RfBudgetInputs)
        keys = {f.name for f in fields(RunConfig)}
        assert {f.name for cls in physics for f in fields(cls)} - keys == {
            "tx_efficiency", "rx_efficiency",    # fixed at their 0.8 defaults
            "tx_power_dbm",                      # derived from tx_power_w
            "wavelength_m", "total_attenuation_db"}  # set per row or per curve
        run = replace(RunConfig(), **{f.name: getattr(RunConfig(), f.name) + 0.5
                                      for cls in physics for f in fields(cls)
                                      if f.name in keys})
        for built in (run.transceiver(), run.noise(), run.budget()):
            for f in fields(built):
                expected = (getattr(run, f.name) if f.name in keys
                            else watts_to_dbm(run.tx_power_w) if f.name == "tx_power_dbm"
                            else f.default)
                assert getattr(built, f.name) == expected, f.name
        # the QoS table's grid takes its two grids by name; attenuation_model
        # is parsed, and base and range_km are passed, as train builds it
        assert {f.name for f in fields(TransceiverSweep)} - keys == {
            "base", "range_km", "reference_wavelength_nm"}


class TestAttenuationSweep:
    def test_single_cell_anchor(self, tmp_path):
        cfg = write_cfg(tmp_path, "visibility_min_km = 1\nvisibility_max_km = 1\n"
                                  "wavelengths_nm = 1550\n")
        assert main(["attenuation-sweep", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "attenuation_sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["beta_per_km"]) == pytest.approx(2.13, abs=0.01)

    def test_grid_shape_and_monotonicity(self, tmp_path):
        cfg = write_cfg(tmp_path, "visibility_min_km = 1\nvisibility_max_km = 3\n"
                                  "visibility_step_km = 0.5\nwavelengths_nm = 760,1550\n")
        assert main(["attenuation-sweep", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "attenuation_sweep.csv")
        assert len(rows) == 5 * 2
        for lam in ("760.0", "1550.0"):
            betas = [float(r["beta_per_km"]) for r in rows if r["wavelength_nm"] == lam]
            assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_empty_wavelength_grid_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "wavelengths_nm =\n")
        out = tmp_path / "out"
        assert main(["attenuation-sweep", "--config", cfg, "--out-dir", str(out)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: empty visibility or wavelength grid\n")
        assert not (out / "attenuation_sweep.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["attenuation-sweep", "--out-dir", str(tmp_path / sub)]) == EXIT_OK
        assert (tmp_path / "a/attenuation_sweep.csv").read_bytes() == \
            (tmp_path / "b/attenuation_sweep.csv").read_bytes()


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = out / "cfg"
    cfg.write_text("range_max_km = 2\natten_max_db_per_km = 10\n")
    assert main(["link-sweep", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    return out


class TestLinkSweep:
    @pytest.mark.parametrize("config, n_ranges", [
        ("attenuation_model = kim\n", 100),                          # ~3,000 dB at 9.1 km
        ("attenuation_model = kim\nrange_step_km = 2.5\n", 5),      # gain 0 at 10.1 km
    ], ids=["kim", "kim-to-10.1-km"])
    def test_kim_penalty_is_the_extra_path_loss_at_every_range(self, tmp_path, config,
                                                               n_ranges):
        """Dense kim fog costs thousands of dB near 10 km, past where the
        received power underflows to 0; the penalty stays finite and exact."""
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "out"
        assert main(["link-sweep", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
        run = load_config(cfg)
        def beta(visibility_km):
            return extinction_coefficient(
                OpticalPath(run.ber_wavelength_nm, 1.0, visibility_km), run.model())
        rows = read_csv(out / "power_penalty_vs_range.csv")
        assert len(rows) == 4 * n_ranges  # 4 fog classes
        for r in rows:
            penalty = float(r["power_penalty_db"])
            assert math.isfinite(penalty)
            assert penalty == path_loss_penalty(beta(run.clear_visibility_km),
                                                beta(float(r["fog_visibility_km"])),
                                                float(r["range_km"]))

    @pytest.mark.parametrize("config, message", [
        ("tx_power_w = nan\n", "tx_power_w"),
        ("tx_powers_w = 0.01,nan\n", "tx_powers_w"),
        ("wavelengths_nm =\n", "empty wavelength or transmit power grid"),
        ("tx_powers_w =\n", "empty wavelength or transmit power grid"),
        ("attenuation_model = mie\n", "attenuation_model must be 'kruse' or 'kim', got 'mie'"),
        ("tx_power_w = abc\n", "config key tx_power_w: cannot parse value 'abc'"),
        ("bogus\n", "config line not of form key=value: 'bogus'"),
        ("range_step_km = 0\n", "bad grid: min=0.1, max=10.0, step=0.0"),
        ("fog_light_km = 20\n",
         "fog class light visibility 20.0 not below clear_visibility_km 10.0"),
    ], ids=["nan-power", "nan-power-grid", "no-wavelengths", "no-powers", "unknown-model",
            "unparsable-value", "not-key-value", "zero-step", "fog-not-below-clear"])
    def test_bad_grid_or_value_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                          config, message):
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "out"
        assert main(["link-sweep", "--config", cfg, "--out-dir", str(out)]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_all_figure_families_emitted(self, sweep_dir):
        for name in ("data_rate_vs_attenuation", "received_power_vs_range",
                     "ber_vs_attenuation", "capacity_vs_range",
                     "power_penalty_vs_range"):
            assert (sweep_dir / f"{name}.csv").exists()

    def test_ber_increases_with_attenuation_per_power(self, sweep_dir):
        rows = read_csv(sweep_dir / "ber_vs_attenuation.csv")
        by_power = {}
        for r in rows:
            by_power.setdefault(r["tx_power_w"], []).append(float(r["ber_nrz"]))
        for series in by_power.values():
            assert all(a <= b for a, b in zip(series, series[1:]))
            # strict once the BER is representable (erfc underflows to 0 at
            # very high SNR)
            positive = [v for v in series if v > 0]
            assert len(positive) >= 2
            assert all(a < b for a, b in zip(positive, positive[1:]))

    def test_dense_fog_penalty_dominates_light(self, sweep_dir):
        rows = read_csv(sweep_dir / "power_penalty_vs_range.csv")
        dense = {r["range_km"]: float(r["power_penalty_db"])
                 for r in rows if r["fog_class"] == "dense"}
        light = {r["range_km"]: float(r["power_penalty_db"])
                 for r in rows if r["fog_class"] == "light"}
        assert dense.keys() == light.keys()
        assert all(dense[k] > light[k] for k in dense)

    def test_penalty_equals_closed_form(self, sweep_dir):
        """Every penalty is the extra path loss at the BER wavelength; the
        fixture changes no key the penalty reads."""
        cfg = RunConfig()
        def beta(visibility_km):
            return extinction_coefficient(
                OpticalPath(cfg.ber_wavelength_nm, 1.0, visibility_km), cfg.model())
        rows = read_csv(sweep_dir / "power_penalty_vs_range.csv")
        assert len(rows) == 80  # 20 ranges, 4 fog classes
        for r in rows:
            assert float(r["power_penalty_db"]) == path_loss_penalty(
                beta(cfg.clear_visibility_km), beta(float(r["fog_visibility_km"])),
                float(r["range_km"]))

    def test_capacity_recomputes_from_snr_column(self, sweep_dir):
        from foglink.link_budget import channel_capacity, db_to_linear
        rows = read_csv(sweep_dir / "capacity_vs_range.csv")
        sample = rows[::17]
        for r in sample:
            expected = channel_capacity(1e9, db_to_linear(float(r["snr_db"])))
            assert float(r["capacity_bps"]) == pytest.approx(expected, rel=1e-12)

    def test_received_power_nonincreasing_in_range(self, sweep_dir):
        rows = read_csv(sweep_dir / "received_power_vs_range.csv")
        series = [float(r["received_power_w"]) for r in rows
                  if r["wavelength_nm"] == "1550.0"]
        assert all(a >= b for a, b in zip(series, series[1:]))


@pytest.mark.parametrize("command, config, named", [
    ("link-sweep", "photons_per_bit = 5e-324\n",
     "data_rate_vs_attenuation.csv: column data_rate_bps"),
    ("link-sweep", "tx_power_w = 1e308\n", "data_rate_vs_attenuation.csv: column data_rate_bps"),
    ("link-sweep", "tx_gain_linear = 5e-324\n", "capacity_vs_range.csv: column capacity_bps"),
    ("link-sweep", "load_resistance_ohm = 5e-324\nresponsivity_a_per_w = 1e300\n",
     "ber_vs_attenuation.csv: column snr_linear"),
    ("attenuation-sweep", "visibility_min_km = 5e-324\n",
     "attenuation_sweep.csv: column beta_per_km"),
], ids=["photons-per-bit", "tx-power", "tx-gain", "load-resistance", "visibility-min"])
def test_overflowing_sweep_exits_3_and_writes_nothing(command, config, named, tmp_path,
                                                      capsys):
    """Finite, positive config values whose curves overflow, with numpy's
    warning: every file is checked before the first is written."""
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        code = main([command, "--config", write_cfg(tmp_path, config), "--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"validation error: {named} holds inf or nan; no file written\n")
    assert not list(out.glob("*.csv"))


_SWEEP_KEYS = [f.name for f in fields(RunConfig)][:[f.name for f in fields(RunConfig)]
                                                   .index("sample_records")]
# grids of a few points each, before the drawn lines, which win
_COARSE = "visibility_step_km = 2.5\nrange_step_km = 2.5\natten_step_db_per_km = 10\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(_SWEEP_KEYS), st.sampled_from(
    ["5e-324", "1e308", "0", "-1", "nan", "x", "0.5", "2", "1000", "760,1e308"])),
    min_size=1, max_size=3))
def test_fuzzed_sweep_config_exits_0_or_3_with_finite_cells(lines):
    """Any physics or grid key at an extreme, zero, negative, NaN or
    unparsable value: both sweeps exit 0 or 3, with no exception, and every
    number they write is finite."""
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stderr(io.StringIO()):
        cfg = Path(scratch) / "run.cfg"
        cfg.write_text(_COARSE + "".join(f"{key} = {value}\n" for key, value in lines))
        for command in ("attenuation-sweep", "link-sweep"):
            out = Path(scratch) / command
            code = main([command, "--config", str(cfg), "--out-dir", str(out)])
            assert code in (EXIT_OK, EXIT_VALIDATION)
            for written in out.glob("*.csv"):
                for row in csv.reader(written.read_text().splitlines()[1:]):
                    for cell in row:
                        with contextlib.suppress(ValueError):
                            assert math.isfinite(float(cell)), (written.name, row)


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 0.1, float("nan"), float("inf"),
                   float("-inf")]


@st.composite
def _column(draw, shape):
    """One column of ``shape``: float64 (signed zeros, nan, infinities and
    subnormals among them), int64 (a bare int for a scalar), ``datetime64[D]``
    (NaT and days past year 9999 among them), a numpy string array, or
    Python objects mixing ``""`` and floats (a list when one-dimensional)."""
    size = int(np.prod(shape))
    kind = draw(st.sampled_from(["float", "int", "date", "str", "object"]))
    if kind == "float":
        values = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
                               min_size=size, max_size=size))
        return np.array(values).reshape(shape)
    if kind == "int":
        values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=size, max_size=size))
        return values[0] if shape == () else np.array(values, dtype=np.int64).reshape(shape)
    if kind == "date":
        days = st.one_of(st.integers(-800_000, 3_000_000), st.just(-2**63))
        values = draw(st.lists(days, min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).view("datetime64[D]").reshape(shape)
    if kind == "str":
        text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                       max_size=4)
        return np.array(draw(st.lists(text, min_size=size, max_size=size)),
                        dtype=str).reshape(shape)
    values = np.empty(size, dtype=object)
    values[:] = draw(st.lists(st.one_of(st.just(""), st.sampled_from(_SPECIAL_FLOATS),
                                        st.floats()), min_size=size, max_size=size))
    return values.tolist() if len(shape) == 1 else values.reshape(shape)


def reference_csv(header, columns):
    """``csv_text`` as a plain loop: every value broadcast first, then
    written with ``str``."""
    cells = [np.array(column, dtype=object) if isinstance(column, list) else column
             for column in columns]
    rows = zip(*(column.ravel().tolist() for column in np.broadcast_arrays(*cells)))
    return "\n".join([",".join(header), *(",".join(map(str, row)) for row in rows)]) + "\n"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rows_equal_broadcast_then_str(data):
    """``csv_text`` reads as every value broadcast first and then written
    with ``str``; a zero-length broadcast gives the header alone."""
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    shapes = data.draw(st.lists(st.sampled_from([(), (k,), (n, 1), (1, k), (n, k)]),
                                min_size=1, max_size=5))
    columns = [data.draw(_column(shape)) for shape in shapes]
    header = [f"c{j}" for j in range(len(columns))]
    assert csv_text(header, columns) == reference_csv(header, columns)


def test_lines_made_in_blocks_equal_broadcast_then_str():
    """Lines are made 4,096 at a time, so blocks end inside rows of the
    broadcast grid and a value recurs in several blocks."""
    rng = np.random.default_rng(5)
    columns = [rng.choice(np.array([0.0, -0.0, np.nan, 0.1]), (3001, 1)),
               np.array(["a", "b", "c"]), np.arange(9003).reshape(3001, 3), ["", -0.0, 0.1]]
    header = ["x", "s", "i", "o"]
    assert csv_text(header, columns) == reference_csv(header, columns)


def test_signed_zeros_and_nans_keep_their_text():
    """Equal floats with other bits are written apart: ``-0.0`` after ``0.0``
    stays ``-0.0``, and a negative NaN is still ``nan``."""
    column = np.array([0.0, -0.0, np.nan, -np.nan, -0.0, 0.0])
    assert csv_text(["x"], [column]) == "x\n0.0\n-0.0\nnan\nnan\n-0.0\n0.0\n"


class TestSynthData:
    def test_output_parses_and_is_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth-data", "--days", "4", "--seed", "11",
                         "--stations", "George,Kimberley",
                         "--out-dir", str(tmp_path / sub)]) == EXIT_OK
        text_a = (tmp_path / "a/visibility.csv").read_text()
        assert text_a == (tmp_path / "b/visibility.csv").read_text()
        records = parse_visibility_csv(text_a.splitlines()).records
        assert len(records) == 4 * 3 * 2
        assert {r.station for r in records} == {"George", "Kimberley"}

    def test_unknown_station_rejected(self, tmp_path):
        assert main(["synth-data", "--days", "2", "--stations", "Atlantis",
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("stations", [",", "", " , "])
    def test_value_naming_no_station_rejected(self, tmp_path, capsys, stations):
        out = tmp_path / "out"
        assert main(["synth-data", "--days", "2", "--stations", stations,
                     "--out-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--stations" in err and "names no station" in err
        assert "Traceback" not in err and not out.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small end-to-end train run shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "fast.cfg"
    cfg.write_text(FAST_PIPELINE)
    assert main(["synth-data", "--days", "20", "--seed", "5",
                 "--out-dir", str(root)]) == EXIT_OK
    data = root / "visibility.csv"
    out = root / "run"
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "--seed", "5", "--out-dir", str(out)])
    assert code == EXIT_OK
    return {"root": root, "cfg": cfg, "data": data, "out": out}


class TestTrain:
    def test_manifest_lists_five_models(self, trained):
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        assert sorted(manifest["models"]) == ["adbr", "gbr", "mlp", "rf", "stacked"]
        for entry in manifest["models"].values():
            assert (trained["out"] / entry["file"]).exists()
            assert entry["hyperparameters"]
        assert manifest["failures"] == {}

    def test_training_log_has_mlp_epochs_and_stack_weights(self, trained):
        rows = read_csv(trained["out"] / "training_log.csv")
        events = {(r["model"], r["event"]) for r in rows}
        assert ("mlp", "train_loss") in events
        assert ("stacked", "weight") in events
        assert ("rf", "oob_mse") in events

    def test_retrain_is_byte_identical(self, trained, tmp_path):
        out2 = tmp_path / "again"
        assert main(["train", "--data", str(trained["data"]), "--config",
                     str(trained["cfg"]), "--seed", "5", "--out-dir", str(out2)]) == EXIT_OK
        for name in ("manifest.json", "training_log.csv", "models/rf.json",
                     "models/gbr.json", "models/adbr.json", "models/stacked.json",
                     "models/mlp.json"):
            assert (trained["out"] / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_failed_model_reported_and_rest_survive(self, tmp_path, trained):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(FAST_PIPELINE + "mlp_learning_rate = 1e9\n")  # guaranteed divergence
        out = tmp_path / "broken"
        code = main(["train", "--data", str(trained["data"]), "--config", str(cfg),
                     "--seed", "5", "--out-dir", str(out)])
        assert code == EXIT_TRAINING
        manifest = json.loads((out / "manifest.json").read_text())
        assert "mlp" in manifest["failures"]
        assert sorted(manifest["models"]) == ["adbr", "gbr", "rf", "stacked"]

    def test_dying_fold_worker_fails_the_stack_within_seconds(self, trained, tmp_path):
        """A fold worker killed mid-fit, as the OOM killer would, fails the
        stack with its (learner, fold); the other models are saved.  The
        forest's folds are the first tasks, so no earlier fit can be the one
        reported."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        script = """if True:
            import os, sys
            from foglink import cli, stacking
            fit_fold = stacking._fit_fold

            def dying(task):
                if task[0].kind == "forest":
                    os._exit(9)
                return fit_fold(task)

            stacking._fit_fold = dying
            stacking._fold_workers = lambda n_tasks: 2
            sys.exit(cli.main(sys.argv[1:]))
        """
        out = tmp_path / "run"
        run = subprocess.run(
            [sys.executable, "-c", script, "train", "--data", str(trained["data"]),
             "--config", str(trained["cfg"]), "--seed", "5", "--out-dir", str(out)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
            text=True, timeout=20)
        assert run.returncode == EXIT_TRAINING, run.stderr
        assert ("training failed for stacked: base learner 0 (forest) failed on fold 0: "
                in run.stderr and "Traceback" not in run.stderr)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["models"]) == ["adbr", "gbr", "mlp", "rf"]
        assert sorted(p.name for p in (out / "models").iterdir()) == [
            "adbr.json", "gbr.json", "mlp.json", "rf.json"]

    def test_models_equal_reference_split_search(self, trained, tmp_path, monkeypatch):
        """Every model and log of a run whose trees grow through the
        brute-force reference search is byte-identical to the presorted one."""
        monkeypatch.setattr(tree, "_grow", reference_grow)
        out = tmp_path / "reference"
        assert main(["train", "--data", str(trained["data"]), "--config",
                     str(trained["cfg"]), "--seed", "5", "--out-dir", str(out)]) == EXIT_OK
        written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert len(written) == 7
        for name in written:
            assert (trained["out"] / name).read_bytes() == (out / name).read_bytes()

    def test_loaded_models_save_to_the_same_bytes(self, trained, tmp_path):
        for path in sorted((trained["out"] / "models").glob("*.json")):
            again = tmp_path / path.name
            save_model(load_model(path), again)
            assert again.read_bytes() == path.read_bytes(), path.name

    def test_requires_data(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out-dir", str(tmp_path)])
        assert err.value.code == 2
        assert "the following arguments are required: --data" in capsys.readouterr().err

    def test_zero_hidden_units_fail_the_mlp(self, trained, tmp_path, capsys):
        cfg = tmp_path / "hidden0.cfg"
        cfg.write_text(FAST_PIPELINE + "mlp_hidden = 0\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(trained["data"]), "--config", str(cfg),
                     "--seed", "5", "--out-dir", str(out)]) == EXIT_TRAINING
        assert "training failed for mlp: layer_sizes" in capsys.readouterr().err
        assert "layer_sizes" in json.loads((out / "manifest.json").read_text())["failures"]["mlp"]

    @pytest.mark.parametrize("setting, name", [("gbr_max_depth = -1", "gbr"),
                                               ("adbr_max_depth = -2", "adbr")])
    def test_negative_max_depth_fails_the_learner(self, trained, tmp_path, capsys, setting,
                                                  name):
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(FAST_PIPELINE + setting + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(trained["data"]), "--config", str(cfg),
                     "--seed", "5", "--out-dir", str(out)]) == EXIT_TRAINING
        assert f"training failed for {name}: max_depth must be nonnegative" in \
            capsys.readouterr().err
        assert name in json.loads((out / "manifest.json").read_text())["failures"]

    def test_skipped_visibility_rows_reported(self, trained, tmp_path, capsys):
        lines = trained["data"].read_text().splitlines()
        station, date, hour, _, wind, altitude = lines[3].split(",")
        lines[3] = ",".join((station, date, hour, "-1.0", wind, altitude))
        bad = tmp_path / "visibility.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(bad), "--config", str(trained["cfg"]),
                     "--seed", "5", "--out-dir", str(tmp_path / "run")]) == EXIT_OK
        assert capsys.readouterr().err == (
            f"{bad}: skipped 1 row(s), the first at line 4 (nonpositive visibility)\n")
        assert main(["evaluate", "--out-dir", str(tmp_path / "run")]) == EXIT_OK
        assert "skipped 1 row(s), the first at line 4" in capsys.readouterr().err

    def test_no_usable_visibility_record_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "visibility.csv"
        bad.write_text("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                       "A,2015-01-01,8,0.0,1.0,1.0\nA,2015-01-01,14,-2.0,1.0,1.0\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(bad), "--out-dir", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"{bad}: skipped 2 row(s), the first at line 2 (nonpositive visibility)\n"
            "validation error: no usable visibility records\n")
        assert not (out / "manifest.json").exists()

    def test_non_synoptic_hours_summarised_in_one_line(self, trained, tmp_path):
        """One line naming the CSV, as a user's own interpreter shows it: no
        Python warning with the installed source path.  A parse error after
        such rows prints only itself."""
        lines = trained["data"].read_text().splitlines()
        for index, hour in ((5, "9"), (9, "+9")):
            cells = lines[index].split(",")
            lines[index] = ",".join(cells[:2] + [hour] + cells[3:])
        data = tmp_path / "odd.csv"

        def train():
            data.write_text("\n".join(lines) + "\n")
            return subprocess.run(
                [sys.executable, "-c", "import sys; from foglink.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "train", "--data", str(data),
                 "--config", str(trained["cfg"]), "--seed", "5",
                 "--out-dir", str(tmp_path / "run")],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                capture_output=True, text=True)

        run = train()
        assert (run.returncode, run.stderr) == (EXIT_OK, (
            f"{data}: 2 row(s) at a non-synoptic hour, the first at line 6 (hour 9)\n"))
        assert "dataset.py" not in run.stderr and "UserWarning" not in run.stderr
        lines[12] = lines[12].replace(",", ",,", 1)
        run = train()
        assert (run.returncode, run.stderr) == (
            EXIT_PARSE, "parse error: line 13: expected 6 columns, got 7\n")

    def test_stacked_reuses_seed_free_fits(self, trained, tmp_path, monkeypatch):
        """rf, gbr and adbr are fitted once per fold plus once on the full
        table; the stacked model reuses that full-table fit, and its file is
        the same as when the stack makes its own final fits, one for each
        learner of nonzero weight."""
        calls = Counter()
        for fn in (forest.fit_random_forest, boosting.fit_gradient_boost,
                   adaboost.fit_adaboost_r2):
            def counted(*args, _fn=fn, **kwargs):
                calls[_fn.__name__] += 1
                return _fn(*args, **kwargs)
            for module in list(sys.modules.values()):  # every site that imported it
                if (getattr(module, "__name__", "").startswith("foglink")
                        and getattr(module, fn.__name__, None) is fn):
                    monkeypatch.setattr(module, fn.__name__, counted)
        argv = ["train", "--data", str(trained["data"]), "--config", str(trained["cfg"]),
                "--seed", "5", "--out-dir"]
        folds = load_config(str(trained["cfg"])).stack_folds
        names = {"forest": "fit_random_forest", "gbr": "fit_gradient_boost",
                 "adbr": "fit_adaboost_r2"}
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        kinds = manifest["models"]["stacked"]["hyperparameters"]["base"]
        weights = json.loads((trained["out"] / "models" / "stacked.json").read_text())["weights"]
        refitted = {names[kind] for kind, w in zip(kinds, weights) if w > 0 and kind in names}
        assert refitted and refitted != set(names.values())  # both cases occur
        # fits in pool workers are invisible to the counters: fit in process
        monkeypatch.setattr(stacking, "_fold_workers", lambda n_tasks: 1)

        assert main(argv + [str(tmp_path / "reuse")]) == EXIT_OK
        assert calls == {name: folds + 1 for name in names.values()}

        calls.clear()
        monkeypatch.setattr(cli, "fit_stacked",
                            lambda data, cfg, fitted=None: stacking.fit_stacked(data, cfg))
        assert main(argv + [str(tmp_path / "refit")]) == EXIT_OK
        assert calls == {name: folds + 1 + (name in refitted) for name in names.values()}
        for run in ("reuse", "refit"):
            assert ((tmp_path / run / "models" / "stacked.json").read_bytes()
                    == (trained["out"] / "models" / "stacked.json").read_bytes())


class TestEvaluate:
    def test_metrics_schema_and_scores(self, trained):
        assert main(["evaluate", "--data", str(trained["data"]),
                     "--out-dir", str(trained["out"])]) == EXIT_OK
        with open(trained["out"] / "metrics.csv") as handle:
            header = handle.readline().strip().split(",")
        assert header == ["model", "location", "n", "MSE", "MAE", "MAPE", "RMSE", "R2"]
        rows = read_csv(trained["out"] / "metrics.csv")
        overall = {r["model"]: float(r["R2"]) for r in rows if r["location"] == "all"}
        assert set(overall) == {"adbr", "gbr", "mlp", "rf", "stacked"}
        assert overall["rf"] > 0.5  # tiny run, loose sanity bound
        predictions = read_csv(trained["out"] / "predictions.csv")
        assert set(predictions[0]) == {"model", "location", "row", "actual", "predicted"}

    def test_identity_oracle_scores_perfectly(self, trained, tmp_path):
        out = trained["out"]
        manifest = json.loads((out / "manifest.json").read_text())
        # memorise the whole rebuilt table, then score it on the test rows
        from foglink.cli import _build_table, _load_records
        cfg = load_config(str(trained["cfg"]))
        records = _load_records(manifest["source"]["path"], manifest["seed"], cfg)
        qos = _build_table(records, cfg)
        oracle = fit_regression_tree(qos.table, 1)
        save_model(oracle, out / "models" / "oracle.json")
        manifest["models"]["oracle"] = {"file": "models/oracle.json",
                                        "hyperparameters": {"min_leaf_size": 1}}
        patched = out / "manifest_oracle.json"  # beside models/ so paths resolve
        patched.write_text(json.dumps(manifest, sort_keys=True))
        eval_out = tmp_path / "eval"
        assert main(["evaluate", "--data", str(trained["data"]),
                     "--manifest", str(patched), "--out-dir", str(eval_out)]) == EXIT_OK
        rows = read_csv(eval_out / "metrics.csv")
        oracle_all = next(r for r in rows if r["model"] == "oracle" and r["location"] == "all")
        assert float(oracle_all["R2"]) == pytest.approx(1.0, abs=1e-12)
        assert float(oracle_all["RMSE"]) == pytest.approx(0.0, abs=1e-12)

    def test_missing_model_file_itemised(self, trained, tmp_path):
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        manifest["models"]["ghost"] = {"file": "models/ghost.json", "hyperparameters": {}}
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps(manifest))
        assert main(["evaluate", "--data", str(trained["data"]),
                     "--manifest", str(patched), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION

    def test_manifest_missing_keys_named(self, tmp_path, capsys):
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps({"config": {}, "seed": 0}))
        assert main(["evaluate", "--manifest", str(patched),
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert "lacks key(s): source, n_rows, models" in capsys.readouterr().err

    def test_manifest_nested_fields_named(self, tmp_path, capsys):
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps({"config": {}, "seed": 0, "source": {}, "n_rows": 1,
                                       "models": {}}))
        assert main(["evaluate", "--manifest", str(patched),
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "field(s): source.kind" in err and "Traceback" not in err
        csv = {"kind": "csv", "path": "v.csv"}
        for source, seed, model, named in (({"kind": "csv"}, 0, {"file": "m"}, "source.path"),
                                           # as `train --synth-days` of earlier versions wrote it
                                           ({"kind": "synth", "days": 2, "stations": ["George"]},
                                            0, {"file": "m"}, "source.kind"),
                                           (csv, "x", {"file": "m"}, "seed"),
                                           (csv, True, {"file": "m"}, "seed"),
                                           (csv, 0, {}, "models.m.file")):
            patched.write_text(json.dumps({"config": {}, "seed": seed, "source": source,
                                           "n_rows": 1, "models": {"m": model}}))
            assert main(["evaluate", "--manifest", str(patched),
                         "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
            assert f"field(s): {named}" in capsys.readouterr().err

    def test_non_finite_manifest_config_value_named(self, trained, tmp_path, capsys):
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        manifest["config"]["wavelengths_nm"][0] = float("inf")
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps(manifest))
        assert main(["evaluate", "--data", str(trained["data"]),
                     "--manifest", str(patched), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "wavelengths_nm" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("sample_records", "x"), ("stack_folds", 2.5),
                                            ("rf_trees", True)])
    def test_mistyped_manifest_int_config_value_named(self, trained, tmp_path, capsys,
                                                      key, value):
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        manifest["config"][key] = value
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps(manifest))
        assert main(["evaluate", "--data", str(trained["data"]),
                     "--manifest", str(patched), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config key {key}: need an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("tx_power_w", True), ("fade_margin_db", False),
                                            ("tx_powers_w", [True])],
                             ids=["tx_power_w-true", "fade_margin_db-false", "tx_powers_w-[true]"])
    def test_mistyped_manifest_float_config_value_named(self, trained, tmp_path, capsys,
                                                        key, value):
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        manifest["config"][key] = value
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps(manifest))
        assert main(["evaluate", "--data", str(trained["data"]),
                     "--manifest", str(patched), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config key {key}: need finite numbers" in err and "Traceback" not in err

    def test_unknown_manifest_config_key_named(self, trained, tmp_path, capsys):
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        manifest["config"]["bogus_key"] = 1
        manifest["config"]["rx_sensitivity_dbm"] = -40.0  # removed keys, as old manifests hold
        manifest["config"]["tx_efficiency"] = manifest["config"]["rx_efficiency"] = 0.8
        manifest["config"]["target_ber"] = 1e-9
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps(manifest))
        assert main(["evaluate", "--data", str(trained["data"]),
                     "--manifest", str(patched), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert ("unknown config keys: bogus_key, rx_efficiency, rx_sensitivity_dbm, "
                "target_ber, tx_efficiency") in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{", "is not JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ("[]", "is not a JSON object"),
        ('{"config":' + "[" * 100_000 + "]" * 100_000 + "}", "is nested too deeply"),
    ], ids=["not-json", "array", "nested-too-deeply"])
    def test_manifest_not_a_shallow_object_exits_3(self, tmp_path, capsys, text, message):
        """The deep text is built as a string: ``json.dumps`` cannot encode it
        either."""
        patched = tmp_path / "manifest.json"
        patched.write_text(text)
        assert main(["evaluate", "--manifest", str(patched),
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: manifest {patched} {message}\n"

    def test_row_count_drift_exits_3(self, trained, tmp_path, capsys):
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        n_rows = manifest["n_rows"]
        manifest["n_rows"] = n_rows + 1
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps(manifest))
        assert main(["evaluate", "--manifest", str(patched),
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert (f"validation error: rebuilt table has {n_rows} rows, manifest says "
                f"{n_rows + 1}; data or config drifted since training\n") in err
        assert "Traceback" not in err and not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("where", ["config file", "manifest"])
@pytest.mark.parametrize("key, text, value, message", [
    ("split_fractions", "0.5,0.5", [0.5, 0.5], "need three fractions"),
    ("sample_records", "-5", -5, "need 0 (all records) or a positive count")],
    ids=["split_fractions", "sample_records"])
def test_out_of_range_config_value_named(key, text, value, message, where, trained,
                                         tmp_path, capsys):
    if where == "config file":
        argv = ["train", "--data", str(trained["data"]),
                "--config", write_cfg(tmp_path, f"{key} = {text}\n")]
    else:
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        manifest["config"][key] = value
        patched = tmp_path / "manifest.json"
        patched.write_text(json.dumps(manifest))
        argv = ["evaluate", "--manifest", str(patched)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"config key {key}: {message}" in err and "Traceback" not in err


# feature-file lines: numbers in several spellings, padded with spaces
_CELL = st.tuples(
    st.sampled_from(["", " ", "  "]),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
              st.sampled_from(["1e3", "+2", "-0.0", "0", ".5", "-7.5E-3"])),
    st.sampled_from(["", " "])).map("".join)
_ROW = st.lists(_CELL, min_size=3, max_size=3)
_BLANK = st.sampled_from(["", " ", "   "])
_NOT_A_NUMBER = st.sampled_from(["abc", "", "1.2.3", "0x10", "--1"])
_NOT_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])


def reference_feature_rows(text, names):
    """The line loop ``predict`` parsed with before the block reader, kept as
    its reference in the reader's messages: the rows of a feature CSV's
    body, split only at newlines; the first bad line raises
    ``CsvParseError`` naming it."""
    rows = []
    for line_no, line in enumerate(text.split("\n")[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise CsvParseError(line_no, f"expected {len(names)} columns, got {len(cells)}")
        row = []
        for name, cell in zip(names, cells):
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(line_no, f"column {name!r}: not a number: {cell!r}")
            if not math.isfinite(value):
                raise CsvParseError(line_no, f"column {name!r}: not finite: {cell!r}")
            row.append(value)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def boosted_dir(tmp_path_factory):
    """A directory holding a three-feature AdaBoost model, ``adbr.json``."""
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(40, 3))
    table = LabeledTable(X, X[:, 0] - X[:, 1] * X[:, 2], ("a", "b", "c"))
    directory = tmp_path_factory.mktemp("boosted")
    save_model(adaboost.fit_adaboost_r2(table, 5, 2), directory / "adbr.json")
    return directory


class TestPredict:
    @pytest.fixture
    def tree_file(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 2))
        y = rng.uniform(size=12)
        model = fit_regression_tree(LabeledTable(X, y, ("u", "v")), 1)
        path = tmp_path / "tree.json"
        save_model(model, path)
        return path, X, y

    def test_memorising_tree_returns_targets(self, tree_file, tmp_path):
        path, X, y = tree_file
        feats = tmp_path / "feats.csv"
        lines = ["u,v"] + [f"{float(a)!r},{float(b)!r}" for a, b in X]
        feats.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert [float(r["prediction"]) for r in rows] == pytest.approx(list(y), rel=1e-12)

    def test_out_parent_directories_created(self, tree_file, tmp_path):
        path, X, y = tree_file
        feats = tmp_path / "feats.csv"
        feats.write_text("u,v\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in X))
        out = tmp_path / "new" / "nested" / "pred.csv"
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(out), "--out-dir", str(tmp_path / "unused")]) == EXIT_OK
        assert [float(r["prediction"]) for r in read_csv(out)] == pytest.approx(list(y),
                                                                               rel=1e-12)
        assert not (tmp_path / "unused").exists()

    def test_reordered_columns_refused(self, tree_file, tmp_path):
        path, X, _ = tree_file
        feats = tmp_path / "feats.csv"
        feats.write_text("v,u\n0.5,0.5\n")
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(tmp_path / "pred.csv")]) == EXIT_VALIDATION

    def test_empty_feature_file_gives_empty_output(self, tree_file, tmp_path):
        path, _, _ = tree_file
        feats = tmp_path / "feats.csv"
        feats.write_text("u,v\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "u,v,prediction\n"

    def test_zero_byte_feature_file_is_parse_error(self, tree_file, tmp_path, capsys):
        path, _, _ = tree_file
        feats = tmp_path / "feats.csv"
        feats.write_text("")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: line 1: empty feature file, header row required\n")
        assert not out.exists()

    def test_bad_number_is_parse_error(self, tree_file, tmp_path):
        path, _, _ = tree_file
        feats = tmp_path / "feats.csv"
        feats.write_text("u,v\n0.5,banana\n")
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(tmp_path / "pred.csv")]) == EXIT_PARSE

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_parse_error(self, tree_file, tmp_path, capsys, value):
        path, _, _ = tree_file
        feats = tmp_path / "feats.csv"
        feats.write_text(f"u,v\n0.5,0.5\n0.5,{value}\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(out)]) == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_parse_equals_line_loop(self, boosted_dir, data):
        """Blank lines, padded cells and several spellings float() takes, with at
        most one ragged, non-numeric or non-finite line: exit code, stderr and
        output bytes equal those of the line loop's rows."""
        lines = [",".join(cells) for cells in data.draw(st.lists(st.one_of(
            _ROW, _BLANK.map(lambda blank: [blank])), max_size=8))]
        bad = data.draw(st.sampled_from([None, "short", "long", "not a number", "not finite"]))
        if bad is not None:
            cells = data.draw(_ROW)
            if bad == "short":
                cells = cells[:data.draw(st.integers(1, 2))]
            elif bad == "long":
                cells += data.draw(st.lists(_CELL, min_size=1, max_size=2))
            else:
                token = data.draw(_NOT_A_NUMBER if bad == "not a number" else _NOT_FINITE)
                cells[data.draw(st.integers(0, 2))] = token
            lines.insert(data.draw(st.integers(0, len(lines))), ",".join(cells))
        text = "\n".join(["a,b,c"] + lines) + data.draw(st.sampled_from(["", "\n"]))
        feats, out = boosted_dir / "feats.csv", boosted_dir / "pred.csv"
        feats.write_text(text)
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["predict", "--model", str(boosted_dir / "adbr.json"),
                         "--features", str(feats), "--out", str(out)])
        try:
            rows = reference_feature_rows(text, ["a", "b", "c"])
        except CsvParseError as exc:
            assert (code, err.getvalue()) == (EXIT_PARSE, f"parse error: {exc}\n")
            assert not out.exists()
            return
        assert (code, err.getvalue()) == (EXIT_OK, "")
        model = load_model(boosted_dir / "adbr.json")
        predictions = model.predict(np.asarray(rows)).tolist() if rows else []
        reference = [",".join(map(str, row + [p])) for row, p in zip(rows, predictions)]
        assert out.read_text() == "\n".join(["a,b,c,prediction", *reference]) + "\n"

    @pytest.mark.parametrize("line_no", [4097, 4098], ids=["last-of-block-1", "first-of-block-2"])
    def test_fault_at_a_block_boundary_names_its_line(self, tree_file, tmp_path, capsys,
                                                      line_no):
        path, _, _ = tree_file
        lines = ["u,v"] + ["0.5,0.25"] * 5000
        lines[line_no - 1] = "0.5,x"
        text = "\n".join(lines) + "\n"
        feats, out = tmp_path / "feats.csv", tmp_path / "pred.csv"
        feats.write_text(text)
        with pytest.raises(CsvParseError) as want:
            reference_feature_rows(text, ["u", "v"])
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {want.value}\n" == (
            f"parse error: line {line_no}: column 'v': not a number: 'x'\n")
        assert not out.exists()

    def test_one_column_file_skips_blank_lines(self, tmp_path):
        """With one column a blank line has a row's comma count, and is
        still skipped."""
        X = np.array([[0.0], [1.0], [2.0]])
        path, feats, out = tmp_path / "tree.json", tmp_path / "feats.csv", tmp_path / "pred.csv"
        save_model(fit_regression_tree(LabeledTable(X, X[:, 0] * 10, ("u",)), 1), path)
        feats.write_text("u\n0.0\n\n  \n2.0\n")
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "u,prediction\n0.0,0.0\n2.0,20.0\n"

    @pytest.mark.parametrize("corrupt, message", [
        (lambda p: p["left"].__setitem__(0, 0), "children in (0,"),
        (lambda p: p["right"].__setitem__(0, len(p["right"])), "children in (0,"),
        (lambda p: p["value"].pop(), "one nonzero length"),
    ], ids=["self-loop", "child-out-of-range", "length-mismatch"])
    def test_invalid_tree_nodes_are_validation_errors(self, tree_file, tmp_path, capsys,
                                                      corrupt, message):
        path, _, _ = tree_file
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        feats = tmp_path / "feats.csv"
        feats.write_text("u,v\n0.5,0.5\n")
        assert main(["predict", "--model", str(path), "--features", str(feats),
                     "--out", str(tmp_path / "pred.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "tree.json" in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda p: p.update(weights=[float("nan")] * len(p["weights"])),
         "non-finite number NaN"),
        (lambda p: p["base_models"].pop(), "{n} positive weights for {short} base models"),
    ], ids=["nan", "too-few"])
    def test_bad_stacking_weights_are_validation_errors(self, trained, tmp_path, capsys,
                                                        corrupt, message):
        payload = json.loads((trained["out"] / "models" / "stacked.json").read_text())
        n = sum(w > 0 for w in payload["weights"])
        corrupt(payload)
        message = message.format(n=n, short=n - 1)
        model = tmp_path / "stacked.json"
        model.write_text(json.dumps(payload))
        feats = tmp_path / "feats.csv"
        feats.write_text(",".join(payload["feature_names"]) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--features", str(feats),
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "stacked.json" in err and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, corrupt, message", [
        ("adbr", lambda p: p["alphas"].pop(), "alpha per weak learner"),
        ("adbr", lambda p: p.update(alphas=[], learners=[]), "at least one learner"),
        ("adbr", lambda p: p["alphas"].append(1.0), "alpha per weak learner"),
        ("rf", lambda p: p.update(trees=[]), "at least one tree"),
        ("mlp", lambda p: p.update(x_std=[0.0] * len(p["x_std"])), "x_std > 0"),
        ("mlp", lambda p: p.update(x_mean=p["x_mean"][1:]), "x_mean and x_std"),
        ("gbr", lambda p: p.update(init_value=float("nan")), "non-finite number NaN"),
        ("gbr", lambda p: p["trees"][0]["value"].__setitem__(-1, float("inf")),
         "non-finite number Infinity"),
    ], ids=["adbr-alpha-short", "adbr-no-learners", "adbr-alpha-extra", "rf-no-trees",
            "mlp-zero-std", "mlp-short-mean", "nan-literal", "infinity-literal"])
    def test_unpredictable_model_file_is_validation_error(self, trained, tmp_path, capsys,
                                                         name, corrupt, message):
        """A model file that loads but could not predict, or would predict NaN,
        is refused when it is read."""
        payload = json.loads((trained["out"] / "models" / f"{name}.json").read_text())
        corrupt(payload)
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps(payload))
        feats = tmp_path / "feats.csv"
        feats.write_text(",".join(payload["feature_names"]) + "\n"
                         + ",".join(["1.0"] * len(payload["feature_names"])) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--features", str(feats),
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"model file {model}" in err and message in err and "Traceback" not in err
        assert not out.exists()

    def test_prediction_not_finite_names_the_model_and_feature_line(self, trained, tmp_path,
                                                                    capsys):
        """An mlp fed 1e308 features predicts NaN; the line number counts
        the blank line before it."""
        model = trained["out"] / "models" / "mlp.json"
        feats = tmp_path / "feats.csv"
        feats.write_text(",".join(json.loads(model.read_text())["feature_names"])
                         + "\n0,1e9,3.0,0.1,1550\n\n1e+308,1e9,3.0,1e+308,1550\n")
        out = tmp_path / "pred.csv"
        with pytest.warns(RuntimeWarning):
            code = main(["predict", "--model", str(model), "--features", str(feats),
                         "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"validation error: model file {model} predicts inf "
                                           f"or nan for feature line 4\n")
        assert not out.exists()

    def test_model_missing_field_is_validation_error(self, trained, tmp_path, capsys):
        payload = json.loads((trained["out"] / "models" / "gbr.json").read_text())
        del payload["init_value"]
        model = tmp_path / "gbr.json"
        model.write_text(json.dumps(payload))
        feats = tmp_path / "feats.csv"
        feats.write_text(",".join(payload["feature_names"]) + "\n")
        assert main(["predict", "--model", str(model), "--features", str(feats),
                     "--out", str(tmp_path / "pred.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "gbr.json" in err and "init_value" in err


@pytest.mark.parametrize("command, where", [("predict", "feature line 2"),
                                            ("evaluate", "test row 0")])
def test_overflowing_gbr_exits_3_naming_the_model_and_row(command, where, trained, tmp_path,
                                                           capsys):
    """A gbr whose initial value and every leaf hold 1.7e308 loads, and
    predicts inf for every row."""
    payload = json.loads((trained["out"] / "models" / "gbr.json").read_text())
    payload["init_value"] = 1.7e308
    for node_lists in payload["trees"]:
        node_lists["value"] = [1.7e308] * len(node_lists["value"])
    model = tmp_path / "models" / "gbr.json"
    model.parent.mkdir()
    model.write_text(json.dumps(payload))
    if command == "predict":
        feats = tmp_path / "feats.csv"
        feats.write_text(",".join(payload["feature_names"]) + "\n0,1e9,3.0,0.1,1550\n")
        argv = ["predict", "--model", str(model), "--features", str(feats)]
    else:
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        manifest["models"] = {"gbr": manifest["models"]["gbr"]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = ["evaluate", "--manifest", str(tmp_path / "manifest.json")]
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        code = main(argv + ["--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"validation error: model file {model} predicts inf "
                                       f"or nan for {where}\n")
    assert not list(out.glob("*.csv"))


def test_overflowing_metric_exits_3_naming_the_file_and_column(trained, tmp_path, capsys):
    """Predictions of 1e200 are finite, but their squared errors are not."""
    payload = json.loads((trained["out"] / "models" / "gbr.json").read_text())
    payload["init_value"] = 1e200
    model = tmp_path / "models" / "gbr.json"
    model.parent.mkdir()
    model.write_text(json.dumps(payload))
    manifest = json.loads((trained["out"] / "manifest.json").read_text())
    manifest["models"] = {"gbr": manifest["models"]["gbr"]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        code = main(["evaluate", "--manifest", str(tmp_path / "manifest.json"),
                     "--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == ("validation error: metrics.csv: column MSE holds inf "
                                       "or nan; no file written\n")
    assert not list(out.glob("*.csv"))


def _json_paths(node, path=()):
    """The path to every value below ``node``: each key of an object, and
    the first and last entries of an array."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = {0: node[0], -1: node[-1]}.items() if isinstance(node, list) and node else ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_DELETE = object()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_manifest_and_model_files_exit_0_3_4_or_5(trained, data):
    """One field of the manifest or of a model file deleted, or replaced by
    a value of another type or by 1e308: ``evaluate``, and ``predict`` with
    that model, end in an exit code, with no exception."""
    target = data.draw(st.sampled_from(
        ["manifest.json", *(f"models/{name}.json" for name in cli.MODEL_NAMES)]))
    document = json.loads((trained["out"] / target).read_text())
    *parents, last = data.draw(st.sampled_from(list(_json_paths(document))))
    holder = document
    for key in parents:
        holder = holder[key]
    replacement = data.draw(st.sampled_from([_DELETE, None, True, 1e308, "", [], {}]))
    if replacement is _DELETE:
        del holder[last]
    else:
        holder[last] = replacement
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stderr(io.StringIO()):
        run = Path(scratch)
        shutil.copytree(trained["out"] / "models", run / "models")
        shutil.copy(trained["out"] / "manifest.json", run)
        (run / target).write_text(json.dumps(document))
        codes = [main(["evaluate", "--manifest", str(run / "manifest.json"),
                       "--out-dir", str(run / "out")])]
        if target != "manifest.json":
            feats = run / "feats.csv"
            names = json.loads((trained["out"] / "manifest.json").read_text())["feature_names"]
            feats.write_text(",".join(names) + "\n0,1e9,3.0,0.1,1550\n1,1e10,20,0.01,760\n")
            codes.append(main(["predict", "--model", str(run / target), "--features",
                               str(feats), "--out", str(run / "predictions.csv")]))
    assert set(codes) <= {EXIT_OK, EXIT_VALIDATION, EXIT_PARSE, EXIT_TRAINING}


# flags each command used to accept and ignore
REMOVED_FLAGS = [(command, flag) for command in ("attenuation-sweep", "link-sweep")
                 for flag in ("--seed", "--stations")] + [
    ("synth-data", "--config"),
    *(("train", flag) for flag in ("--synth-days", "--stations")),
    *(("evaluate", flag) for flag in ("--seed", "--config", "--stations")),
    *(("predict", flag) for flag in ("--seed", "--config", "--stations"))]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
def test_unread_flag_is_usage_error(command, flag, tmp_path, capsys):
    value = {"--seed": "3", "--config": str(tmp_path / "x.cfg"), "--stations": "George",
             "--synth-days": "3"}[flag]
    required = {"predict": ["--model", "m.json", "--features", "f.csv"],
                "train": ["--data", "v.csv"]}.get(command, [])
    with pytest.raises(SystemExit) as err:
        main([command, flag, value, "--out-dir", str(tmp_path)] + required)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err_text
    assert "Traceback" not in err_text


# (flag naming an input file, command line around it); {dir} is a directory
DIRECTORY_INPUTS = [
    ("--config", ["attenuation-sweep", "--config", "{dir}"]),
    ("train --data", ["train", "--data", "{dir}"]),
    ("evaluate --data", ["evaluate", "--manifest", "{manifest}", "--data", "{dir}"]),
    ("--manifest", ["evaluate", "--manifest", "{dir}"]),
    ("--model", ["predict", "--model", "{dir}", "--features", "{features}"]),
    ("--features", ["predict", "--model", "{model}", "--features", "{dir}"]),
]


@pytest.mark.parametrize("argv", [argv for _, argv in DIRECTORY_INPUTS],
                         ids=[flag for flag, _ in DIRECTORY_INPUTS])
def test_directory_as_input_file_is_validation_error(argv, trained, tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text("u,v\n")
    paths = {"dir": tmp_path / "folder", "manifest": trained["out"] / "manifest.json",
             "model": trained["out"] / "models" / "rf.json", "features": features}
    paths["dir"].mkdir()
    out = tmp_path / "out"
    assert main([arg.format(**paths) for arg in argv]
                + ["--out-dir", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"not a regular file: {paths['dir']}" in err and "Traceback" not in err


# commands whose output path cannot be written; {file} is a regular file,
# {dir} a directory, and {blocked} holds a file named models and a directory
# named attenuation_sweep.csv
OUTPUT_PATHS = [
    ("predict --out dir", ["predict", "--model", "{model}", "--features", "{features}",
                           "--out", "{dir}"], "{dir}"),
    ("predict --out file/x", ["predict", "--model", "{model}", "--features", "{features}",
                              "--out", "{file}/x.csv"], "{file}"),
    ("predict --out-dir file", ["predict", "--model", "{model}", "--features", "{features}",
                                "--out-dir", "{file}"], "{file}"),
    ("attenuation-sweep", ["attenuation-sweep", "--out-dir", "{file}"], "{file}"),
    ("train", ["train", "--data", "{data}", "--config", "{cfg}", "--out-dir", "{file}"],
     "{file}"),
    ("train models", ["train", "--data", "{data}", "--config", "{cfg}",
                      "--out-dir", "{blocked}"], "{blocked}/models"),
    ("attenuation-sweep csv", ["attenuation-sweep", "--out-dir", "{blocked}"],
     "{blocked}/attenuation_sweep.csv"),
]


@pytest.mark.parametrize("argv, named", [(argv, named) for _, argv, named in OUTPUT_PATHS],
                         ids=[name for name, _, _ in OUTPUT_PATHS])
def test_unusable_output_path_is_validation_error(argv, named, trained, tmp_path, capsys):
    features = tmp_path / "features.csv"
    model = trained["out"] / "models" / "rf.json"
    features.write_text(",".join(load_model(model).feature_names) + "\n")
    paths = {"file": tmp_path / "file", "dir": tmp_path / "folder", "model": model,
             "features": features, "data": trained["data"], "cfg": trained["cfg"],
             "blocked": tmp_path / "blocked"}
    paths["file"].write_text("")
    paths["dir"].mkdir()
    paths["blocked"].mkdir()
    (paths["blocked"] / "models").write_text("")
    (paths["blocked"] / "attenuation_sweep.csv").mkdir()
    assert main([arg.format(**paths) for arg in argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert named.format(**paths) in err and "Traceback" not in err


class TestExitCodes:
    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                       "A,not-a-date,8,1.0,1.0,1.0\n")
        assert main(["train", "--data", str(bad), "--out-dir", str(tmp_path)]) == EXIT_PARSE

    def test_non_finite_visibility_is_parse_error(self, tmp_path, capsys):
        """Refused while parsing, so a subsample that skips the row cannot hide it."""
        bad = tmp_path / "bad.csv"
        bad.write_text("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                       + "A,2015-01-01,8,1.0,1.0,1.0\n" * 399 + "A,2015-01-02,8,nan,1.0,1.0\n")
        assert main(["train", "--data", str(bad), "--out-dir", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: line 401: column 'visibility_km': not finite: 'nan'\n")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_only_newlines_end_csv_lines(self, tmp_path, capsys, command):
        """The CSV is read as a stream of lines, which only a newline ends
        (a CRLF or CR ending reads as one): a form feed or U+2028 inside a row
        does not start a new line, so later lines keep their numbers."""
        bad = tmp_path / "bad.csv"
        lines = ["station,date,hour,visibility_km,wind_speed_mps,altitude_m\r\n",
                 "A,2015-01-01,8,1.0,1.0,1.0\f\r\n",
                 "A,2015-01-01,8,1.0,1.0,1.0\u2028\n",
                 "A,2015-01-02,8,nan,1.0,1.0\n"]
        argv = ["train", "--data", str(bad), "--out-dir", str(tmp_path)]
        if command == "predict":  # the three number columns, for a model of them
            lines = [line.split(",", 3)[3] for line in lines]
            model = tmp_path / "tree.json"
            names = tuple(lines[0].strip().split(","))
            save_model(fit_regression_tree(LabeledTable(np.eye(3), np.arange(3.0), names), 1),
                       model)
            argv = ["predict", "--model", str(model), "--features", str(bad),
                    "--out", str(tmp_path / "pred.csv")]
        bad.write_text("".join(lines), encoding="utf-8")
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: line 4: column 'visibility_km': not finite: 'nan'\n")

    def test_validation_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "no_such_key = 1\n")
        assert main(["attenuation-sweep", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2
