import os
import subprocess
import sys
from pathlib import Path

from foglink.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
COARSE = ("visibility_step_km = 2.5\nrange_step_km = 2.5\nrange_max_km = 5.0\n"
          "atten_step_db_per_km = 10\n")
TINY_LEARNERS = ("sample_records = 30\nwavelengths_nm = 760,1550\ntx_powers_w = 0.01,0.1\n"
                 "rf_trees = 2\ngbr_stages = 5\nadbr_rounds = 2\nstack_folds = 2\n"
                 "mlp_epochs = 3\n")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_link_sweeps_model_override_matches_config_key_and_cleans_up(tmp_path):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(COARSE)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(_env(), TMPDIR=str(scratch))
    script_out = tmp_path / "script"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_link_sweeps.py"),
                    "--config", str(cfg), "--model", "kim", "--out-dir", str(script_out)],
                   env=env, check=True, capture_output=True)
    assert list(scratch.iterdir()) == []

    kim_cfg = tmp_path / "kim.cfg"
    kim_cfg.write_text(COARSE + "attenuation_model = kim\n")
    for config, out in ((kim_cfg, tmp_path / "kim"), (cfg, tmp_path / "kruse")):
        for command in ("attenuation-sweep", "link-sweep"):
            assert main([command, "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    names = sorted(p.name for p in script_out.iterdir())
    assert len(names) == 6
    assert names == sorted(p.name for p in (tmp_path / "kim").iterdir())
    for name in names:
        assert (script_out / name).read_bytes() == (tmp_path / "kim" / name).read_bytes()
    # the override took effect: the default model gives another table
    assert ((script_out / "attenuation_sweep.csv").read_bytes()
            != (tmp_path / "kruse" / "attenuation_sweep.csv").read_bytes())


def test_link_sweeps_kim_runs_on_the_default_config(tmp_path):
    """The documented `--model kim` run with no config file, whose range
    grid takes dense kim fog to a penalty of thousands of dB."""
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_link_sweeps.py"),
                          "--model", "kim", "--out-dir", str(out)],
                         env=_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert len(list(out.iterdir())) == 6


def test_qos_pipeline_prints_a_row_per_model(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_LEARNERS)
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_qos_pipeline.py"),
                          "--days", "4", "--seed", "2", "--stations", "George,Kimberley",
                          "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
                         env=_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    printed = {line.split()[0] for line in run.stdout.splitlines() if line.strip()}
    assert {"rf", "gbr", "adbr", "stacked", "mlp"} <= printed
    # each command got only the flags it reads
    steps = {line.split()[2]: set(line.split()[3:]) for line in run.stdout.splitlines()
             if line.startswith("$ foglink ")}
    assert {"--seed", "--stations"} <= steps["synth-data"] and "--config" not in steps["synth-data"]
    assert {"--seed", "--config"} <= steps["train"] and "--stations" not in steps["train"]
    assert not {"--seed", "--config", "--stations"} & steps["evaluate"]
