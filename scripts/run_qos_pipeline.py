#!/usr/bin/env python3
"""End-to-end QoS experiment: synthesize visibility data, train the five
models, evaluate on the held-out split, and print the per-model scores.

Equivalent to:
    foglink synth-data --days N --seed S [--stations A,B] --out-dir D
    foglink train --data D/visibility.csv --seed S [--config FILE] --out-dir D/run
    foglink evaluate --data D/visibility.csv --out-dir D/run
"""

import argparse
import csv
import sys
from pathlib import Path

from foglink.cli import main as foglink_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=3650)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="key=value parameter file")
    parser.add_argument("--out-dir", default="out/pipeline")
    parser.add_argument("--stations", help="comma-separated station subset")
    args = parser.parse_args()

    out = Path(args.out_dir)
    data, run, seed = str(out / "visibility.csv"), str(out / "run"), ["--seed", str(args.seed)]
    # each command gets only the flags it reads
    steps = (
        ["synth-data", "--days", str(args.days), "--out-dir", str(out)] + seed
        + (["--stations", args.stations] if args.stations else []),
        ["train", "--data", data, "--out-dir", run] + seed
        + (["--config", args.config] if args.config else []),
        ["evaluate", "--data", data, "--out-dir", run],
    )
    for step in steps:
        print("$ foglink " + " ".join(step))
        code = foglink_main(step)
        if code != 0:
            return code

    with open(out / "run" / "metrics.csv") as handle:
        rows = list(csv.DictReader(handle))
    print(f"\n{'model':<10}{'location':<14}{'n':>6}{'RMSE':>12}{'R2':>10}")
    for row in rows:
        print(f"{row['model']:<10}{row['location']:<14}{row['n']:>6}"
              f"{float(row['RMSE']):>12.4g}{float(row['R2']):>10.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
