#!/usr/bin/env python3
"""Reproduce the attenuation and link-budget sweep families as CSV.

Writes attenuation_sweep.csv plus the five link CSVs (data rate, received
power, BER, capacity, power penalty) into --out-dir, ready for external
plotting.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from foglink.cli import main as foglink_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="key=value parameter file")
    parser.add_argument("--out-dir", default="out/sweeps")
    parser.add_argument("--model", choices=("kruse", "kim"), default=None,
                        help="attenuation model override")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        config = args.config
        if args.model:
            # the override line comes last, so it wins over the file's own key
            merged = Path(args.config).read_text() + "\n" if args.config else ""
            config = str(Path(scratch) / "merged.cfg")
            Path(config).write_text(merged + f"attenuation_model = {args.model}\n")
        passthrough = ["--out-dir", args.out_dir] + (["--config", config] if config else [])
        for command in ("attenuation-sweep", "link-sweep"):
            code = foglink_main([command] + passthrough)
            if code != 0:
                return code
            print(f"{command}: done -> {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
