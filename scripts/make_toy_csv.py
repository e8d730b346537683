"""Regenerate toy_lmp.csv and toy_instance.json, by default into data/.

    python scripts/make_toy_csv.py [--out DIR]

Both come from the benchmark's generator, bench/gen.py, at the toy's size:
the CSV is a long-format hourly price history of 200 timestamps, three
market nodes (ALPHA, BRAVO, CHARLIE) plus the SYSTEM row, 800 data rows in
all, from seed 20240101; the instance is gen.instance_doc over those three
markets.  Everything is seeded, so the committed files are reproducible
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402

HOURS = 200
SEED = 20240101


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "data",
                        help="output directory (default: data/ of the checkout)")
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    names, _nodal, _system = gen.write_history(out / "toy_lmp.csv", HOURS, 3, SEED)
    (out / "toy_instance.json").write_text(
        json.dumps(gen.instance_doc(names), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
