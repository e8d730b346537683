"""scripts/make_toy_csv.py reproduces the bundled toy data byte for byte."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_make_toy_csv_reproduces_the_bundled_files(tmp_path):
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_toy_csv.py"),
                             "--out", str(tmp_path / "data")],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    names = ["toy_instance.json", "toy_lmp.csv"]
    assert sorted(path.name for path in (tmp_path / "data").iterdir()) == names
    for name in names:
        assert (tmp_path / "data" / name).read_bytes() == (ROOT / "data" / name).read_bytes()
