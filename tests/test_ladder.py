"""Smoke test of scripts/ladder.py at four scenarios."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"


def test_ladder_reports_every_kind():
    result = subprocess.run([sys.executable, str(SCRIPT), "--sizes", "4"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, *lines = result.stdout.splitlines()
    assert header.split() == ["S", "kind", "cols", "x", "rows", "status", "iters",
                              "dual_its", "solve_s", "us_per_it", "refactors", "max_k",
                              "levels", "spikes"]
    assert [line.split()[1] for line in lines] == ["rn", "cvar", "dro"]
    for line in lines:
        (size, _kind, shape, status, iters, dual_its, seconds, per_it, refactors, k,
         levels, spikes) = line.split()
        cols, rows = (int(v) for v in shape.split("x"))
        assert size == "4" and status == "optimal" and cols > rows > 0
        assert int(iters) > 0 and float(seconds) > 0.0 and float(per_it) > 0.0
        assert 0 < int(dual_its) <= int(iters)
        assert int(refactors) >= 1
        assert 0 < int(k) <= rows and int(levels) > 0 and 0 <= int(spikes) <= int(k)
