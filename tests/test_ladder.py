"""Smoke test of scripts/ladder.py at small scenario counts."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"


def check_ladder(args, sizes):
    result = subprocess.run([sys.executable, str(SCRIPT), *args],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, *lines = result.stdout.splitlines()
    assert header.split() == ["S", "kind", "cols", "x", "rows", "status", "iters",
                              "dual_its", "solve_s", "us_per_it", "refactors", "max_k",
                              "levels", "spikes", "reduce_s"]
    assert [line.split()[:2] for line in lines] == [[s, kind] for s in sizes
                                                    for kind in ("rn", "cvar", "dro")]
    for line in lines:
        (_size, _kind, shape, status, iters, dual_its, seconds, per_it, refactors, k,
         levels, spikes, reduce_s) = line.split()
        cols, rows = (int(v) for v in shape.split("x"))
        assert status == "optimal" and cols > rows > 0
        assert int(iters) > 0 and float(seconds) > 0.0 and float(per_it) > 0.0
        assert 0 < int(dual_its) <= int(iters)
        assert int(refactors) >= 1
        assert 0 < int(k) <= rows and int(levels) > 0 and 0 <= int(spikes) <= int(k)
        assert float(reduce_s) >= 0.0


def test_ladder_reports_every_kind():
    check_ladder(["--sizes", "4"], ["4"])


def test_ladder_reduces_a_generated_history():
    check_ladder(["--sizes", "4,8", "--hours", "60", "--seed", "3"], ["4", "8"])
