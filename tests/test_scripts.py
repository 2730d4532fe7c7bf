import re
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_walk_convergence_reports_every_k4_class(capsys):
    runpy.run_path(str(SCRIPTS / "walk_convergence.py"), run_name="__main__")
    rows = [line for line in capsys.readouterr().out.splitlines() if "spectral radius" in line]
    assert len(rows) == 11
    # The residual decays at the spectral radius of the step map.
    for row in rows:
        radius, ratio = map(
            float, re.search(r"spectral radius (\S+)\s+observed residual ratio (\S+)", row).groups()
        )
        assert abs(radius - ratio) < 0.005, row
