import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_walk_convergence_reports_every_k4_class(capsys):
    runpy.run_path(str(SCRIPTS / "walk_convergence.py"), run_name="__main__")
    rows = [line for line in capsys.readouterr().out.splitlines() if "spectral radius" in line]
    assert len(rows) == 11
