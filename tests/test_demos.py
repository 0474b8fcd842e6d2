"""Every script under demos/ runs to completion against the public API."""

import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_runs(tmp_path, monkeypatch, capsys):
    assert DEMOS
    monkeypatch.chdir(tmp_path)
    for path in DEMOS:
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (0, None), path.name
        assert capsys.readouterr().out, path.name
