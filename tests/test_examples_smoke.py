"""Smoke tests: the fast example scripts must run end-to-end.

The heavier examples (full synthetic datasets) are exercised by the
benchmark suite's machinery; here we run the quick ones in-process so a
public-API regression that breaks an example fails the unit tests too.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "custom_data.py",
    "supervised_metablocking.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"{script} missing"
    # Run as __main__ so the `if __name__ == "__main__":` guard fires.
    saved_argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_quickstart_shows_paper_figures(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Token Blocking (Figure 1b)" in out
    assert "13 comparisons" in out
    assert "RcWNP" in out


def test_all_examples_exist_and_are_documented():
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 8
    for script in scripts:
        text = script.read_text(encoding="utf-8")
        assert text.startswith("#!/usr/bin/env python3"), script.name
        assert '"""' in text, f"{script.name} lacks a docstring"
        assert "Run with:" in text, f"{script.name} lacks run instructions"
