"""Each demo prints exactly the bytes it printed when its digest was pinned,
and README's quick start runs against the package as documented."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout, taken on Python 3.11; one pin per demo.
PINS = {
    "01_suite_tour.py": "d2787f55428b0e76073ac6e11ebe69a8c481806ab0f3eb58caa9a3d0cfb987cf",
    "02_timeline_deep_dive.py": "aa66e686de9346511358f7be8a376207542fe0663a8904c0b0732dd4e372c131",
    "03_cascading_sweep.py": "a3b9762a1961ab20ad93c3ef05b0f9a44ee0c6b21136534b753c201f472f4504",
    "04_accelerator_styles.py": "319a2de21f1d5416e5d1e2486a625b38eb345e7b6b2045140411e03820e6d365",
}


def test_every_demo_has_a_pin():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(PINS)


@pytest.mark.parametrize("demo", sorted(PINS))
def test_demo_prints_its_pinned_bytes(demo):
    # -X dev also warns about files never closed; -W error makes every warning fail the demo
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == PINS[demo]


def test_readme_quick_start_prints_one_score():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    (line,) = done.stdout.splitlines()
    assert 0.0 <= float(line) <= 1.0
