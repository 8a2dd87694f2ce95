"""The demos' stdout, pinned byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout; a refactor keeps every demo byte-identical
DEMO_STDOUT = {
    "chain_coefficients.py": "7eb8e251970c78fe71ce6454e0da71623bcc5ffb83a98cfc53e5ca38e5603ff1",
    "function_systems.py": "8e4ec5c353502adb1ffdcd7799dd7701049dfe67ef26f35a67efa6c68ac4930b",
    "telescoping.py": "c29449ba7ec7c01061201775a7171afd9934dab224ed6ca9ff92ed02676360cd",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("demo, digest", sorted(DEMO_STDOUT.items()))
def test_demo_stdout_is_byte_identical(demo, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, env=env, check=True, timeout=60,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == digest
