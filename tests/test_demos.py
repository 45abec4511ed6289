"""Each demo script runs to completion and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, recorded while each transfer bundle still
# interned its letters lazily
_STDOUT_SHA256 = {
    "01_bernoulli_products_on_the_interval.py":
        "1c0a38794adfa076a56563d504dbea9fd253b2f5044a37e31bcfe435a8f09a5d",
    "02_dupont_contraction.py":
        "fa2ddcfad14cd510e2157eeaf42b7d98295c2b71c092f0d673a00868837f2930",
    "03_planar_trees_and_transfer.py":
        "a54633394e1baf050de645f0f4239e9392819a8d42399a7f35e2ccf9f19fc71d",
    "04_cup_products_on_complexes.py":
        "91584ce9309199b5451bf1ac03f273131fbca43c72e9a85f625805e218e41df8",
}


def test_demos_are_found():
    assert len(DEMOS) == 4
    assert sorted(p.name for p in DEMOS) == sorted(_STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == _STDOUT_SHA256[demo.name]
