import json
import os
import random
import subprocess
import sys

import pytest

import mpqc
from mpqc.code import _KEPT
from mpqc.gf import field


@pytest.fixture(scope="session")
def F3():
    return field(3, 1)


@pytest.fixture(scope="session")
def F9():
    return field(3, 2)


@pytest.fixture(scope="session")
def F25():
    return field(5, 2)


@pytest.fixture(scope="session")
def F49():
    return field(7, 2)


@pytest.fixture()
def rng():
    return random.Random(0xBEEF)


@pytest.fixture(autouse=True)
def forget_kept_facts():
    """Every kept fact (`mpqc.code._kept`) forgotten before each test, so the
    test derives each one under its own patches and counts hits from zero,
    and nothing a test built under a patch outlives it."""
    for cache in _KEPT:
        cache.cache_clear()


@pytest.fixture(scope="session")
def cold_json():
    """A function that runs a script in a fresh interpreter on this tree's
    package, so every cache is cold, and returns the JSON it prints."""
    src = os.path.dirname(os.path.dirname(mpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(script: str):
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    return run
