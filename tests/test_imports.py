"""The package runs on numpy alone: importing it, every submodule
included, loads no scipy."""

import os
import subprocess
import sys

import divrank

PROBE = """
import importlib, pkgutil, sys
import divrank
names = [m.name for m in pkgutil.iter_modules(divrank.__path__, "divrank.")]
for name in names:
    importlib.import_module(name)
print(len(names), "scipy" in sys.modules)
"""


def test_no_submodule_loads_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(divrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    count, loaded = out.stdout.split()
    assert int(count) >= 8     # cli and the seven numeric modules
    assert loaded == "False"
