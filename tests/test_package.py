"""Package layout: each module imports on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilcert

MODULES = sorted(p.stem for p in Path(nilcert.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    src = str(Path(nilcert.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", f"import nilcert.{module}"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

