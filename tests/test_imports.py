"""Each duplexmem module imports on its own, in a fresh interpreter. The
package imports none of its modules itself, so an import cycle between two
of them shows here rather than depending on which module a program imports
first."""

import os
import pkgutil
import subprocess
import sys

import pytest

import duplexmem

MODULES = sorted(info.name for info in pkgutil.iter_modules(duplexmem.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    src = os.path.dirname(os.path.dirname(duplexmem.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", f"import duplexmem.{module}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
