import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fglm

# every module of the package; importing `fglm.__main__` would run the CLI
MODULES = ["fglm"] + sorted(
    info.name for info in pkgutil.iter_modules(fglm.__path__, "fglm.")
    if info.name != "fglm.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "a name is listed twice in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []



def test_import_builds_no_dataclasses_and_no_executor():
    # every command pays for its imports in a fresh process; numpy's own
    # modules are the baseline, so the check holds on every numpy version
    probe = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import fglm\n"
        "print(sorted(name for name in sys.modules if name.startswith('fglm')))\n"
        "import fglm.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(fglm.__file__).resolve().parents[1])  # this fglm, in the child too
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path), check=True)
    package, added = map(ast.literal_eval, proc.stdout.splitlines())
    # `import fglm` loads every module, so the benchmark's tracer can patch them all
    assert package == [name for name in MODULES if name != "fglm.cli"]
    assert {"dataclasses", "concurrent.futures", "logging"}.isdisjoint(added)
