import importlib
import pkgutil

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
