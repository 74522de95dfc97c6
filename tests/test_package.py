import importlib
import pkgutil

import diracshell


def test_every_exported_name_exists():
    # a name deleted from a module but left in its __all__ fails here
    missing = []
    for info in pkgutil.iter_modules(diracshell.__path__):
        mod = importlib.import_module(f"diracshell.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
