import importlib
import pkgutil

import asymflat


def test_every_exported_name_resolves():
    modules = [asymflat] + [importlib.import_module(f"asymflat.{info.name}")
                            for info in pkgutil.iter_modules(asymflat.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 10
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
