import importlib
import inspect
import pkgutil

import pytest

import bmlandscape

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(bmlandscape.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_defined_in_their_module(name):
    # the benchmark tracer wraps what __all__ names and skips a stale name
    # silently, so each listed name must be a function, class or constant of
    # the module itself
    module = importlib.import_module(f"bmlandscape.{name}")
    for attr in getattr(module, "__all__", ()):
        assert attr in vars(module), f"{module.__name__}.__all__ names missing {attr!r}"
        obj = vars(module)[attr]
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"{attr!r} is defined in {obj.__module__}"
