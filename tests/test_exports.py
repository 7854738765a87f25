"""Every exported name resolves: a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import filtered_spectra

MODULES = sorted(m.name
                 for m in pkgutil.iter_modules(filtered_spectra.__path__))


def test_package_exports_resolve():
    missing = [n for n in filtered_spectra.__all__
               if not hasattr(filtered_spectra, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"filtered_spectra.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
