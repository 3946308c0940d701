"""The package surface: catphase re-exports exactly each module's __all__."""

import catphase
from catphase import errors, oracle, phasedist, quasiprob, specfun, states

MODULES = (errors, oracle, phasedist, quasiprob, specfun, states)


def test_all_is_the_modules_lists_and_version():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert len(set(catphase.__all__)) == len(catphase.__all__)
    assert catphase.__all__ == expected


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(catphase, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from catphase import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(catphase.__all__)
