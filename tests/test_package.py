import importlib
from pathlib import Path

import pytest

import tverlab

SUBMODULES = ("complexes", "homology", "bounds", "geometry")


def test_every_public_name_is_the_object_its_home_module_defines():
    for name in tverlab.__all__[1:]:  # after __version__
        obj = getattr(tverlab, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__ in {f"tverlab.{m}" for m in SUBMODULES}, name
        assert getattr(home, name) is obj, name


def test_dir_and_star_import_cover_every_name():
    assert set(tverlab.__all__) | set(SUBMODULES) <= set(dir(tverlab))
    namespace = {}
    exec("from tverlab import *", namespace)
    for name in tverlab.__all__:
        assert namespace[name] is getattr(tverlab, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tverlab.no_such_name
    with pytest.raises(ImportError):
        exec("from tverlab import no_such_name", {})


# runs in a fresh interpreter, where no tverlab module is loaded yet
LAZY_SURFACE = """
import sys
import tverlab

loaded = lambda: sorted(m for m in sys.modules if m.startswith("tverlab."))
assert loaded() == [], loaded()
assert set(tverlab.__all__) <= set(dir(tverlab))
assert loaded() == [], loaded()
geometry = tverlab.geometry
assert geometry is sys.modules["tverlab.geometry"]
assert loaded() == ["tverlab.complexes", "tverlab.geometry"], loaded()
assert tverlab.hulls_intersect is geometry.hulls_intersect
assert tverlab.betti is sys.modules["tverlab.homology"].betti
"""


def test_submodules_load_on_first_use(fresh_python):
    proc = fresh_python("-c", LAZY_SURFACE)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()


def test_benchmark_self_tests_pass(fresh_python):
    # the benchmark drives the library through its public API, so a change
    # to that API which breaks the harness fails here, not only in a run
    root = Path(__file__).resolve().parents[1]
    proc = fresh_python(str(root / "perfbench" / "selftest.py"), cwd=root)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()[-3000:]
