import importlib
import inspect
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import tverlab
from tverlab.bounds import Condition, FaceCountUpgrade, IndexBound, TheoremInstance, Verdict
from tverlab.complexes import Coloring, DecompositionWitness, full_simplex
from tverlab.geometry import (
    ColoredConfiguration, ExperimentReport, RainbowFace, SearchResult, TrialRecord, Witness,
)
from tverlab.homology import BettiProfile, ChainComplexModP, HConn

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


def test_every_public_annotation_resolves():
    # annotations are strings (postponed evaluation), so a name that the
    # home module never imports shows only when they are resolved
    for name in tverlab.__all__[1:]:
        obj = getattr(tverlab, name)
        targets = [obj]
        if inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if inspect.isfunction(attr):
                    targets.append(attr)
        for target in targets:
            typing.get_type_hints(target)


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


# a sample of each record class, its fields in order
RECORDS = [
    (TheoremInstance, dict(d=2, k=2, m_large=0, p=7, n=1, sizes=(10, 10, 10))),
    (IndexBound, dict(space="join", lower=3, provenance=())),
    (Condition, dict(name="sizes", passed=True, detail="ok", assumed=True)),
    (Verdict, dict(applicable=True, q=6, required_index=3, achieved_lower_bound=4,
                   conditions=(Condition("sizes", True, "ok"),))),
    (FaceCountUpgrade, dict(promised_faces=3, provenance=())),
    (Coloring, dict(classes=((0, 1), (2,)))),
    (DecompositionWitness, dict(left=full_simplex(1), right=full_simplex(1),
                                vertex_map={0: 0, 1: 1}, verified=True)),
    (ColoredConfiguration, dict(d=1, points=((Fraction(0),), (Fraction(1),)),
                                coloring=Coloring(((0,), (1,))))),
    (RainbowFace, dict(members=((0, 0), (1, 1)))),
    (Witness, dict(faces=(RainbowFace(((0, 0),)),), point=(Fraction(0),),
                   weights=((Fraction(1),),))),
    (SearchResult, dict(status="none", witness=None, hull_queries=2, nodes=3)),
    (TrialRecord, dict(trial=0, seed=5, status="found", hull_queries=2, nodes=4)),
    (ExperimentReport, dict(instance={"d": 1}, q=2, mode="certified",
                            trials=(TrialRecord(0, 5, "found", 2, 4),),
                            counterexamples=(), elapsed_seconds=0.5)),
    (ChainComplexModP, dict(p=2, complex_=full_simplex(1))),
    (BettiProfile, dict(p=2, betti=(0, 1))),
    (HConn, dict(value=1, is_lower_bound=True)),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_construct_compare_hash_and_print_by_their_fields(cls, fields):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert record != tuple(fields.values())
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in fields)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    if cls is ChainComplexModP:  # hashed by its fields, and a complex has no hash
        with pytest.raises(TypeError):
            hash(record)
    elif not any(isinstance(value, dict) for value in fields.values()):
        assert hash(record) == hash(cls(**fields))
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), None)


def test_record_defaults_and_report_keys():
    assert HConn(1) == HConn(1, False) != HConn(1, True)
    report = dict(RECORDS)[ExperimentReport]
    (trial,) = ExperimentReport(**report).to_dict()["per_trial"]
    assert list(trial.items()) == [
        ("trial", 0), ("seed", 5), ("status", "found"), ("hull_queries", 2), ("nodes", 4),
    ]
