"""The contract of the engine's frozen value classes.

Every value class is built on ``verdict.Frozen``: equal fields give
equal objects with equal hashes, instances of different classes never
compare equal, the repr is ``Name(field=value, ...)``, fields cannot be
assigned or deleted, and the constructor validates while the trusted
builder ``diagram._unchecked`` does not.  Each class declares its fields
once: ``Frozen`` builds the constructor from ``_fields`` and
``_defaults`` and keeps the fields in slots, so no instance has a
``__dict__``.  The AC search builds no value objects for its states:
they are tuples of byte words.
"""

import importlib
import inspect
import pkgutil

import pytest

import trisect
from trisect import ac
from trisect.ac import BalancedPresentation, SearchResult
from trisect.diagram import (Curve, CutSystem, HeegaardDiagram, SlopeTemplate,
                             TrisectionDiagram, TrisectionParams, _unchecked,
                             curve_from_template)
from trisect.homology import HomologyClass
from trisect.intmatrix import AbelianGroup, IntegerMatrix
from trisect.kirby import FramedComponent, HeegaardKirbyDiagram, LinkingMatrix
from trisect.moves import StabilizationCertificate
from trisect.presentations import GroupPresentation
from trisect.reports import Report
from trisect.verdict import Frozen, Verdict, unknown

C = curve_from_template(1, 1, 1, 0)
E = CutSystem(0, ())
H = HomologyClass(1, (1, 0))
C_REPR = ("Curve(genus=1, word=(1,), homology=HomologyClass(genus=1, "
          "coeffs=(1, 0)), template=SlopeTemplate(handle=1, p=1, q=0))")
E_REPR = "CutSystem(genus=0, curves=())"

# (class, arguments of one instance, its repr as the dataclass printed
# it, arguments the constructor rejects or None)
CASES = [
    (Verdict, ("verified", "ok", ("kind", "x")),
     "Verdict(status='verified', reason='ok', witness=('kind', 'x'))",
     ("verified", "x")),
    (Report, ("validate", (("in.tri", "ab"),), (("genus", 1),), None, 1.5,
              "trisect 0"),
     "Report(operation='validate', inputs=(('in.tri', 'ab'),), "
     "payload=(('genus', 1),), verdict=None, elapsed_ms=1.5, "
     "engine='trisect 0')", None),
    (SlopeTemplate, (1, -2, 3), "SlopeTemplate(handle=1, p=2, q=-3)",
     (1, 2, 4)),
    (HomologyClass, (1, (1, 0)), "HomologyClass(genus=1, coeffs=(1, 0))",
     (1, (1, 0, 0))),
    (Curve, (1, (1,), H),
     "Curve(genus=1, word=(1,), homology=HomologyClass(genus=1, "
     "coeffs=(1, 0)), template=None)", (1, (1, -1), H)),
    (CutSystem, (1, (C,)), "CutSystem(genus=1, curves=(%s,))" % C_REPR,
     (1, (C, C))),
    (HeegaardDiagram, (0, E, E),
     "HeegaardDiagram(genus=0, alpha=%s, beta=%s)" % (E_REPR, E_REPR),
     (1, E, E)),
    (TrisectionDiagram, (0, E, E, E, [0, 0, 0]),
     "TrisectionDiagram(genus=0, alpha=%s, beta=%s, gamma=%s, "
     "declared_params=(0, 0, 0))" % (E_REPR, E_REPR, E_REPR),
     (0, E, E, E, (0, 0, 1))),
    (TrisectionParams, (2, 1, 0, 0),
     "TrisectionParams(genus=2, k1=1, k2=0, k3=0)", (2, 3, 0, 0)),
    (IntegerMatrix, (((1, 2), (3, 4)),), "IntegerMatrix(rows=((1, 2), (3, 4)))",
     (((1, 2), (3,)),)),
    (AbelianGroup, (1, (2,)), "AbelianGroup(free_rank=1, torsion=(2,))",
     None),
    (GroupPresentation, (2, ((1, 2, -1),)),
     "GroupPresentation(num_generators=2, relators=((1, 2, -1),))",
     (2, ((1, -1),))),
    (FramedComponent, (C, -1),
     "FramedComponent(curve=%s, framing=-1)" % C_REPR, (C, 1.5)),
    (HeegaardKirbyDiagram, (0, HeegaardDiagram(0, E, E), (), 0),
     "HeegaardKirbyDiagram(genus=0, background=HeegaardDiagram(genus=0, "
     "alpha=%s, beta=%s), link=(), m=0)" % (E_REPR, E_REPR),
     (0, HeegaardDiagram(0, E, E), (), -1)),
    (LinkingMatrix, (((0, 1), (1, 0)),), "LinkingMatrix(rows=((0, 1), (1, 0)))",
     (((0, 1), (2, 0)),)),
    (StabilizationCertificate, (1, C, C),
     "StabilizationCertificate(index=1, omega=%s, dual=%s)"
     % (C_REPR, C_REPR), None),
    (BalancedPresentation, (1, ((1, 2, -2),)),
     "BalancedPresentation(generators=1, relators=((1,),))", (1, ((2,),))),
    (SearchResult, (None, unknown("state cap"), {}),
     "SearchResult(path=None, verdict=Verdict(status='unknown', "
     "reason='state cap', witness=None), stats={})", None),
]

# each class's constructor signature: callers rely on its positional
# order and its defaults
SIGNATURES = {
    Verdict: "(status, reason, witness=None)",
    Report: "(operation, inputs, payload, verdict=None, elapsed_ms=0.0, "
            "engine='trisect 0.1.0')",
    SlopeTemplate: "(handle, p, q)",
    HomologyClass: "(genus, coeffs)",
    Curve: "(genus, word, homology, template=None)",
    CutSystem: "(genus, curves)",
    HeegaardDiagram: "(genus, alpha, beta)",
    TrisectionDiagram: "(genus, alpha, beta, gamma, declared_params=None)",
    TrisectionParams: "(genus, k1, k2, k3)",
    IntegerMatrix: "(rows)",
    AbelianGroup: "(free_rank, torsion)",
    GroupPresentation: "(num_generators, relators)",
    FramedComponent: "(curve, framing='surface')",
    HeegaardKirbyDiagram: "(genus, background, link, m)",
    LinkingMatrix: "(rows)",
    StabilizationCertificate: "(index, omega, dual)",
    BalancedPresentation: "(generators, relators)",
    SearchResult: "(path, verdict, stats=None)",
}


def _values(obj):
    return tuple(getattr(obj, name) for name in obj._fields)


def _twin(obj):
    """An instance of another Frozen class with the same field values."""
    twin_cls = type("Twin", (Frozen,), {"_fields": obj._fields})
    twin = object.__new__(twin_cls)
    for name in obj._fields:
        object.__setattr__(twin, name, getattr(obj, name))
    return twin


@pytest.mark.parametrize("cls,args,text,bad", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, args, text, bad):
    a, b = cls(*args), cls(*args)
    assert isinstance(a, Frozen)
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    if cls is SearchResult:
        # its stats dict is a field, so it is unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_values(a))

    twin = _twin(a)
    assert _values(twin) == _values(a)
    assert a != twin and twin != a

    assert repr(a) == text

    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(a, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b

    if bad is not None:
        with pytest.raises(ValueError):
            cls(*bad)


def test_equality_and_hash_read_the_declared_fields_only():
    # template curves are shared, so the second one is built and validated
    # afresh
    a = curve_from_template(1, 1, 1, 0)
    b = Curve(1, a.word, a.homology, SlopeTemplate(1, 1, 0))
    a.support()
    assert getattr(a, "_support") == frozenset([1])
    assert getattr(b, "_support", None) is None
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_every_engine_value_class_is_slotted():
    for cls in _engine_value_classes():
        assert not hasattr(object.__new__(cls), "__dict__"), cls
        # a slot that is no field is a declared cache
        assert set(cls.__slots__) - set(cls._fields) == (
            {"_support"} if cls is Curve else set()), cls
        assert set(cls._fields) <= set(cls.__slots__), cls
    assert Frozen.__slots__ == ()


def test_a_misspelt_field_is_no_attribute():
    with pytest.raises(AttributeError):
        _unchecked(Curve, wrod=(1,))
    with pytest.raises(AttributeError):
        object.__setattr__(curve_from_template(1, 1, 1, 0), "_cache", 1)


def test_a_class_built_by_a_type_call_belongs_to_its_caller():
    # as with any class type() builds, so _engine_value_classes skips it
    assert type("T", (Frozen,), {"_fields": ("a",)}).__module__ == __name__


def test_keyword_arguments_and_defaults():
    assert Curve(genus=1, word=(1,), homology=H) == Curve(1, (1,), H, None)
    assert FramedComponent(C).framing == "surface"
    assert TrisectionDiagram(0, E, E, E).declared_params is None
    assert Verdict("unknown", "cap").witness is None
    r = Report("op", (), ())
    assert (r.verdict, r.elapsed_ms) == (None, 0.0)
    assert r.engine.startswith("trisect ")
    s1, s2 = SearchResult(None, unknown("cap")), SearchResult(None, unknown("cap"))
    assert s1.stats == {} and s1.stats is not s2.stats


def test_trusted_builders_skip_validation():
    tpl = _unchecked(SlopeTemplate, handle=0, p=0, q=0)
    assert (tpl.handle, tpl.p, tpl.q) == (0, 0, 0)
    cs = _unchecked(CutSystem, genus=2, curves=(C,))
    assert cs.curves == (C,)
    p = _unchecked(BalancedPresentation, generators=1, relators=((5,),))
    assert (p.generators, p.relators) == (1, ((5,),))
    with pytest.raises(ValueError):
        BalancedPresentation(1, ((5,),))


def test_search_states_skip_validation(monkeypatch):
    # the AC search keeps its states as tuples of byte words: the only
    # presentations it builds, validated, are its start and goal and the
    # one per primitive move of the path it replays
    calls = []
    original = BalancedPresentation.__post_init__

    def counted(obj):
        calls.append(obj.generators)
        original(obj)

    monkeypatch.setattr(BalancedPresentation, "__post_init__", counted)
    p = ac.ak_presentation(2)
    calls.clear()
    res = ac.ac_search(p, 32, 20)
    assert res.found and res.stats["stored"] == 1026
    assert len(calls) == 2 + len(res.path)


def test_post_init_is_looked_up_at_call_time(monkeypatch):
    calls = []
    original = BalancedPresentation.__post_init__

    def counted(obj):
        calls.append(obj.generators)
        original(obj)

    monkeypatch.setattr(BalancedPresentation, "__post_init__", counted)
    ac.trivial_presentation(2)
    assert calls == [2]


def _engine_value_classes():
    for info in pkgutil.iter_modules(trisect.__path__):
        importlib.import_module("trisect." + info.name)
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("trisect."):
                found.add(sub)
    return found


def test_cases_cover_every_engine_value_class():
    classes = _engine_value_classes()
    assert classes == {case[0] for case in CASES} == set(SIGNATURES)
    assert len(classes) == 18


@pytest.mark.parametrize("cls", list(SIGNATURES),
                         ids=[cls.__name__ for cls in SIGNATURES])
def test_constructor_signatures_are_pinned(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"


def test_frozen_builds_the_constructor_from_the_declared_fields():
    calls = []

    class Pair(Frozen):
        _fields = ("first", "second")
        _defaults = {"second": 2}

        def __post_init__(self):
            calls.append((self.first, self.second))

    assert Pair(1) == Pair(first=1, second=2) != Pair(1, 3)
    assert calls == [(1, 2), (1, 2), (1, 3)]
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, 2, 3)


def test_frozen_rejects_what_it_cannot_build():
    with pytest.raises(TypeError, match="builds __init__"):
        class OwnInit(Frozen):
            _fields = ("a",)

            def __init__(self, a):
                object.__setattr__(self, "a", a)
    for bad in ("a b", "a=0):\n    pass\ndef f(", "1a", "", 1, "self",
                "object"):
        with pytest.raises(TypeError, match="bad field name"):
            type("Bad", (Frozen,), {"_fields": ("x", bad)})
    for defaults in ({"a": 0}, {"a": 0, "c": 0}, {"d": 0}):
        with pytest.raises(TypeError, match="not on trailing fields"):
            type("Gap", (Frozen,), {"_fields": ("a", "b", "c"),
                                    "_defaults": defaults})
