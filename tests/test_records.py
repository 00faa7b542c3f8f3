"""The package's reports and small values are plain records of one kind
(plurisusy.records.frozen): built positionally or by keyword, printed as
ClassName(field=value, ...), never reassigned, and compared as before,
value records by their fields and only with records of their own class,
models and embedding reports by identity.  Record fields hold any
values, so the cases here use plain stand-ins."""

import importlib
import inspect
import pkgutil

import pytest

import plurisusy
from plurisusy import records

from plurisusy.graded_algebra import SuperconformalReport
from plurisusy.pluricanonical import (EmbeddingReport, FreenessCertificate,
                                      NonembeddingReport, PluriCanonicalModel,
                                      RankReport, SuperPointReport,
                                      ThresholdCell, VeryAmpleReport)
from plurisusy.records import frozen
from plurisusy.riemann_roch import ThetaCharacteristic
from plurisusy.supercurve import (DeformationReport, RankPair,
                                  TransitionReport)

RP = RankPair(2, 1)

# (class, field values, repr of the record built from them)
FROZEN = [
    (RankPair, (2, 1), "RankPair(2|1)"),
    (RankReport, (3, RP, False, RankPair(1, 2), "h1 > 0"),
     "RankReport(nu=3, rank=RankPair(2|1), hypotheses_hold=False, "
     "formula=RankPair(1|2), note='h1 > 0')"),
    (FreenessCertificate, (2, 1, 0, 0, RP, True),
     "FreenessCertificate(h0_E=2, h0_EL=1, h1_E=0, h1_EL=0, "
     "rank=RankPair(2|1), passed=True)"),
    (VeryAmpleReport, (2, False, False, True, ("P", "Q"), "deg"),
     "VeryAmpleReport(nu=2, passed=False, condition1_ok=False, "
     "condition2_ok=True, witness=('P', 'Q'), note='deg')"),
    (ThresholdCell, (2, 3, True, False, None),
     "ThresholdCell(g=2, nu=3, even_pass=True, odd_pass=False, "
     "witness=None)"),
    (SuperPointReport, (3, True, RP, 0, 0, True, ((1,),), ()),
     "SuperPointReport(nu=3, free=True, rank=RankPair(2|1), drop_even=0, "
     "drop_odd=0, hypotheses_hold=True, residues_even=((1,),), "
     "residues_odd=())"),
    (NonembeddingReport, (RankPair(0, 2), 0, "none"),
     "NonembeddingReport(rank=RankPair(0|2), h0_L=0, obstruction='none')"),
    (TransitionReport, (True, True, False, "r"),
     "TransitionReport(superconformal=True, d_factor_ok=True, "
     "berezinian_ok=False, residual='r')"),
    (DeformationReport, (RankPair(3, 2), RankPair(3, 4), True),
     "DeformationReport(h1_superconformal=RankPair(3|2), "
     "h1_tangent=RankPair(3|4), injection_possible=True)"),
    (SuperconformalReport, (False, "r", True),
     "SuperconformalReport(ok=False, residual='r', "
     "jacobian_body_invertible=True)"),
]
MODEL = ("C", 3, RankPair(1, 1), ("s0", "s1"), ("t1",), {"even": "D"})
EMBEDDING = ("M", 4, 8, [("P", "Q")], [], ["R"])


def _fields(cls):
    return cls._fields


def _ids(cases):
    return [c[0].__name__ for c in cases]


def _twin(cls):
    """Another record type with the same fields as cls."""
    return type("Twin", (frozen("Twin", " ".join(cls._fields)),),
                {"__slots__": ()})


@pytest.mark.parametrize("cls, values, text", FROZEN, ids=_ids(FROZEN))
def test_record_builds_by_position_and_keyword(cls, values, text):
    a = cls(*values)
    b = cls(**dict(zip(_fields(cls), values)))
    assert [getattr(a, f) for f in _fields(cls)] == list(values)
    assert a == b and not a != b
    assert repr(a) == repr(b) == text


@pytest.mark.parametrize("cls, values", [
    (RankReport, (3, RP, True, RP)),
    (VeryAmpleReport, (3, True, True, True, None)),
])
def test_note_defaults_to_empty(cls, values):
    assert cls(*values).note == ""
    assert cls(*values) == cls(*values, note="")
    assert repr(cls(*values)).endswith(", note='')")


@pytest.mark.parametrize("cls, values, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_record_equality_hash_and_assignment(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and hash(a) == hash(b) == hash(tuple(values))
    assert len({a, b}) == 1
    other = cls(*(values[:-1] + ("other",)))
    assert a != other and not a == other
    assert a != tuple(values) and not a == tuple(values)
    assert tuple(values) != a and not tuple(values) == a
    twin = _twin(cls)(*values)
    assert a != twin and not a == twin
    for f in _fields(cls):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
    with pytest.raises(AttributeError):
        a.extra = 1


def test_rank_pair_order_is_componentwise():
    assert RankPair(1, 2) <= RankPair(1, 3)
    assert not RankPair(2, 2) <= RankPair(1, 3)
    # >= is the reflected <=, not the lexicographic order of tuples
    assert not RankPair(2, 1) >= RankPair(1, 3)
    assert RankPair(2, 3) >= RankPair(1, 3)
    with pytest.raises(TypeError):
        RankPair(1, 2) < RankPair(1, 3)
    assert RankPair(1, 2) + RankPair(3, 4) == RankPair(4, 6)


@pytest.mark.parametrize("cls, values", [
    (PluriCanonicalModel, MODEL),
    (EmbeddingReport, EMBEDDING),
])
def test_model_and_embedding_report_equal_only_themselves(cls, values):
    a = cls(*values)
    b = cls(**dict(zip(_fields(cls), values)))
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert [getattr(b, f) for f in _fields(cls)] == list(values)


def test_model_record_is_frozen_and_prints_its_fields():
    M = PluriCanonicalModel(*MODEL)
    for f in _fields(PluriCanonicalModel):
        with pytest.raises(AttributeError):
            setattr(M, f, None)
    assert repr(M) == (
        "PluriCanonicalModel(curve='C', nu=3, ambient=RankPair(1|1), "
        "even_sections=('s0', 's1'), odd_sections=('t1',), "
        "cleared_divisors={'even': 'D'})")


def test_embedding_report_lists_stay_readable_and_mutable():
    R = EmbeddingReport("M", 4, 8, [("P", "Q")], [], ["R"])
    assert R.pair_failures == [("P", "Q")] and R.odd_failures == ["R"]
    R.tangent_failures.append("S")
    assert R.tangent_failures == ["S"]
    assert repr(EmbeddingReport(*EMBEDDING)) == (
        "EmbeddingReport(model='M', pairs_checked=4, points_checked=8, "
        "pair_failures=[('P', 'Q')], tangent_failures=[], "
        "odd_failures=['R'])")


@pytest.mark.parametrize("even, odd", [
    (("s0",), ("t1",)),
    (("s0", "s1", "s2"), ("t1",)),
    (("s0", "s1"), ()),
    (("s0", "s1"), ("t1", "t2")),
])
def test_model_section_counts_must_match_the_ambient_space(even, odd):
    with pytest.raises(ValueError, match="section counts do not match"):
        PluriCanonicalModel("C", 3, RankPair(1, 1), even, odd, {})
    with pytest.raises(ValueError, match="section counts do not match"):
        PluriCanonicalModel(curve="C", nu=3, ambient=RankPair(1, 1),
                            even_sections=even, odd_sections=odd,
                            cleared_divisors={})


def test_theta_is_a_frozen_record_too():
    t = ThetaCharacteristic("C", (0,), (1,), 1)
    assert t == ThetaCharacteristic("C", (0,), (1,), 1)
    assert t != ("C", (0,), (1,), 1)
    assert hash(t) == hash(("C", (0,), (1,), 1))



def test_every_record_is_a_frozen_tuple():
    """records defines one public name, frozen, and each class of the
    package that is named or serialised as a record is a tuple."""
    assert [n for n, v in vars(records).items() if not n.startswith("_")
            and getattr(v, "__module__", None) == records.__name__] == [
                "frozen"]
    checked = []
    for info in pkgutil.iter_modules(plurisusy.__path__):
        module = importlib.import_module(f"plurisusy.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and (
                    name.endswith(("Report", "Certificate"))
                    or hasattr(cls, "to_json")):
                checked.append(name)
                assert issubclass(cls, tuple), f"{module.__name__}.{name}"
    assert len(checked) >= 10
