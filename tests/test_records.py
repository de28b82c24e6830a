"""The package's sixteen records, pinned by behaviour: repr text, equality
and hash, frozenness, construction by position and by keyword with the
defaults, and the derived fields that construction refuses.

A value record compares and hashes by its field tuple; an identity record
compares and hashes as an object, so two built alike are still two."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from soficlab.actions import (
    AlgebraicActionModel,
    HypothesisReport,
    IntegerGroupMatrix,
    TorusGridModel,
    Verdict,
    cyclic_model,
)
from soficlab.groups import GroupElement, GroupSpec, SoficApproximation, SoficDefectReport
from soficlab.measures import Convolution, Doubled, MassEstimate, ProductMeasure, SampleBased, SiteMeasure
from soficlab.microstates import MapWindow, Pseudometric
from soficlab.microstates import TestFunction as PanelFunction  # aliased so pytest does not collect it

Z = GroupSpec.integers()
E, T = Z.identity(), Z.generator(0)
Z3 = cyclic_model(3)
TORUS = TorusGridModel(q=4, sites=1)
TABLE = {E: [0, 1, 2], T: [1, 2, 0]}
F_TEXT = "IntegerGroupMatrix(group=GroupSpec(Z), entries=((mappingproxy({GroupElement(e): 3, GroupElement(g0): -1}),),))"
SIGMA_TEXT = (
    "SoficApproximation(group=GroupSpec(Z), d=3, table=mappingproxy({GroupElement(e): array([0, 1, 2]), "
    "GroupElement(g0): array([1, 2, 0])}), provenance='test', quotient=None)"
)
SITE_TEXT = "SiteMeasure(model=FiniteGroupModel(Z/3), num=array([1, 1, 1]), den=3)"


def f():
    return IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])


def sigma():
    return SoficApproximation(Z, dict(TABLE), "test")


def site():
    return SiteMeasure(Z3, [1, 1, 1], 3)


def atoms():
    return SampleBased(Z3, [[0, 1]], [1], 1, exact=True)


def indicator():
    return PanelFunction("ind", [1, 0, 0], 2)


# name: (built by position, built by keyword, fields in order, equality, repr)
# where equality is "value" (by the field tuple), "unhashable" (by the field
# tuple, whose hash raises), "identity" or "own" (SiteMeasure's own rule).
RECORDS = {
    "GroupElement": (
        lambda: GroupElement(T.key),
        lambda: GroupElement(key=T.key),
        ("key",),
        "value",
        "GroupElement(g0)",
    ),
    "SoficApproximation": (
        sigma,
        lambda: SoficApproximation(group=Z, table=dict(TABLE), provenance="test", quotient=None),
        ("group", "d", "table", "provenance", "quotient"),
        "identity",
        SIGMA_TEXT,
    ),
    "SoficDefectReport": (
        lambda: SoficDefectReport({(T, T): Fraction(1, 3)}, {T: Fraction(0)}),
        lambda: SoficDefectReport(pair_defects={(T, T): Fraction(1, 3)}, fixed_fractions={T: Fraction(0)}),
        ("pair_defects", "fixed_fractions"),
        "unhashable",
        "SoficDefectReport(pair_defects={(GroupElement(g0), GroupElement(g0)): Fraction(1, 3)}, "
        "fixed_fractions={GroupElement(g0): Fraction(0, 1)})",
    ),
    "IntegerGroupMatrix": (
        lambda: IntegerGroupMatrix(Z, (({E: 3, T: -1},),)),
        lambda: IntegerGroupMatrix(group=Z, entries=(({E: 3, T: -1},),)),
        ("group", "entries"),
        "unhashable",
        F_TEXT,
    ),
    "AlgebraicActionModel": (
        lambda: AlgebraicActionModel(f(), sigma(), 3, Fraction(1, 4)),
        lambda: AlgebraicActionModel(source=f(), sigma=sigma(), q=3, tol=Fraction(1, 4)),
        ("source", "sigma", "q", "tol", "matrix"),
        "identity",
        f"AlgebraicActionModel(source={F_TEXT}, sigma={SIGMA_TEXT}, q=3, tol=Fraction(1, 4))",
    ),
    "Verdict": (
        lambda: Verdict(True, "l1-invertible"),
        lambda: Verdict(value=True, method="l1-invertible"),
        ("value", "method"),
        "value",
        "Verdict(value=True, method='l1-invertible')",
    ),
    "HypothesisReport": (
        lambda: HypothesisReport(Verdict(True, "a"), Verdict(None, "b")),
        lambda: HypothesisReport(lambda_injective=Verdict(True, "a"), lambda_dense_image=Verdict(None, "b")),
        ("lambda_injective", "lambda_dense_image"),
        "value",
        "HypothesisReport(lambda_injective=Verdict(value=True, method='a'), "
        "lambda_dense_image=Verdict(value=None, method='b'))",
    ),
    "SiteMeasure": (
        site,
        lambda: SiteMeasure(model=Z3, num=[1, 1, 1], den=3),
        ("model", "num", "den"),
        "own",
        SITE_TEXT,
    ),
    "ProductMeasure": (
        lambda: ProductMeasure(site(), 4),
        lambda: ProductMeasure(site=site(), d=4),
        ("site", "d"),
        "value",
        f"ProductMeasure(site={SITE_TEXT}, d=4)",
    ),
    "Convolution": (
        lambda: Convolution(ProductMeasure(site(), 2), ProductMeasure(site(), 2)),
        lambda: Convolution(left=ProductMeasure(site(), 2), right=ProductMeasure(site(), 2)),
        ("left", "right"),
        "value",
        f"Convolution(left=ProductMeasure(site={SITE_TEXT}, d=2), right=ProductMeasure(site={SITE_TEXT}, d=2))",
    ),
    "SampleBased": (
        atoms,
        lambda: SampleBased(model=Z3, points=[[0, 1]], weights_num=[1], weights_den=1, exact=True),
        ("model", "points", "weights_num", "weights_den", "exact"),
        "identity",
        "SampleBased(model=FiniteGroupModel(Z/3), weights_den=1, exact=True)",
    ),
    "Doubled": (
        lambda: Doubled(ProductMeasure(site(), 2)),
        lambda: Doubled(inner=ProductMeasure(site(), 2)),
        ("inner",),
        "value",
        f"Doubled(inner=ProductMeasure(site={SITE_TEXT}, d=2))",
    ),
    "MassEstimate": (
        lambda: MassEstimate(0.5, True, None, None, Fraction(1, 2)),
        lambda: MassEstimate(value=0.5, exact=True, stderr=None, n_samples=None, fraction=Fraction(1, 2)),
        ("value", "exact", "stderr", "n_samples", "fraction"),
        "value",
        "MassEstimate(value=0.5, exact=True, stderr=None, n_samples=None, fraction=Fraction(1, 2))",
    ),
    "Pseudometric": (
        lambda: Pseudometric("torus-l2", TORUS, None, 4),
        lambda: Pseudometric(name="torus-l2", model=TORUS, table_num=None, den=4),
        ("name", "model", "table_num", "den", "largest", "min_positive_sq", "separates"),
        "identity",
        "Pseudometric(name='torus-l2', model=TorusGridModel(q=4, sites=1), den=4)",
    ),
    "TestFunction": (
        indicator,
        lambda: PanelFunction(name="ind", values=[1, 0, 0], den=2),
        ("name", "values", "den"),
        "identity",
        "TestFunction(name='ind', den=2)",
    ),
    "MapWindow": (
        lambda: MapWindow((T,), "1/4", (), site()),
        lambda: MapWindow(F=(T,), delta="1/4", L=(), target=site()),
        ("F", "delta", "L", "target"),
        "value",
        f"MapWindow(F=(GroupElement(g0),), delta=Fraction(1, 4), L=(), target={SITE_TEXT})",
    ),
}
NAMES = sorted(RECORDS)


def test_every_record_is_pinned():
    assert len(RECORDS) == 16


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    by_position, by_keyword, _, _, text = RECORDS[name]
    assert repr(by_position()) == repr(by_keyword()) == text


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    make, by_keyword, fields, equality, _ = RECORDS[name]
    a, b = make(), make()
    assert a == a and a is not b
    assert a != tuple(getattr(a, f) for f in fields)  # another class is never equal
    if equality == "identity":
        assert a != b and a != by_keyword()
        assert hash(a) == object.__hash__(a)
    elif equality == "own":
        assert a == b == by_keyword() and hash(a) == hash(b) == hash((a.den, a.num.tobytes()))
    else:
        assert a == b == by_keyword() and not a != b
        if equality == "value":
            assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
        else:
            with pytest.raises(TypeError):
                hash(a)


def test_group_element_hash_is_its_key_tuple():
    for g in (E, T, Z.parse("t^-3"), GroupSpec.free(2).parse("a*b^-1")):
        assert hash(g) == hash((g.key,)) and GroupElement(g.key) == g
    assert GroupSpec.cyclic(2).generator(0) != GroupSpec.cyclic(3).generator(0)


def test_a_record_differs_from_a_differing_record():
    assert Verdict(True, "a") != Verdict(False, "a") and Verdict(True, "a") != Verdict(True, "b")
    assert ProductMeasure(site(), 2) != ProductMeasure(site(), 3)
    assert MassEstimate(0.5, True, None, None) != MassEstimate(0.5, False, None, None)


@pytest.mark.parametrize("name", NAMES)
def test_frozen(name):
    make, _, fields, _, _ = RECORDS[name]
    record = make()
    for field in fields + ("not_a_field",):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    assert repr(record) == RECORDS[name][4]


def test_defaults():
    assert MassEstimate(0.25, False, 0.01, 100).fraction is None
    assert PanelFunction("f", [1, 2]).den == 1
    assert atoms().exact is True and SampleBased(Z3, [[0]], [1], 1).exact is False
    metric = Pseudometric("torus-l2", TORUS)
    assert metric.table_num is None and metric.den == 1
    assert (metric.largest, metric.min_positive_sq, metric.separates) == (4, Fraction(1), True)
    assert sigma().quotient is None and sigma().d == 3


@pytest.mark.parametrize(
    "build",
    [
        lambda: SoficApproximation(Z, dict(TABLE), "test", d=3),
        lambda: AlgebraicActionModel(f(), sigma(), 3, 0, matrix=np.eye(3, dtype=np.int64)),
        lambda: Pseudometric("torus-l2", TORUS, largest=4),
        lambda: Pseudometric("torus-l2", TORUS, None, 1, 4),
        lambda: Verdict(True),
        lambda: GroupElement(),
        lambda: MassEstimate(0.5, True, None),
        lambda: SampleBased(Z3, [[0]], [1], 1, True, False),
    ],
    ids=[
        "sofic-d",
        "action-matrix",
        "metric-largest",
        "metric-positional-largest",
        "verdict-missing",
        "element-missing",
        "mass-missing",
        "atoms-extra",
    ],
)
def test_construction_refuses_derived_missing_or_extra_fields(build):
    with pytest.raises(TypeError):
        build()
