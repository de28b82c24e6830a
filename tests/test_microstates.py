"""rho2, microstate membership, enumeration, sampling, lifts."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import alloc_cap
from soficlab.actions import (
    AutomorphismAction,
    TorusGridModel,
    cyclic_model,
    diagonal_action,
    dual_model,
    instantiate_Xf,
    product_model,
    trivial_action,
    unit_automorphism,
    IntegerGroupMatrix,
)
from soficlab import microstates
from soficlab.errors import BudgetExceededError, UnsupportedElementError, ValidationError
from soficlab.groups import GroupSpec, SoficApproximation, perturb, quotient_sofic
from soficlab.measures import Doubled, ProductMeasure, SampleBased, SiteMeasure, UniformOnSet, mass
from soficlab.microstates import (
    MapWindow,
    PairTable,
    Pseudometric,
    TestFunction as PanelFunction,  # aliased so pytest does not collect it
    _band,
    _in_range,
    _repair,
    _Words,
    discrete_metric,
    doubled_metric,
    empirical_pushforward,
    enumerate_top_microstates,
    forces_exact_equivariance,
    indicator_panel,
    is_meas_microstate,
    psi_window,
    rho2_sq,
    sample_microstates,
    meas_microstate_mask,
    shift_lift,
    top_microstate_mask,
    torus_metric,
)


@pytest.fixture
def neg_setup():
    """Z/2 acting on Z/3 by negation, sigma = regular representation (d=2)."""
    group = GroupSpec.cyclic(2)
    model = cyclic_model(3)
    action = AutomorphismAction(group, model, generator_maps={"t": unit_automorphism(model, -1)})
    sigma = quotient_sofic(group, {"kind": "regular"}, list(group.elements()))
    return group, model, action, sigma


class TestRho2:
    def test_zero_on_equal(self):
        m = cyclic_model(2)
        metric = discrete_metric(m)
        x = np.array([0, 1, 0, 1])
        assert rho2_sq(metric, x, x) == 0

    def test_single_mismatch_value(self):
        # discrete metric on Z/2, d=4, one mismatch: rho2^2 = 1/4
        m = cyclic_model(2)
        metric = discrete_metric(m)
        x = np.array([0, 0, 0, 0])
        y = np.array([1, 0, 0, 0])
        assert rho2_sq(metric, x, y) == Fraction(1, 4)

    def test_triangle_inequality_random(self):
        m = cyclic_model(3)
        metric = discrete_metric(m)
        rng = np.random.default_rng(0)

        def rho2(a, b):
            return math.sqrt(float(rho2_sq(metric, a, b)))

        for _ in range(100):
            x, y, z = (rng.integers(0, 3, size=6) for _ in range(3))
            assert rho2(x, y) <= rho2(x, z) + rho2(z, y) + 1e-12

    def test_torus_metric_exact(self):
        t = TorusGridModel(8, 1)
        metric = torus_metric(t)
        x = np.array([[0], [0]])
        y = np.array([[4], [2]])
        # distances 1/2 and 1/4: mean of squares = (16+4)/(2*64)
        assert rho2_sq(metric, x, y) == Fraction(20, 128)

    def test_length_mismatch(self):
        m = cyclic_model(2)
        metric = discrete_metric(m)
        with pytest.raises(Exception):
            rho2_sq(metric, np.array([0, 1]), np.array([0, 1, 0]))

    def test_one_point_or_an_empty_candidate_is_refused(self):
        # one point, on a finite model or a torus, used to raise a bare
        # TypeError from summing the .tolist() of a 0-d array; an empty
        # candidate divided by zero, and a batch raised TypeError too
        finite, torus = discrete_metric(cyclic_model(3)), torus_metric(TorusGridModel(3, 2))
        no_rows = np.zeros((0, 2), dtype=np.int64)
        for metric, x, y in (
            (finite, 1, 2),
            (torus, [1, 2], [0, 0]),
            (finite, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
            (torus, no_rows, no_rows),
            (finite, [[0, 1]], [[1, 1]]),
            (torus, [[[1, 2]]], [[[0, 0]]]),
        ):
            with pytest.raises(ValidationError, match="two candidates of length d >= 1"):
                rho2_sq(metric, x, y)
        assert rho2_sq(finite, [1], [2]) == 1 and rho2_sq(torus, [[1, 2]], [[0, 0]]) == Fraction(2, 18)

    def test_doubled_metric_averages(self):
        m = cyclic_model(3)
        metric = discrete_metric(m)
        dm = doubled_metric(metric)
        # pair (0,1) vs (0,2): first coordinate equal, second differs: (0+1)/2
        a = 0 * 3 + 1
        b = 0 * 3 + 2
        assert rho2_sq(dm, [a], [b]) == Fraction(1, 2)
        assert dm.min_positive_sq == Fraction(1, 2)

    def test_table_must_be_a_pseudometric(self):
        # the negated discrete table used to be accepted: rho2_sq returned -1
        # and, with no positive entry, every threshold admitted everything; a
        # 2 x 2 table on Z/3 raised IndexError at point 2
        m = cyclic_model(3)
        discrete = discrete_metric(m).table_num
        asymmetric = discrete.copy()
        asymmetric[0, 1] = 2
        for table in (-discrete, asymmetric, discrete + 1, discrete[:2, :2]):
            with pytest.raises(ValidationError, match="3 x 3 table with a zero diagonal"):
                Pseudometric(name="bad", model=m, table_num=table)
        assert Pseudometric(name="zero", model=m, table_num=0 * discrete).min_positive_sq is None


class TestTopMembership:
    def test_fixed_point_always_passes(self, neg_setup):
        group, model, action, sigma = neg_setup
        x = np.array([0, 0])  # identity of Z/3 is fixed by negation
        metric = discrete_metric(model)
        for delta in (Fraction(1, 100), Fraction(1, 2), Fraction(0)):
            assert top_microstate_mask(x[None], sigma, list(group.elements()), delta, metric, action)[0]

    def test_shift_window_example(self):
        # G=Z on Z/3 by g.x = (-1)^g x, sigma = shift on Z/8,
        # x = (0,1,2,0,1,2,0,1), F={1}, delta=1/2: brute-force the inequality
        Z = GroupSpec.integers()
        model = cyclic_model(3)
        action = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, -1)})
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [8]},
            [Z.identity(), Z.generator(0), Z.inverse(Z.generator(0))],
        )
        x = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        one = Z.generator(0)
        metric = discrete_metric(model)
        # independent evaluation of the defining inequality
        perm = sigma.perm(one)
        neg = unit_automorphism(model, -1)
        mism = sum(1 for j in range(8) if neg[x[j]] != x[perm[j]])
        expected = Fraction(mism, 8) < Fraction(1, 2) ** 2 or mism == 0
        got = top_microstate_mask(x[None], sigma, [one], Fraction(1, 2), metric, action)[0]
        assert got == expected

    def test_delta_zero_boundary(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        exact = np.array([1, 2])  # (x, -x): exactly equivariant
        not_exact = np.array([1, 1])
        F = list(group.elements())
        assert top_microstate_mask(exact[None], sigma, F, Fraction(0), metric, action)[0]
        assert not top_microstate_mask(not_exact[None], sigma, F, Fraction(0), metric, action)[0]

    def test_unsupported_window_element(self, neg_setup):
        group, model, action, sigma = neg_setup
        Z = GroupSpec.integers()
        metric = discrete_metric(model)
        with pytest.raises(UnsupportedElementError):
            top_microstate_mask(np.array([0, 0])[None], sigma, [Z.generator(0)], Fraction(1, 2), metric, action)[0]


class TestMeasMembership:
    def test_exact_equidistribution(self):
        group = GroupSpec.cyclic(2)
        model = cyclic_model(3)
        action = trivial_action(group, model)
        sigma = quotient_sofic(group, {"kind": "regular", "copies": 3}, list(group.elements()))
        x = np.array([0, 0, 1, 1, 2, 2])  # each element equally often
        window = MapWindow(
            F=(group.identity(),),
            delta=Fraction(1, 100),
            L=indicator_panel(model),
            target=SiteMeasure.uniform(model),
        )
        metric = discrete_metric(model)
        assert is_meas_microstate(x, sigma, window, metric, action)

    def test_constant_fails_separating_panel(self):
        group = GroupSpec.cyclic(2)
        model = cyclic_model(3)
        action = trivial_action(group, model)
        sigma = quotient_sofic(group, {"kind": "regular"}, list(group.elements()))
        x = np.array([0, 0])
        # indicator of 0 separates: |1 - 1/3| = 2/3 >= delta
        window = MapWindow(
            F=(group.identity(),),
            delta=Fraction(1, 2),
            L=indicator_panel(model),
            target=SiteMeasure.uniform(model),
        )
        metric = discrete_metric(model)
        assert not is_meas_microstate(x, sigma, window, metric, action)

    def test_empty_panel_reduces_to_top(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        window = MapWindow(
            F=tuple(group.elements()),
            delta=Fraction(1, 4),
            L=(),
            target=SiteMeasure.uniform(model),
        )
        for a in range(3):
            for b in range(3):
                x = np.array([a, b])
                assert is_meas_microstate(x, sigma, window, metric, action) == top_microstate_mask(
                    x[None], sigma, tuple(group.elements()), Fraction(1, 4), metric, action
                )[0]

    def test_panel_denominators_below_1_are_refused(self):
        # den 0 was accepted and integral() raised ZeroDivisionError.  Values
        # [-1, 0, 0] over -1 are [1, 0, 0] over 1, whose mean 1/2 on
        # [0, 1, 2, 0] is within 1/2 of the integral 1/3, but the mask said no.
        model, group = cyclic_model(3), GroupSpec.cyclic(2)
        sigma = quotient_sofic(group, {"kind": "regular", "copies": 2}, list(group.elements()))
        uniform = SiteMeasure.uniform(model)
        f = PanelFunction("f", [1, 0, 0])
        window = MapWindow(F=(), delta=Fraction(1, 2), L=(f,), target=uniform)
        x = np.array([[0, 1, 2, 0]])
        assert f.integral(uniform) == Fraction(1, 3)
        assert meas_microstate_mask(x, sigma, window, discrete_metric(model), trivial_action(group, model)).tolist() == [True]
        for values, den in (([1, 0, 0], 0), ([-1, 0, 0], -1)):
            with pytest.raises(ValidationError, match="denominator >= 1"):
                PanelFunction("f", values, den)

    def test_panel_function_refuses_bad_tables(self):
        for values, den, message in (
            ([1, 0, 0], 1.0, "must be an integer"),
            ([1, 0, 0], Fraction(2), "must be an integer"),
            # float values are refused, integral ones too
            ([0.5, 0.0, 0.0], 1, "must hold integers, not float64"),
            (np.array([1, 0, 0], dtype=np.float32), 1, "must hold integers, not float32"),
            ([Fraction(1, 2), 0, 0], 1, "must hold integers"),
            (["1", "0", "0"], 1, "must hold integers"),
            ([1j, 0, 0], 1, "must hold integers"),
            ([True, False, False], 1, "must hold integers"),
            (np.array([2**63, 0, 0], dtype=np.uint64), 1, "must hold integers"),
            ([[1, 0, 0]], 1, "1-d"),
        ):
            with pytest.raises(ValidationError, match=message):
                PanelFunction("f", values, den)
        table = np.array([1, 0, 0])
        f = PanelFunction("f", table, np.int64(3))
        table[0] = 5
        assert f.values.dtype == np.int64 and f.values.tolist() == [1, 0, 0] and f.den == 3
        assert not f.values.flags.writeable


class TestEnumeration:
    def test_trivial_action_identity_window(self):
        group = GroupSpec.cyclic(2)
        model = cyclic_model(3)
        action = trivial_action(group, model)
        sigma = quotient_sofic(group, {"kind": "regular"}, list(group.elements()))
        metric = discrete_metric(model)
        out = enumerate_top_microstates(
            model, sigma, [group.identity()], Fraction(1, 2), metric, action
        )
        assert out.shape[0] == 9  # all |X|^d pass on the e-window

    def test_a_table_with_a_nonzero_diagonal_is_refused(self):
        # Z by its order-1 quotient acting trivially on Z/2, F = {t}, delta =
        # 1/2: with the all-ones table over den 1, the equivariant path listed
        # [[0], [1]] and the mask admitted neither row.  That table is no
        # longer a metric; with the discrete one both paths admit both rows
        Z = GroupSpec.integers()
        t = Z.generator(0)
        model = cyclic_model(2)
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [1]}, [Z.identity(), t])
        action = trivial_action(Z, model)
        with pytest.raises(ValidationError, match="diagonal"):
            Pseudometric(name="ones", model=model, table_num=np.ones((2, 2), dtype=np.int64))
        metric = discrete_metric(model)
        assert forces_exact_equivariance(metric, Fraction(1, 2), sigma.d)
        out = enumerate_top_microstates(model, sigma, [t], Fraction(1, 2), metric, action)
        xs = np.array([[0], [1]])
        assert out.tolist() == xs[top_microstate_mask(xs, sigma, [t], Fraction(1, 2), metric, action)].tolist() == [[0], [1]]

    def test_negation_exact_count(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        out = enumerate_top_microstates(
            model, sigma, list(group.elements()), Fraction(1, 4), metric, action
        )
        # exactly the pairs (x, -x)
        assert out.shape[0] == 3
        for row in out:
            assert (row[1] == (-row[0]) % 3)

    def test_exact_route_matches_brute_force(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        F = list(group.elements())
        # delta small enough to force exactness: compare both routes
        fast = enumerate_top_microstates(model, sigma, F, Fraction(1, 4), metric, action)
        brute = [
            (a, b)
            for a in range(3)
            for b in range(3)
            if top_microstate_mask(np.array([a, b])[None], sigma, F, Fraction(1, 4), metric, action)[0]
        ]
        assert sorted(map(tuple, fast.tolist())) == sorted(brute)

    def test_delta_above_diameter_passes_everything(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        out = enumerate_top_microstates(
            model, sigma, list(group.elements()), Fraction(3, 2), metric, action
        )
        assert out.shape[0] == 9

    def test_budget_exceeded(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_top_microstates(
                model, sigma, list(group.elements()), Fraction(3, 2), metric, action, budget=5
            )
        assert err.value.required == 9

    def test_equivariant_budget_reports_the_full_count(self):
        # F = {e}: six one-point components of three values each, 3^6 in all
        group = GroupSpec.cyclic(2)
        model = cyclic_model(3)
        sigma = quotient_sofic(group, {"kind": "regular", "copies": 3}, list(group.elements()))
        with pytest.raises(BudgetExceededError) as err:
            enumerate_top_microstates(
                model, sigma, [group.identity()], Fraction(1, 4), discrete_metric(model),
                trivial_action(group, model), budget=100,
            )
        assert err.value.required == 729

    def test_block_copies_count(self):
        # f=2+t dual: trivial action; k blocks: 3^k equivariant candidates
        group = GroupSpec.cyclic(2)
        f = IntegerGroupMatrix.single(group, [(2, "e"), (1, "t")])
        model, action = dual_model(f)
        metric = discrete_metric(model)
        for k in (1, 2, 3):
            sigma = quotient_sofic(group, {"kind": "regular", "copies": k}, list(group.elements()))
            out = enumerate_top_microstates(
                model, sigma, list(group.elements()), Fraction(1, 4), metric, action
            )
            assert out.shape[0] == 3**k


@st.composite
def equivariant_cases(draw):
    """Z acting on Z/n by a unit, or diagonally on (Z/n)^2, with sigma a
    cyclic quotient of order d (perturbed half the time), F drawn from
    {e, t, t^-1, t^2}, a table times a over den k, and delta on either side
    of the bound sqrt(min_positive_sq / d) below which a metric that
    separates points forces exact equivariance.  The table is the discrete
    one, or, for a metric that does not separate points when n > 2, the
    distance between the classes {0} and {1, ..., n - 1}, which every unit
    preserves."""
    Z = GroupSpec.integers()
    pair = draw(st.booleans())
    n = draw(st.integers(2, 3 if pair else 5))
    model = cyclic_model(n)
    unit = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1]))
    action = AutomorphismAction(Z, model, {"t": unit_automorphism(model, unit)})
    a, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    classes = np.arange(n) if draw(st.booleans()) else np.arange(n) > 0
    separates = len(set(classes.tolist())) == n
    table = a * (classes[:, None] != classes[None, :]).astype(np.int64)
    metric = Pseudometric("scaled", model, table_num=table, den=k)
    least = Fraction(a, k)  # one differing point
    if pair:
        # one differing point in one of the two halves
        action, metric, least = diagonal_action(action), doubled_metric(metric), least / 2
    d = draw(st.integers(1, 4 if pair else 6))
    words = draw(st.lists(st.sampled_from(["e", "t", "t^-1", "t^2"]), min_size=1, max_size=4, unique=True))
    F = [Z.parse(w) for w in words]
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, [Z.identity()] + F)
    if draw(st.booleans()):
        sigma = perturb(sigma, draw(st.sampled_from([0.2, 0.5])), draw(st.integers(0, 99)))
    # floor(sqrt(N)) / b <= sqrt(bound) < (floor(sqrt(N)) + 1) / b, for bound = N / b^2
    bound = least / d
    delta = Fraction(math.isqrt(bound.numerator * bound.denominator) + draw(st.integers(0, 1)), bound.denominator)
    return action, metric, sigma, F, delta, least, separates


def _declared_floor_case():
    """Z/2 acting on Z/3 by x -> 2x, sigma the regular quotient (d = 2), F = G,
    the discrete table over den 4 and delta = 2/3.  Its least positive
    distance is 1/4; declared as 1, it sent enumeration down the equivariant
    path, which listed 3 of the 9 candidates that the mask admits."""
    group, model = GroupSpec.cyclic(2), cyclic_model(3)
    action = AutomorphismAction(group, model, {"t": unit_automorphism(model, 2)})
    sigma = quotient_sofic(group, {"kind": "regular"}, list(group.elements()))
    metric = Pseudometric("quarter", model, table_num=discrete_metric(model).table_num, den=4)
    return action, metric, sigma, list(group.elements()), Fraction(2, 3), Fraction(1, 4), True


def _non_separating_case():
    """Z acting trivially on Z/3, sigma(t) the 4-cycle, F = (t,), delta = 1/4
    and a table with distance 0 between the points 1 and 2.  A single broken
    equation costs nothing there, yet enumeration took the equivariant path
    and listed 3 rows, where the mask admits 17: the zero row and the 16 rows
    over {1, 2}."""
    Z, model = GroupSpec.integers(), cyclic_model(3)
    action = AutomorphismAction(Z, model, {"t": unit_automorphism(model, 1)})
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, [Z.identity(), Z.parse("t")])
    metric = Pseudometric("pseudo", model, table_num=[[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    return action, metric, sigma, [Z.parse("t")], Fraction(1, 4), Fraction(1), False


@settings(max_examples=150, deadline=None)
@given(equivariant_cases())
@example(_declared_floor_case())
@example(_non_separating_case())
def test_equivariant_enumeration_is_the_brute_force_list_in_order(case):
    action, metric, sigma, F, delta, least, separates = case
    model, d = action.model, sigma.d
    assert metric.min_positive_sq == least
    assert forces_exact_equivariance(metric, delta, d) == (separates and delta * delta <= least / d)
    xs = np.array(list(itertools.product(range(model.n_points), repeat=d)), dtype=np.int64)
    want = xs[top_microstate_mask(xs, sigma, F, delta, metric, action)]
    got = enumerate_top_microstates(model, sigma, F, delta, metric, action)
    assert got.shape == want.shape and np.array_equal(got, want)


def _component_window(n: int, unit: int, p, words):
    """Z acting on Z/n by x -> unit * x, sigma(t) the permutation p and F
    the given words over {e, t, t^-1, t^2}."""
    Z, model = GroupSpec.integers(), cyclic_model(n)
    action = AutomorphismAction(Z, model, {"t": unit_automorphism(model, unit)})
    p = np.array(p, dtype=np.int64)
    perms = {"e": np.arange(p.size), "t": p, "t^-1": np.argsort(p), "t^2": p[p]}
    sigma = SoficApproximation(Z, {Z.parse(w): perms[w] for w in perms}, "drawn")
    return action, sigma, [Z.parse(w) for w in words]


@st.composite
def many_component_cases(draw):
    """Z acting on Z/2 or Z/3 trivially, or on Z/3 by negation, with sigma(t)
    any permutation of d <= 8 points and F a nonempty subset of {e, t, t^-1,
    t^2}, so a window has from 1 to d components (d of them for F = (e,)).
    Negation leaves a component with an odd cycle of t the value 0 alone."""
    n = draw(st.integers(2, 3))
    unit = draw(st.sampled_from(range(1, n)))
    p = draw(st.integers(1, 8).flatmap(lambda d: st.permutations(range(d))))
    words = draw(st.lists(st.sampled_from(["e", "t", "t^-1", "t^2"]), min_size=1, max_size=4, unique=True))
    return _component_window(n, unit, p, words)


@settings(max_examples=150, deadline=None)
@given(many_component_cases())
@example(_component_window(3, 1, [1, 2, 3, 4, 5, 6, 7, 0], ["t"]))  # one component
@example(_component_window(2, 1, range(8), ["e"]))  # eight components
# a 3-cycle and a fixed point under negation take only 0, then two 2-cycles
@example(_component_window(3, 2, [1, 2, 0, 3, 5, 4, 7, 6], ["t"]))
def test_equivariant_enumeration_across_many_components(case):
    # the listing is built in two halves, split after the first prefix of
    # components whose product of value counts squared reaches the total
    action, sigma, F = case
    model, d = action.model, sigma.d
    metric, delta = discrete_metric(model), Fraction(1, 8)
    assert forces_exact_equivariance(metric, delta, d)
    xs = np.array(list(itertools.product(range(model.n_points), repeat=d)), dtype=np.int64)
    want = xs[top_microstate_mask(xs, sigma, F, delta, metric, action)]
    got = enumerate_top_microstates(model, sigma, F, delta, metric, action)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.flags.c_contiguous


def _reference_listing(model, sigma, F, action) -> np.ndarray:
    """The equivariant listing as first built: components walked as in
    ``_enumerate_equivariant``, then every row so far repeated once per valid
    value of the next component, starting from one empty row."""
    d, n = sigma.d, model.n_points
    edges = [(sigma.perm(g), action.point_map(g)) for g in F]
    transfer = np.empty((d, n), dtype=np.int64)
    comp = [-1] * d
    valid = []
    for root in range(d):
        if comp[root] >= 0:
            continue
        k = comp[root] = len(valid)
        transfer[root] = np.arange(n)
        ok = np.ones(n, dtype=bool)
        stack = [root]
        while stack:
            j = stack.pop()
            for p, m in edges:
                i, t = int(p[j]), m[transfer[j]]
                if comp[i] < 0:
                    comp[i] = k
                    transfer[i] = t
                    stack.append(i)
                else:
                    ok &= transfer[i] == t
        valid.append(np.flatnonzero(ok))
    comp = np.array(comp)
    out = np.empty((1, d), dtype=np.int64)
    for k, v in enumerate(valid):
        cols = np.flatnonzero(comp == k)
        out = np.repeat(out, len(v), axis=0)
        out.reshape(-1, len(v), d)[:, :, cols] = transfer[cols][:, v].T
    return out


def test_equivariant_listing_is_written_once():
    # Z acting trivially on Z/3, sigma(t) ten copies of the 4-cycle: 3^10
    # rows of 40 coordinates.  Repeating every row so far once per component
    # peaked at about 1.33 times the output
    Z, model = GroupSpec.integers(), cyclic_model(3)
    e, t = Z.identity(), Z.generator(0)
    action = trivial_action(Z, model)
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4], "copies": 10}, [e, t, Z.inverse(t)])
    nbytes = 3**10 * 40 * 8
    with alloc_cap(int(1.2 * nbytes)):
        got = enumerate_top_microstates(model, sigma, (e, t), Fraction(1, 8), discrete_metric(model), action)
    assert got.nbytes == nbytes and got.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, _reference_listing(model, sigma, (e, t), action))


def test_alloc_cap_fails_over_the_cap_and_passes_under_it():
    cap = 2**22
    with alloc_cap(cap):
        np.ones(cap // 16, dtype=np.int64)  # half the cap
    with pytest.raises(pytest.fail.Exception, match="over the"):
        with alloc_cap(cap):
            np.ones(cap // 4, dtype=np.int64)  # twice the cap


class TestSampling:
    def test_sampled_subset_of_enumerated(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        window = MapWindow(
            F=tuple(group.elements()),
            delta=Fraction(1, 4),
            L=(),
            target=SiteMeasure.uniform(model),
        )
        enumerated = {
            tuple(r)
            for r in enumerate_top_microstates(
                model, sigma, window.F, window.delta, metric, action
            ).tolist()
        }
        got = sample_microstates(model, sigma, window, metric, action, n_samples=8, seed=3)
        assert got.shape[0] >= 1
        for row in got:
            assert tuple(row.tolist()) in enumerated

    def test_determinism(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        window = MapWindow(
            F=tuple(group.elements()),
            delta=Fraction(1, 4),
            L=(),
            target=SiteMeasure.uniform(model),
        )
        a = sample_microstates(model, sigma, window, metric, action, n_samples=5, seed=7)
        b = sample_microstates(model, sigma, window, metric, action, n_samples=5, seed=7)
        assert (a == b).all()

    def test_trivial_action_uniform(self):
        group = GroupSpec.cyclic(2)
        model = cyclic_model(3)
        action = trivial_action(group, model)
        sigma = quotient_sofic(group, {"kind": "regular", "copies": 4}, list(group.elements()))
        metric = discrete_metric(model)
        window = MapWindow(F=(group.identity(),), delta=Fraction(1, 2), L=(), target=SiteMeasure.uniform(model))
        got = sample_microstates(model, sigma, window, metric, action, n_samples=6, seed=1)
        assert got.shape == (6, 8)


class TestEmpiricalAndLifts:
    def test_point_mass(self):
        model = cyclic_model(3)
        x = np.array([2, 2, 2, 2])
        mu = empirical_pushforward(x, model)
        assert mu.num.tolist() == [0, 0, 1] and mu.den == 1

    def test_uniform(self):
        model = cyclic_model(3)
        x = np.array([0, 1, 2])
        assert empirical_pushforward(x, model) == SiteMeasure.uniform(model)

    def test_counting(self):
        model = cyclic_model(3)
        x = np.array([0, 0, 1, 2])
        mu = empirical_pushforward(x, model)
        assert mu.num.tolist() == [2, 1, 1] and mu.den == 4

    def test_shift_lift_identity_window(self, neg_setup):
        group, model, action, sigma = neg_setup
        x = np.array([1, 2])
        lift = shift_lift(x, sigma, [group.identity()])
        assert (lift[:, 0] == x).all()

    def test_shift_lift_index_arithmetic(self):
        Z = GroupSpec.integers()
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [8]},
            [Z.identity(), Z.generator(0), Z.inverse(Z.generator(0))],
        )
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, size=8)
        lift = shift_lift(x, sigma, [Z.identity(), Z.generator(0)])
        for j in range(8):
            assert lift[j, 0] == x[j]
            assert lift[j, 1] == x[(j - 1) % 8]

    def test_lift_marginal_is_empirical(self, neg_setup):
        group, model, action, sigma = neg_setup
        x = np.array([1, 0])
        lift = shift_lift(x, sigma, [group.identity(), group.generator(0)])
        model_marginal = empirical_pushforward(lift[:, 0], model)
        assert model_marginal == empirical_pushforward(x, model)

    def test_psi_window(self, neg_setup):
        group, model, action, sigma = neg_setup
        # negation on Z/3, W = Z/2, p = 1 -> (1, 2)
        W = [group.identity(), group.generator(0)]
        assert psi_window(1, W, action) == (1, 2)

    def test_psi_window_trivial(self):
        group = GroupSpec.cyclic(2)
        model = cyclic_model(3)
        action = trivial_action(group, model)
        W = list(group.elements())
        assert psi_window(2, W, action) == (2, 2)

    def test_psi_window_singleton(self, neg_setup):
        group, model, action, sigma = neg_setup
        assert psi_window(1, [group.identity()], action) == (1,)

    def test_psi_window_values_are_python_points(self, neg_setup):
        # ints on a finite model, residue tuples on a torus
        group, model, action, sigma = neg_setup
        out = psi_window(np.int64(1), list(group.elements()), action)
        assert out == (1, 2) and all(type(v) is int for v in out)
        Z = GroupSpec.integers()
        shear = AutomorphismAction(Z, TorusGridModel(5, 2), generator_maps={"t": np.array([[1, 1], [0, 1]])})
        # t^-1.(3, 4) = (3 - 4, 4)
        out = psi_window((3, 4), [Z.identity(), Z.generator(0)], shear)
        assert out == ((3, 4), (4, 4)) and all(type(v) is tuple and type(v[0]) is int for v in out)


def _regular_z2():
    group = GroupSpec.cyclic(2)
    return quotient_sofic(group, {"kind": "regular"}, list(group.elements()))


def _kernel_model():
    f = IntegerGroupMatrix.single(GroupSpec.cyclic(2), [(2, "e"), (1, "t")])
    return instantiate_Xf(f, _regular_z2(), q=6, tol=0)


def _window():
    m = cyclic_model(3)
    return MapWindow(F=(GroupSpec.cyclic(2).identity(),), delta=Fraction(1, 4), L=indicator_panel(m), target=SiteMeasure.uniform(m))


@pytest.mark.parametrize(
    "build",
    [
        _regular_z2,
        _kernel_model,
        lambda: UniformOnSet(cyclic_model(3), np.array([[0, 1], [2, 2]])),
        lambda: discrete_metric(cyclic_model(3)),
        lambda: indicator_panel(cyclic_model(3))[0],
        _window,
        lambda: Doubled(UniformOnSet(cyclic_model(3), np.array([[0, 1], [2, 2]]))),
    ],
    ids=["SoficApproximation", "AlgebraicActionModel", "SampleBased", "Pseudometric", "TestFunction", "MapWindow", "Doubled"],
)
def test_array_holders_compare_as_objects(build):
    # field-by-field == on their arrays used to raise "truth value of an
    # array is ambiguous", and hash a TypeError
    a, b = build(), build()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


class TestMonotonicity:
    def test_window_nesting(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        F_small = [group.identity()]
        F_big = list(group.elements())
        small_delta = Fraction(1, 4)
        big_delta = Fraction(1, 2)
        for a in range(3):
            for b in range(3):
                x = np.array([a, b])
                # Map(F_big, small) subset Map(F_small, big)
                if top_microstate_mask(x[None], sigma, F_big, small_delta, metric, action)[0]:
                    assert top_microstate_mask(x[None], sigma, F_small, big_delta, metric, action)[0]

    def test_meas_subset_of_top(self, neg_setup):
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        window = MapWindow(
            F=tuple(group.elements()),
            delta=Fraction(1, 2),
            L=indicator_panel(model),
            target=SiteMeasure.uniform(model),
        )
        for a in range(3):
            for b in range(3):
                x = np.array([a, b])
                if is_meas_microstate(x, sigma, window, metric, action):
                    assert top_microstate_mask(x[None], sigma, window.F, window.delta, metric, action)[0]

    def test_product_of_microstates_doubles_delta(self, neg_setup):
        # bi-invariant metric: x, y in Map(delta) implies xy in Map(2 delta)
        group, model, action, sigma = neg_setup
        metric = discrete_metric(model)
        F = list(group.elements())
        delta = Fraction(1, 4)
        members = [
            np.array([a, b])
            for a in range(3)
            for b in range(3)
            if top_microstate_mask(np.array([a, b])[None], sigma, F, delta, metric, action)[0]
        ]
        for x in members:
            for y in members:
                xy = model.candidate_mul(x, y)
                assert top_microstate_mask(xy[None], sigma, F, 2 * delta, metric, action)[0]


def _circle_sq(a, b, q):
    """The squared circle distance of two residues mod q."""
    c = abs(int(a) - int(b)) % q
    return min(c, q - c) ** 2


class TestTorusModels:
    """The torus paths, each against explicit residue arithmetic."""

    def test_doubled_metric_is_the_metric_on_twice_the_sites(self):
        dm = doubled_metric(torus_metric(TorusGridModel(6, 2)))
        ref = torus_metric(TorusGridModel(6, 4))
        assert (dm.model.q, dm.model.sites) == (6, 4)
        assert (dm.den, dm.min_positive_sq) == (ref.den, ref.min_positive_sq)
        x, y = (1, 5, 0, 3), (4, 0, 0, 2)
        # circle distances 3, 1, 0, 1 over 4 sites of the 6-grid
        assert rho2_sq(dm, [x], [y]) == rho2_sq(ref, [x], [y]) == Fraction(9 + 1 + 0 + 1, 4 * 36)
        # a torus metric of another denominator doubles by the same rule: the
        # doubled metric averages the factor's squared distances, where it
        # used to be the standard metric, den 2 * 9 = 18 in place of 2
        raw = Pseudometric("raw", TorusGridModel(3, 1), den=1)
        dr = doubled_metric(raw)
        assert (dr.model.q, dr.model.sites, dr.den, dr.min_positive_sq) == (3, 2, 2, Fraction(1, 2))
        halves = rho2_sq(raw, [(1,)], [(0,)]) + rho2_sq(raw, [(0,)], [(0,)])
        assert rho2_sq(dr, [(1, 0)], [(0, 0)]) == halves / 2 == Fraction(1, 2)

    def test_sq_agrees_with_rho2_at_d_1(self):
        q, s = 5, 3
        metric = torus_metric(TorusGridModel(q, s))
        rng = np.random.default_rng(3)
        for x, y in rng.integers(0, q, size=(20, 2, s)):
            want = Fraction(sum(_circle_sq(a, b, q) for a, b in zip(x, y)), s * q * q)
            assert rho2_sq(metric, x[None], y[None]) == want

    def test_top_mask(self):
        Z = GroupSpec.integers()
        q, d = 3, 4
        model = TorusGridModel(q, 2)
        action = AutomorphismAction(Z, model, generator_maps={"t": np.array([[1, 1], [0, 1]])})
        one = Z.generator(0)
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [d]}, [Z.identity(), one, Z.inverse(one)]
        )
        delta = Fraction(1, 4)
        xs = np.random.default_rng(5).integers(0, q, size=(60, d, 2))
        perm = sigma.perm(one)
        want = []
        for x in xs:
            # rho2^2 between t.x = ((a + b) mod q, b) per coordinate and x o sigma(t)
            total = Fraction(0)
            for j in range(d):
                a, b = x[j]
                moved = ((a + b) % q, b)
                total += sum(_circle_sq(u, v, q) for u, v in zip(moved, x[perm[j]]))
            total = total / (d * 2 * q * q)
            want.append(total < delta**2 or total == 0)
        got = top_microstate_mask(xs, sigma, [one], delta, torus_metric(model), action)
        assert any(want) and not all(want)
        assert got.tolist() == want

    def test_empirical_measure_of_a_torus_candidate(self):
        t = TorusGridModel(3, 2)
        x = np.array([[0, 1], [2, 2], [0, 1], [1, 0]])
        # the point (a, b) has index 3a + b
        mu = empirical_pushforward(x, t)
        assert mu.num.tolist() == [0, 2, 0, 1, 0, 0, 0, 0, 1] and mu.den == 4

    def test_table_metric_needs_a_finite_model(self):
        # a table reads point indices: on a torus it would read residues as
        # indices, so the metric is refused, as is a finite model without one
        fields = dict(name="discrete")
        table = discrete_metric(cyclic_model(9)).table_num
        with pytest.raises(ValidationError, match="table_num"):
            Pseudometric(model=TorusGridModel(3, 2), table_num=table, **fields)
        with pytest.raises(ValidationError, match="table_num"):
            Pseudometric(model=cyclic_model(9), **fields)


class TestExactThresholds:
    """The integer thresholds against their Fraction definitions."""

    @settings(max_examples=200, deadline=None)
    @given(
        nums=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8),
        count=st.integers(1, 2**62),
        q=st.integers(1, 9),
        delta=st.fractions(min_value=0, max_value=4, max_denominator=2**40),
    )
    @example(nums=[0, 1, 3], count=4, q=1, delta=Fraction(0))
    @example(nums=[0, 3, 4, 5], count=5, q=1, delta=Fraction(1))
    @example(nums=[0, 1, 2], count=3, q=1, delta=Fraction(2**32, 2**33 + 1))
    @example(nums=[2**63 - 1, 2**63 - 2], count=2**62, q=9, delta=Fraction(4))
    def test_top_threshold(self, nums, count, q, delta):
        metric = discrete_metric(cyclic_model(2)) if q == 1 else torus_metric(TorusGridModel(q, 2))
        want = [Fraction(k, count * metric.den) < delta * delta or k == 0 for k in nums]
        got = _in_range(np.array(nums, dtype=np.int64), *_band(Fraction(0), delta * delta * count * metric.den))
        assert got.tolist() == want

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(-(2**20), 2**20), min_size=3, max_size=3),
        values_den=st.integers(1, 2**34),
        weights=st.lists(st.integers(0, 2**40), min_size=3, max_size=3).filter(any),
        delta=st.fractions(min_value=0, max_value=2, max_denominator=2**40),
    )
    @example(values=[0, 1, 0], values_den=1, weights=[1, 1, 2], delta=Fraction(0))
    @example(values=[3, 0, 1], values_den=7, weights=[2**40 + 1, 3, 2**33], delta=Fraction(1, 2**32 + 3))
    @example(values=[1, 0, 0], values_den=1, weights=[1, 2, 1], delta=Fraction(1, 4))
    def test_exact_panel(self, values, values_den, weights, delta):
        # F = () leaves only the panel; every candidate of length 4 on Z/3
        model = cyclic_model(3)
        group = GroupSpec.cyclic(2)
        sigma = quotient_sofic(group, {"kind": "regular", "copies": 2}, list(group.elements()))
        f = PanelFunction("f", values=np.array(values, dtype=np.int64), den=values_den)
        target = SiteMeasure(model, np.array(weights, dtype=np.int64), sum(weights))
        xs = np.array(np.meshgrid(*[range(3)] * 4, indexing="ij")).reshape(4, -1).T
        t = sum(Fraction(w * v, sum(weights) * values_den) for w, v in zip(weights, values))
        means = [sum(Fraction(values[i], 4 * values_den) for i in x) for x in xs]
        want = [abs(m - t) < delta or m == t for m in means]
        window = MapWindow(F=(), delta=delta, L=(f,), target=target)
        got = meas_microstate_mask(xs, sigma, window, discrete_metric(model), trivial_action(group, model))
        assert got.tolist() == want


# Re exp(2 pi i a / 3), exactly: [1, -1/2, -1/2] on Z/3, and the same of the
# first coordinate a on a 9-point model whose point (a, b) has index 3a + b
RE_CHI = PanelFunction("chi1.re", [2, -1, -1], 2)
RE_CHI_FIRST = PanelFunction("chi1.re", [2, 2, 2, -1, -1, -1, -1, -1, -1], 2)


def _gather_mask(xs, sigma, window, metric, action):
    """Map_mu membership with each panel mean taken from the gathered (N, d)
    array of values: the reference for the row-block sums."""
    ok = top_microstate_mask(xs, sigma, window.F, window.delta, metric, action)
    idx = metric.model.point_indices(xs)
    for f in window.L:
        # |nums/den - target| < delta, or equal, cross-multiplied
        nums, den = f.values[idx].sum(axis=-1), idx.shape[-1] * f.den
        t, delta = f.integral(window.target), window.delta
        gap = np.abs(nums * t.denominator - t.numerator * den)
        ok &= (gap * delta.denominator < delta.numerator * den * t.denominator) | (gap == 0)
    return ok


class TestPanelSums:
    """The panel means gathered a block of rows at a time give the masks of
    the whole gathered array."""

    DELTAS = (Fraction(0), Fraction(1, 7), Fraction(1, 4), Fraction(1, 2))

    def near_and_uniform(self, rng, n_rows, d, shape, q):
        """Uniform candidates, and near-constant ones whose panel means sit on
        the thresholds."""
        uniform = rng.integers(0, q, size=(n_rows, d) + shape)
        near = np.repeat(rng.integers(0, q, size=(n_rows, 1) + shape), d, axis=1)
        rows = np.arange(n_rows)
        for _ in range(d // 2):
            near[rows, rng.integers(0, d, size=n_rows)] = rng.integers(0, q, size=(n_rows,) + shape)
        return np.concatenate([uniform, near]).astype(np.int64)

    def test_finite_model(self):
        # d = 20 on Z/3: a row-block boundary falls inside the batch, and
        # the panel means tie with the thresholds at delta = 1/4
        Z = GroupSpec.integers()
        model = cyclic_model(3)
        action = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, -1)})
        t = Z.generator(0)
        d = 20
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, [Z.identity(), t, Z.inverse(t)])
        metric = discrete_metric(model)
        xs = self.near_and_uniform(np.random.default_rng(11), 4000, d, (), 3)
        # Re chi scaled by 2/3 and Re chi^2, which equals Re chi on Z/3
        panel = indicator_panel(model, Fraction(2, 3)) + (PanelFunction("chi1.re", [2, -1, -1], 3), RE_CHI)
        for target in (SiteMeasure.uniform(model), SiteMeasure(model, np.array([3, 1, 2]), 6)):
            for delta in self.DELTAS:
                window = MapWindow(F=(Z.identity(),), delta=delta, L=panel, target=target)
                want = _gather_mask(xs, sigma, window, metric, action)
                got = meas_microstate_mask(xs, sigma, window, metric, action)
                assert got.tolist() == want.tolist()
                assert (delta == 0 or want.any()) and not want.all()

    def test_multi_site_torus(self):
        Z = GroupSpec.integers()
        q, d = 3, 6
        model = TorusGridModel(q, 2)
        action = AutomorphismAction(Z, model, generator_maps={"t": np.array([[1, 1], [0, 1]])})
        t = Z.generator(0)
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, [Z.identity(), t, Z.inverse(t)])
        metric = torus_metric(model)
        xs = self.near_and_uniform(np.random.default_rng(12), 1500, d, (2,), q)
        target = SiteMeasure.uniform(model)
        for delta in self.DELTAS:
            window = MapWindow(F=(Z.identity(),), delta=delta, L=indicator_panel(model) + (RE_CHI_FIRST,), target=target)
            want = _gather_mask(xs, sigma, window, metric, action)
            assert meas_microstate_mask(xs, sigma, window, metric, action).tolist() == want.tolist()
            assert delta == 0 or want.any()


# -- row blocks -----------------------------------------------------------------


def _reference_mask(xs, sigma, F, delta, L, target, sq, den, move, index):
    """Map_mu membership of each candidate by its definition, in Fractions:
    ``sq(a, b)`` is the squared distance numerator of two points over
    ``den``, ``move(g, a)`` the point g.a and ``index(a)`` its point index.
    The reference for the row-block masks."""
    d = sigma.d
    want = []
    for x in xs:
        ok = True
        for g in F:
            p = sigma.perm(g)
            r = Fraction(sum(sq(move(g, x[j]), x[p[j]]) for j in range(d)), d * den)
            ok &= r < delta * delta or r == 0
        idx = [index(a) for a in x]
        for f in L:
            mean = Fraction(sum(int(f.values[i]) for i in idx), d * f.den)
            t = Fraction(sum(int(w) * int(v) for w, v in zip(target.num, f.values)), target.den * f.den)
            ok &= abs(mean - t) < delta or mean == t
        want.append(bool(ok))
    return np.array(want, dtype=bool)


def _block_cases():
    """(label, sigma, F, delta, metric, action, panel, sq, den, move, index)
    for a finite table metric, a doubled (PairTable) metric and a torus
    metric, each with a panel of indicators and an integer function over a
    denominator; brute enumeration runs at ``delta``, which passes some
    candidates and not all."""
    Z = GroupSpec.integers()
    e, t = Z.identity(), Z.generator(0)
    support = [e, t, Z.inverse(t)]

    # Z/5 with the squared circle distance as its table, t acting by x -> 2x
    # over a perturbed sigma
    z5 = cyclic_model(5)
    table = np.array([[_circle_sq(i, j, 5) for j in range(5)] for i in range(5)])
    double = AutomorphismAction(Z, z5, generator_maps={"t": unit_automorphism(z5, 2)})
    sigma5 = perturb(quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [5]}, support), 0.4, 3)
    finite = (
        "finite-table", sigma5, (e, t, Z.inverse(t)), Fraction(1, 4),
        Pseudometric("circle", z5, table_num=table, den=25), double,
        indicator_panel(z5, Fraction(1, 2)) + (PanelFunction("sq0", table[0], 4),),
        lambda a, b: table[a, b], 25, lambda g, a: double.point_map(g)[a], int,
    )
    # the doubled discrete metric on (Z/3)^2, t negating both halves
    z3 = cyclic_model(3)
    neg = AutomorphismAction(Z, z3, generator_maps={"t": unit_automorphism(z3, -1)})
    pairs = diagonal_action(neg)
    sigma4 = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, support)
    doubled = (
        "doubled-table", sigma4, (e, t), Fraction(1, 2), doubled_metric(discrete_metric(z3)),
        pairs, indicator_panel(pairs.model) + (RE_CHI_FIRST,),
        lambda a, b: int(a // 3 != b // 3) + int(a % 3 != b % 3), 2, lambda g, a: pairs.point_map(g)[a], int,
    )
    # the 3-grid on two sites, t acting by (a, b) -> (a + b, b)
    torus = TorusGridModel(3, 2)
    shear = np.array([[1, 1], [0, 1]])
    sheared = AutomorphismAction(Z, torus, generator_maps={"t": shear})
    grid = (
        "torus", sigma4, (t, Z.inverse(t)), Fraction(1, 4), torus_metric(torus),
        sheared, indicator_panel(torus) + (RE_CHI_FIRST,),
        lambda a, b: sum(_circle_sq(u, v, 3) for u, v in zip(a, b)), 2 * 9,
        lambda g, a: sheared.point_map(g) @ a % 3, lambda a: 3 * int(a[0]) + int(a[1]),
    )
    return [finite, doubled, grid]


def _all_points(case):
    """Every candidate of the case's model at its sigma's d, in order."""
    _, sigma, _, _, metric, *_ = case
    n, d = metric.model.n_points, sigma.d
    return metric.model.points_from_indices(np.array(list(itertools.product(range(n), repeat=d))))


def _check_blocks(blocks, case, sigma):
    """The blocks a listing handed to the mask: each has at most the bound's
    rows, together they run in strictly increasing lexicographic order, and
    every candidate left out of them fails the reference mask, so the search
    dropped no member of Map."""
    _, _, F, delta, metric, action, _, sq, den, move, index = case
    n, d = metric.model.n_points, sigma.d
    bound = max(1, microstates._BLOCK_COORDS // (d * np.size(metric.model.identity)))
    assert max(len(b) for b in blocks) <= bound
    # a candidate's rank in the lexicographic order of all n^d candidates
    ranks = metric.model.point_indices(np.concatenate(blocks)) @ n ** np.arange(d - 1, -1, -1)
    assert (np.diff(ranks) > 0).all()
    left = np.ones(n**d, dtype=bool)
    left[ranks] = False
    missing = _all_points((None, sigma, *case[2:]))[left]
    assert not _reference_mask(missing, sigma, F, delta, (), None, sq, den, move, index).any()


def _enumerate_in_blocks(monkeypatch, case, sigma):
    """Brute enumeration of the case's Map at ``sigma``, recording every
    block handed to the mask and checking them by ``_check_blocks``."""
    _, _, F, delta, metric, action, *_ = case
    mask, blocks = microstates.top_microstate_mask, []

    def recording(xs, *args):
        blocks.append(np.array(xs))
        return mask(xs, *args)

    monkeypatch.setattr(microstates, "top_microstate_mask", recording)
    got = enumerate_top_microstates(metric.model, sigma, F, delta, metric, action)
    monkeypatch.setattr(microstates, "top_microstate_mask", mask)
    _check_blocks(blocks, case, sigma)
    return got


class TestRowBlocks:
    """Masks and brute enumeration with the block constant cut to a few
    coordinates, so that block boundaries fall everywhere, against the
    reference by definition."""

    # 1 coordinate: one row a block; 29: 7 rows of d = 4 coordinates, or 3
    # torus rows of 8, neither of which divides the batches
    BLOCKS = (1, 29, microstates._BLOCK_COORDS)
    DELTAS = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))

    @pytest.mark.parametrize("case", _block_cases(), ids=lambda c: c[0])
    def test_masks(self, monkeypatch, case):
        _, sigma, F, _, metric, action, panel, sq, den, move, index = case
        rng = np.random.default_rng(21)
        every = _all_points(case)
        # a batch of 61 candidates, the constant ones first so that some pass
        xs = np.concatenate([every[:: len(every) // 5 + 1], every[rng.integers(0, len(every), size=56)]])
        target = SiteMeasure.uniform(metric.model)
        seen = set()
        for delta in self.DELTAS:
            window = MapWindow(F=F, delta=delta, L=panel, target=target)
            for batch in (xs, xs[:1]):
                top = _reference_mask(batch, sigma, F, delta, (), None, sq, den, move, index)
                meas = _reference_mask(batch, sigma, F, delta, panel, target, sq, den, move, index)
                for block in self.BLOCKS:
                    monkeypatch.setattr(microstates, "_BLOCK_COORDS", block)
                    assert top_microstate_mask(batch, sigma, F, delta, metric, action).tolist() == top.tolist()
                    assert meas_microstate_mask(batch, sigma, window, metric, action).tolist() == meas.tolist()
            seen.update(top.tolist() + meas.tolist())
        assert seen == {True, False}

    @pytest.mark.parametrize("case", _block_cases(), ids=lambda c: c[0])
    def test_brute_enumeration(self, monkeypatch, case):
        _, sigma, F, delta, metric, action, _, sq, den, move, index = case
        every = _all_points(case)
        assert not forces_exact_equivariance(metric, delta, sigma.d)
        want = every[_reference_mask(every, sigma, F, delta, (), None, sq, den, move, index)]
        assert 0 < len(want) < len(every)
        for block in self.BLOCKS:
            monkeypatch.setattr(microstates, "_BLOCK_COORDS", block)
            got = _enumerate_in_blocks(monkeypatch, case, sigma)
            assert got.dtype == np.int64 and got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("case", _block_cases()[::2], ids=lambda c: c[0])
    def test_one_digit_wider_than_a_block(self, monkeypatch, case):
        # at d = 1, with 2 coordinates a block, the 5 points of Z/5 and the 9
        # of the 3-grid exceed a block's rows, so the digit's range is cut
        _, sigma, F, delta, metric, action, _, sq, den, move, index = case
        one = quotient_sofic(sigma.group, {"kind": "cyclic-powers", "orders": [1]}, list(sigma.table))
        monkeypatch.setattr(microstates, "_BLOCK_COORDS", 2)
        assert not forces_exact_equivariance(metric, delta, 1)
        every = _all_points((None, one, *case[2:]))
        want = every[_reference_mask(every, one, F, delta, (), None, sq, den, move, index)]
        assert np.array_equal(_enumerate_in_blocks(monkeypatch, case, one), want)

    @pytest.mark.parametrize("case", _block_cases(), ids=lambda c: c[0])
    def test_no_survivors_keep_the_candidate_shape(self, monkeypatch, case):
        # every automorphism fixes the identity, so the constant identity
        # candidate always passes; a mask passing none stands in for an
        # empty Map, and shows that each block goes through the public mask
        _, sigma, F, delta, metric, action, *_ = case
        blocks = []
        monkeypatch.setattr(microstates, "_BLOCK_COORDS", 29)

        def passes_none(xs, *args):
            blocks.append(np.array(xs))
            return np.zeros(len(xs), dtype=bool)

        monkeypatch.setattr(microstates, "top_microstate_mask", passes_none)
        got = enumerate_top_microstates(metric.model, sigma, F, delta, metric, action)
        point_shape = metric.model.points_from_indices(np.zeros(1, dtype=np.int64)).shape[1:]
        assert got.shape == (0, sigma.d) + point_shape and got.dtype == np.int64
        assert len(blocks) > 1
        _check_blocks(blocks, case, sigma)

    def test_brute_enumeration_holds_one_block(self):
        # 3^12 candidates of length 12: building them all took 51 MB, and
        # their masks three more arrays of that size (a 213 MB peak)
        Z = GroupSpec.integers()
        e, t = Z.identity(), Z.generator(0)
        model = cyclic_model(3)
        neg = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, -1)})
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [12]}, [e, t, Z.inverse(t)])
        tracemalloc.start()
        try:
            got = enumerate_top_microstates(model, sigma, (e, t), Fraction(1, 2), discrete_metric(model), neg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (399, 12)
        assert peak < 16 * 2**20

    def test_identity_edges_are_skipped_only_when_the_map_is_the_identity(self, monkeypatch):
        Z = GroupSpec.integers()
        e, t = Z.identity(), Z.generator(0)
        t2, t3 = Z.power(t, 2), Z.power(t, 3)
        model = cyclic_model(3)
        metric = discrete_metric(model)
        neg = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, -1)})
        moved = []
        act = neg.act_candidates
        monkeypatch.setattr(neg, "act_candidates", lambda g, x: moved.append(g) or act(g, x))

        def mask(sigma, F):
            moved.clear()
            xs = np.array(list(itertools.product(range(3), repeat=sigma.d)))
            return top_microstate_mask(xs, sigma, F, Fraction(0), metric, neg)

        # t^2 acts as the identity (negation twice), and on the blocks of
        # Z/2 sigma(t^2) is the identity too: e and t^2 move nothing
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [2], "copies": 3}, [e, t2])
        assert mask(sigma, (e, t2)).all() and moved == []
        # perturbed, sigma(t^2) moves coordinates: t^2 is tested
        perturbed = perturb(sigma, Fraction(1, 2), 1)
        assert not np.array_equal(perturbed.perm(t2), np.arange(6))
        assert not mask(perturbed, (e, t2)).all() and moved == [t2]
        # on Z/3, sigma(t^3) is the identity but t^3 negates: t^3 is tested,
        # and the constant candidates 1 and 2 fail
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [3]}, [e, t3])
        ok = mask(sigma, (t3,))
        assert moved == [t3] and ok.sum() == 1 and ok[0]


class TestCoordinatesFirst:
    """Membership copies each block coordinates first; its masks are those
    of the definition for any window, batch and block size."""

    CASES = _block_cases()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_masks_match_the_reference(self, data):
        case = data.draw(st.sampled_from(self.CASES), label="case")
        _, sigma, _, _, metric, action, panel, sq, den, move, index = case
        support = list(sigma.table)
        keep = data.draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support)), label="F")
        F = tuple(g for g, k in zip(support, keep) if k)
        delta = data.draw(st.just(Fraction(0)) | st.fractions(0, 1, max_denominator=12), label="delta")
        n = metric.model.n_points
        weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any), label="target")
        target = SiteMeasure(metric.model, np.array(weights), sum(weights))
        every = _all_points(case)
        rows = data.draw(st.lists(st.integers(0, len(every) - 1), max_size=40) | st.lists(st.just(0), max_size=1), label="rows")
        batch = every[np.array(rows, dtype=np.int64)].reshape((len(rows),) + every.shape[1:])
        block = data.draw(st.sampled_from((1, 29, 2**15)), label="block")
        window = MapWindow(F=F, delta=delta, L=panel, target=target)
        top = _reference_mask(batch, sigma, F, delta, (), None, sq, den, move, index)
        meas = _reference_mask(batch, sigma, F, delta, panel, target, sq, den, move, index)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(microstates, "_BLOCK_COORDS", block)
            got_top = top_microstate_mask(batch, sigma, F, delta, metric, action)
            got_meas = meas_microstate_mask(batch, sigma, window, metric, action)
        assert got_top.dtype == bool and got_top.tolist() == top.tolist()
        assert got_meas.dtype == bool and got_meas.tolist() == meas.tolist()


class TestPrefixSearch:
    """Brute enumeration drops a prefix once a partial squared distance sum
    is past the band; its listing is the reference mask's rows of all n^d
    candidates, in order, whatever the sigma, window and block size."""

    # two automorphisms of each model: x -> 2x and x -> -x on Z/5, negation
    # and the identity on both halves of (Z/3)^2, two shears of the 3-grid
    MAPS = {
        "finite-table": (np.array([0, 2, 4, 1, 3]), np.array([0, 4, 3, 2, 1])),
        "doubled-table": (np.array([0, 2, 1]), np.array([0, 1, 2])),
        "torus": (np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]])),
    }

    @classmethod
    def _setup(cls, kind, group):
        """(metric, action, sq, den, move) for ``_reference_mask`` on the
        model of ``kind``, the group's generators acting by its MAPS."""
        gens = dict(zip(group.generators, cls.MAPS[kind]))
        if kind == "finite-table":
            z5 = cyclic_model(5)
            table = np.array([[_circle_sq(i, j, 5) for j in range(5)] for i in range(5)])
            action = AutomorphismAction(group, z5, generator_maps=gens)
            metric, sq, den = Pseudometric("circle", z5, table_num=table, den=25), lambda a, b: table[a, b], 25
            move = lambda g, a: action.point_map(g)[a]
        elif kind == "doubled-table":
            z3 = cyclic_model(3)
            action = diagonal_action(AutomorphismAction(group, z3, generator_maps=gens))
            metric, den = doubled_metric(discrete_metric(z3)), 2
            sq = lambda a, b: int(a // 3 != b // 3) + int(a % 3 != b % 3)
            move = lambda g, a: action.point_map(g)[a]
        else:
            action = AutomorphismAction(group, TorusGridModel(3, 2), generator_maps=gens)
            metric, den = torus_metric(action.model), 2 * 9
            sq = lambda a, b: sum(_circle_sq(u, v, 3) for u, v in zip(a, b))
            move = lambda g, a: action.point_map(g) @ a % 3
        return metric, action, sq, den, move

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_listing_matches_the_reference(self, data):
        kind = data.draw(st.sampled_from(sorted(self.MAPS)), label="model")
        # d = 1 is test_one_digit_wider_than_a_block's; n^d stays <= 729
        d = data.draw(st.sampled_from((4, 3, 2) if kind == "finite-table" else (3, 2)), label="d")
        if data.draw(st.booleans(), label="free"):
            # sigma(a^-1) is drawn apart from sigma(a): sofic, not a homomorphism
            group = GroupSpec.free(2)
            a, b = group.generator(0), group.generator(1)
            perms = st.permutations(range(d))
            table = {group.identity(): np.arange(d)}
            for g in (a, group.inverse(a), b):
                table[g] = np.array(data.draw(perms, label=f"sigma({g})"))
            sigma = SoficApproximation(group=group, table=table, provenance="drawn")
        else:
            group = GroupSpec.integers()
            t = group.generator(0)
            rate = data.draw(st.sampled_from((0, 0.4, 1)), label="rate")
            cycle = quotient_sofic(group, {"kind": "cyclic-powers", "orders": [d]}, [group.identity(), t, group.inverse(t)])
            sigma = perturb(cycle, rate, data.draw(st.integers(0, 20), label="seed"))
        support = sorted(sigma.table, key=str)
        keep = data.draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support)), label="F")
        F = tuple(g for g, k in zip(support, keep) if k)
        metric, action, sq, den, move = self._setup(kind, group)
        # delta = m / s with s^2 | d * den puts delta^2 * d * den on an integer,
        # the strict edge of the band (m = 0 is delta = 0); past delta^2 =
        # largest / den every candidate passes
        s = max(k for k in range(1, d * den + 1) if d * den % (k * k) == 0)
        top = Fraction(math.isqrt(metric.largest * s * s // den) + 1, s)
        edge = st.integers(0, top.numerator * s // top.denominator).map(lambda m: Fraction(m, s))
        delta = data.draw(edge | st.fractions(0, top, max_denominator=12), label="delta")
        every = _all_points((None, sigma, F, delta, metric))
        want = every[_reference_mask(every, sigma, F, delta, (), None, sq, den, move, lambda a: None)]
        block = data.draw(st.sampled_from((1, 29, microstates._BLOCK_COORDS)), label="block")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(microstates, "_BLOCK_COORDS", block)
            got = enumerate_top_microstates(metric.model, sigma, F, delta, metric, action)
        assert got.dtype == np.int64 and got.shape == want.shape and np.array_equal(got, want)


# -- the repair walk ----------------------------------------------------------


def _reference_violations(x, maps):
    """Per-coordinate count of broken equations, recomputed from scratch."""
    out = np.zeros(x.shape[0], dtype=np.int64)
    for p, m in maps:
        bad = m[x] != x[p]
        out += bad
        np.add.at(out, p[bad], 1)
    return out


def _reference_repair(x, maps, rng, rounds):
    """The walk that rescores every value of the worst coordinate by
    recomputing every equation: the reference for the incremental walk."""
    x = x.copy()
    n_points = max(int(m.shape[0]) for _, m in maps) if maps else 0
    for _ in range(rounds):
        viol = _reference_violations(x, maps)
        total = int(viol.sum())
        if total == 0:
            return x
        j = int(np.argmax(viol))
        best_val, best_score = int(x[j]), total
        for v in range(n_points):
            if v == x[j]:
                continue
            x[j] = v
            score = int(_reference_violations(x, maps).sum())
            if score < best_score:
                best_val, best_score = v, score
        x[j] = best_val
        if best_score == total:
            x[int(rng.integers(0, x.shape[0]))] = int(rng.integers(0, n_points))
    return x


@st.composite
def repair_cases(draw):
    """Random walks: permutations p (with fixed points at small d), bijective
    or arbitrary value maps m, 0 to 3 equations per coordinate, d >= 1."""
    d, n = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    maps = []
    for _ in range(draw(st.integers(0, 3))):
        p = draw(st.permutations(range(d)))
        m = draw(st.permutations(range(n)) | st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        maps.append((np.array(p, dtype=np.int64), np.array(m, dtype=np.int64)))
    x = np.array(draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)), dtype=np.int64)
    return maps, n, x, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 4 * d + 4))


def _reference_sample(model, sigma, window, metric, action, n_samples, seed):
    """One slot after another, one attempt and one membership test at a
    time, with numpy's draws: the reference for the lockstep sampler."""
    d, n = sigma.d, model.n_points
    maps = [(sigma.perm(g), action.point_map(g)) for g in window.F]
    found = []
    for slot in range(n_samples):
        rng = np.random.default_rng([seed, 0x5A3C, slot])
        for _ in range(microstates._ATTEMPTS_PER_SAMPLE):
            x = _reference_repair(rng.integers(0, n, size=d), maps, rng, 4 * d)
            if is_meas_microstate(x, sigma, window, metric, action):
                found.append(x.tolist())
                break
    return np.array(found, dtype=np.int64).reshape(len(found), d)


@st.composite
def sampler_cases(draw):
    """Z acting on Z/n by a unit, sigma the d-cycle, F a subset of e, t and
    t^-1, delta 1/4 or 1/2, with or without the indicator panel."""
    Z = GroupSpec.integers()
    t = Z.generator(0)
    n = draw(st.sampled_from((2, 3, 5)))
    model = cyclic_model(n)
    unit = draw(st.sampled_from([u for u in (1, -1, 2) if math.gcd(u, n) == 1]))
    action = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, unit)})
    support = [Z.identity(), t, Z.inverse(t)]
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [draw(st.integers(1, 6))]}, support)
    F = tuple(support[i] for i in draw(st.lists(st.integers(0, 2), unique=True, max_size=3)))
    panel = draw(st.sampled_from(((), indicator_panel(model))))
    window = MapWindow(F=F, delta=draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2)))), L=panel,
                       target=SiteMeasure.uniform(model))
    return model, sigma, window, discrete_metric(model), action


class TestRepairWalk:
    @settings(max_examples=300, deadline=None)
    @given(repair_cases())
    def test_matches_the_reference_walk(self, case):
        maps, n, x, seed, rounds = case
        eqs = [(p.tolist(), np.argsort(p).tolist(), m.tolist()) for p, m in maps]
        rng_ref, words = np.random.default_rng(seed), _Words(np.random.default_rng(seed))
        want = _reference_repair(x, maps, rng_ref, rounds)
        got = _repair(x, eqs, n, words, rounds)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        # the same draws were taken, in the same order
        assert words.below(2**32) == rng_ref.integers(0, 2**32, dtype=np.uint32)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        size=st.integers(0, 40),
        vector_bound=st.integers(1, 2**32),
        bounds=st.lists(st.integers(1, 2**32) | st.sampled_from((1, 2, 3, 2**32 - 5, 3 * 2**30, 2**32)), max_size=12),
        repeats=st.integers(1, 120),
    )
    def test_words_take_numpys_stream(self, seed, size, vector_bound, bounds, repeats):
        # a vector draw, then scalar draws past a buffer refill, then one word
        rng, words = np.random.default_rng(seed), _Words(np.random.default_rng(seed))
        assert [words.below(vector_bound) for _ in range(size)] == rng.integers(0, vector_bound, size=size).tolist()
        assert [words.below(b) for b in bounds * repeats] == [int(rng.integers(0, b)) for b in bounds * repeats]
        assert words.below(2**32) == rng.integers(0, 2**32, dtype=np.uint32)

    @settings(max_examples=30, deadline=None)
    @given(sampler_cases(), st.integers(0, 2**32 - 1), st.sampled_from((1, 3, 65)))
    def test_matches_the_reference_sampler(self, case, seed, n_samples):
        model, sigma, window, metric, action = case
        want = _reference_sample(model, sigma, window, metric, action, n_samples, seed)
        got = sample_microstates(model, sigma, window, metric, action, n_samples, seed)
        assert got.dtype == np.int64 and got.shape == want.shape and got.tolist() == want.tolist()

    def test_pinned_samples(self):
        # Z on Z/3 by negation, sigma the shift on Z/d: the samples the
        # full-recomputation walk drew, as digit strings
        Z = GroupSpec.integers()
        model = cyclic_model(3)
        action = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, -1)})
        t = Z.generator(0)
        uniform = SiteMeasure.uniform(model)
        metric = discrete_metric(model)
        cases = [
            (16, (), Fraction(1, 4), ["1212121212121212", "2121212121212121", "0000000000000000"]),
            (30, indicator_panel(model), Fraction(1, 4), []),
            (30, indicator_panel(model), Fraction(1, 2), [
                "121212121212112121212122121212",
                "000000212121121211200000000000",
                "121212121202122121212100000002",
            ]),
        ]
        for d, panel, delta, want in cases:
            sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, [Z.identity(), t, Z.inverse(t)])
            window = MapWindow(F=(t,), delta=delta, L=panel, target=uniform)
            got = sample_microstates(model, sigma, window, metric, action, n_samples=3, seed=4)
            assert got.shape == (len(want), d) and got.dtype == np.int64
            assert ["".join(map(str, row)) for row in got.tolist()] == want


# -- refusals -----------------------------------------------------------------


def _refusal_cases():
    """(label, call, error, message) for refusals that no other test reaches."""
    Z = GroupSpec.integers()
    t = Z.generator(0)
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, [Z.identity(), t, Z.inverse(t)])
    model, torus = cyclic_model(3), TorusGridModel(3, 1)
    uniform = SiteMeasure.uniform(model)
    window = MapWindow(F=(t,), delta=Fraction(1, 4), L=(), target=uniform)
    neg = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, -1)})
    torus_window = MapWindow(F=(t,), delta=Fraction(1, 4), L=(), target=SiteMeasure.uniform(torus))
    product3 = ProductMeasure(uniform, 3)
    return [
        ("negative-delta", lambda: MapWindow(F=(t,), delta=Fraction(-1, 4), L=(), target=uniform),
         ValidationError, "delta must be >= 0"),
        ("sample-on-a-torus", lambda: sample_microstates(
            torus, sigma, torus_window, torus_metric(torus), trivial_action(Z, torus), n_samples=1, seed=0),
         ValidationError, "needs a finite model"),
        ("sample-none", lambda: sample_microstates(model, sigma, window, discrete_metric(model), neg, 0, 0),
         ValidationError, "n_samples must be >= 1"),
        ("site-length", lambda: SiteMeasure(model, [1, 1], 2), ValidationError, "length must match"),
        ("site-negative", lambda: SiteMeasure(model, [2, -1, 0], 1), ValidationError, "nonnegative"),
        ("site-weights-2d", lambda: SiteMeasure(model, [[1, 1, 1]], 3), ValidationError, "1-d table"),
        ("atoms-one-weight", lambda: SampleBased(model, np.zeros((2, 4), dtype=np.int64), [1], 1),
         ValidationError, "one weight per atom"),
        ("atoms-sum", lambda: SampleBased(model, np.zeros((2, 4), dtype=np.int64), [1, 1], 3),
         ValidationError, "sum to 1"),
        ("mass-without-rng", lambda: mass(product3, lambda xs: xs[:, 0] == 0, budget=1),
         ValidationError, "needs a generator"),
        ("perm-outside-support", lambda: sigma.perm(Z.power(t, 5)), UnsupportedElementError, "outside"),
        # a PairTable was never read: on Z/3 a 2 x 2 factor gave point 2 a
        # distance to 0 of 1, and a negative, asymmetric factor gave
        # min_positive_sq 3 and rho2_sq(1, 2) = 4
        ("pair-table-off-a-pair-model", lambda: Pseudometric(
            "p", model, table_num=PairTable(discrete_metric(cyclic_model(2)).table_num)),
         ValidationError, "PairTable"),
        ("pair-table-factor", lambda: Pseudometric(
            "p", product_model(cyclic_model(2)), table_num=PairTable(np.array([[0, -1], [5, 3]]))),
         ValidationError, "2 x 2 table with a zero diagonal"),
        # a factor that is not a square integer table raised a bare
        # AttributeError for a list, and a 2 x 3 array was accepted
        ("pair-table-float", lambda: PairTable([[0.0, 1.0], [1.0, 0.0]]), ValidationError, "PairTable factor"),
        ("pair-table-flat", lambda: PairTable([0, 1]), ValidationError, "square table"),
        ("pair-table-not-square", lambda: PairTable(np.zeros((2, 3), dtype=np.int64)),
         ValidationError, "square table"),
        # a ragged nested list raised numpy's bare ValueError ("inhomogeneous
        # shape") from the integer reader
        ("pair-table-ragged", lambda: PairTable([[0, 1], [1]]), ValidationError, "a PairTable factor"),
        ("metric-table-ragged", lambda: Pseudometric("p", cyclic_model(2), table_num=[[0, 1], [1]]),
         ValidationError, "table_num"),
        ("site-weights-ragged", lambda: SiteMeasure(cyclic_model(2), [[1], [1, 0]], 2),
         ValidationError, "measure weights"),
        # a measure on 4 points raised numpy's bare ValueError ("shapes (4,)
        # and (3,) not aligned")
        ("panel-integral-another-size", lambda: PanelFunction("f", [1, 0, 0]).integral(
            SiteMeasure.uniform(cyclic_model(4))), ValidationError, "3 values"),
        # the sampler's word reader draws only bounds numpy draws from one word
        ("words-bound-zero", lambda: _Words(np.random.default_rng(0)).below(0), ValidationError, "1..2\\^32"),
        ("words-past-a-word", lambda: _Words(np.random.default_rng(0)).below(2**32 + 1), ValidationError, "1..2\\^32"),
        # a panel without a target was built, and its first mask call raised
        # AttributeError: 'NoneType' object has no attribute 'model'
        ("window-panel-without-target", lambda: MapWindow(
            F=(t,), delta=Fraction(1, 4), L=indicator_panel(model), target=None), ValidationError, "needs a target"),
        # a float scale raised AttributeError: 'float' object has no attribute
        # 'numerator' before the panel reached the window's checks
        ("float-scale-panel-on-another-model", lambda: meas_microstate_mask(
            np.zeros((1, 4), dtype=np.int64), sigma,
            MapWindow(F=(t,), delta=Fraction(1, 4), L=indicator_panel(cyclic_model(2), 0.5), target=uniform),
            discrete_metric(model), neg), ValidationError, "one value per point"),
        # the scale and delta were read by a bare Fraction(...): None raised
        # TypeError, NaN and "x" ValueError, an infinity OverflowError
        ("scale-none", lambda: indicator_panel(model, None), ValidationError, "the scale .* not None"),
        ("scale-nan", lambda: indicator_panel(model, float("nan")), ValidationError, "the scale .* not nan"),
        ("scale-inf", lambda: indicator_panel(model, float("-inf")), ValidationError, "the scale .* not -inf"),
        # a bool was read as 1
        ("scale-bool", lambda: indicator_panel(model, True), ValidationError, "the scale .* not True"),
        ("delta-bool", lambda: MapWindow(F=(t,), delta=True, L=(), target=uniform),
         ValidationError, "delta must be a finite number, not True"),
        ("delta-not-a-number", lambda: MapWindow(F=(t,), delta="x", L=(), target=uniform),
         ValidationError, "delta must be a finite number, not 'x'"),
        ("delta-nan", lambda: top_microstate_mask(np.zeros((1, 4), dtype=np.int64), sigma, (t,), float("nan"),
            discrete_metric(model), neg), ValidationError, "delta must be a finite number, not nan"),
        ("delta-inf", lambda: enumerate_top_microstates(model, sigma, (t,), float("inf"), discrete_metric(model), neg),
         ValidationError, "delta must be a finite number, not inf"),
        # numpy's "Python int too large to convert to C long" came out where
        # the numerator was stored
        ("scale-past-int64", lambda: indicator_panel(model, Fraction(2**70, 3)), OverflowError,
         "numerator 1180591620717411303424 does not fit int64"),
    ]


@pytest.mark.parametrize("case", _refusal_cases(), ids=lambda c: c[0])
def test_refusals_are_pinned(case):
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()


def test_an_indicator_panel_reads_its_scale_as_a_fraction():
    # indicator_panel(cyclic_model(3), 0.5) raised AttributeError: 'float'
    # object has no attribute 'numerator'
    want = [("ind[0]", [1, 0, 0], 2), ("ind[1]", [0, 1, 0], 2), ("ind[2]", [0, 0, 1], 2)]
    for scale in (0.5, "1/2", Fraction(1, 2)):
        assert [(f.name, f.values.tolist(), f.den) for f in indicator_panel(cyclic_model(3), scale)] == want


def test_a_pair_table_reads_a_nested_list():
    # PairTable([[0, 1], [1, 0]]) raised AttributeError: 'list' object has no
    # attribute 'shape'
    table = PairTable([[0, 1], [1, 0]])
    assert table.shape == (4, 4) and table[np.array([1, 3]), np.array([2, 0])].tolist() == [2, 2]
    pair = product_model(cyclic_model(2))
    got = Pseudometric("p", pair, table_num=table, den=2)
    want = doubled_metric(discrete_metric(cyclic_model(2)))
    i, j = np.divmod(np.arange(16), 4)
    assert got.table_num[i, j].tolist() == want.table_num[i, j].tolist()
    assert (got.largest, got.min_positive_sq, got.separates) == (2, Fraction(1, 2), True)


def test_a_negative_delta_is_refused_everywhere():
    # the masks and brute force squared delta, so -3/4 acted as 3/4: brute
    # force listed 39 rows on the 4-cycle, and [0, 0, 0, 1], at rho2^2 = 1/2,
    # passed the top mask
    Z = GroupSpec.integers()
    t = Z.generator(0)
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, [Z.identity(), t, Z.inverse(t)])
    model = cyclic_model(3)
    metric = discrete_metric(model)
    neg = AutomorphismAction(Z, model, generator_maps={"t": unit_automorphism(model, -1)})
    x = np.array([[0, 0, 0, 1]])
    assert len(enumerate_top_microstates(model, sigma, (t,), Fraction(3, 4), metric, neg)) == 39
    assert len(enumerate_top_microstates(model, sigma, (t,), Fraction(0), metric, neg)) == 3
    assert rho2_sq(metric, neg.act_candidates(t, x[0]), x[0, sigma.perm(t)]) == Fraction(1, 2)
    assert top_microstate_mask(x, sigma, (t,), Fraction(3, 4), metric, neg).tolist() == [True]
    uniform = SiteMeasure.uniform(model)
    for call in (
        lambda: enumerate_top_microstates(model, sigma, (t,), Fraction(-3, 4), metric, neg),
        lambda: enumerate_top_microstates(model, sigma, (t,), -1, metric, neg),
        lambda: top_microstate_mask(x, sigma, (t,), Fraction(-3, 4), metric, neg),
        lambda: top_microstate_mask(x[:0], sigma, (), Fraction(-1, 4), metric, neg),
        lambda: MapWindow(F=(t,), delta=Fraction(-3, 4), L=(), target=uniform),
    ):
        with pytest.raises(ValidationError, match="delta must be >= 0"):
            call()


def test_empirical_pushforward_takes_one_candidate():
    # a batch raised a bare ValueError from np.bincount
    model, torus = cyclic_model(3), TorusGridModel(3, 2)
    for x, m in (
        (np.zeros((2, 3), dtype=np.int64), model),
        (np.zeros((2, 3, 2), dtype=np.int64), torus),
        (np.zeros(0, dtype=np.int64), model),
        (np.zeros((0, 2), dtype=np.int64), torus),
        (1, model),
        ([1, 2], torus),
    ):
        with pytest.raises(ValidationError, match="one candidate of length d >= 1"):
            empirical_pushforward(x, m)
    mu = empirical_pushforward([[1, 2], [1, 2]], torus)
    assert mu.num[5] == mu.den == 1
