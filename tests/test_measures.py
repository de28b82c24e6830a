"""Site measures and candidate-space measures: marginals, supports, sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.actions import (
    FiniteGroupModel,
    IntegerGroupMatrix,
    TorusGridModel,
    cyclic_model,
    dual_model,
    product_model,
)
from soficlab.errors import ValidationError
from soficlab.groups import GroupSpec
from soficlab.measures import (
    Convolution,
    Doubled,
    MassEstimate,
    PointMass,
    ProductMeasure,
    SampleBased,
    SiteMeasure,
    UniformOnSet,
    convolve,
    doubled,
    exact_support,
    is_exact,
    marginal,
    mass,
    sample,
)


@pytest.fixture
def z3():
    return cyclic_model(3)


KLEIN = FiniteGroupModel(range(4), np.arange(4)[:, None] ^ np.arange(4)[None, :])


class TestSiteMeasure:
    def test_uniform_weights(self, z3):
        mu = SiteMeasure.uniform(z3)
        assert mu.num.tolist() == [1, 1, 1] and mu.den == 3

    def test_convolution_overflow_names_the_denominator(self):
        # denominator ~10^6: two self-convolutions fit int64, the third's
        # denominator ~10^24 does not
        model = cyclic_model(63)
        w = 500 * np.arange(1, 64) + 1
        mu = SiteMeasure(model, w, int(w.sum()))
        out = mu.convolve(mu).convolve(mu)
        assert out.num.sum() == out.den
        assert out.den * mu.den >= 2**63
        with pytest.raises(OverflowError, match="denominator"):
            out.convolve(mu)
        with pytest.raises(OverflowError, match="denominator"):
            out.tensor(mu)

    def test_mass_conservation_enforced(self, z3):
        with pytest.raises(ValidationError):
            SiteMeasure(z3, np.array([1, 1, 1]), 4)

    def test_convolve_point_masses(self, z3):
        a = SiteMeasure.point_mass(z3, 1)
        b = SiteMeasure.point_mass(z3, 2)
        assert a.convolve(b) == SiteMeasure.point_mass(z3, 0)

    def test_convolve_example(self, z3):
        # uniform on {0} * uniform on {0,1} in Z/3: weights (1/2, 1/2, 0)
        a = SiteMeasure.point_mass(z3, 0)
        b = SiteMeasure(z3, np.array([1, 1, 0]), 2)
        out = a.convolve(b)
        assert out.num.tolist() == [1, 1, 0] and out.den == 2

    def test_haar_absorbing(self, z3):
        haar = SiteMeasure.uniform(z3)
        skew = SiteMeasure(z3, np.array([2, 1, 1]), 4)
        assert skew.convolve(haar) == haar
        assert haar.convolve(skew) == haar

    def test_convolution_associative(self, z3):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dens = []
            for _ in range(3):
                w = rng.integers(0, 4, size=3)
                if w.sum() == 0:
                    w[0] = 1
                dens.append(SiteMeasure(z3, w, int(w.sum())))
            a, b, c = dens
            assert a.convolve(b).convolve(c) == a.convolve(b.convolve(c))

    def test_torus_site_convolution(self):
        t = TorusGridModel(4, 1)
        a = SiteMeasure.point_mass(t, (1,))
        b = SiteMeasure.point_mass(t, (3,))
        assert a.convolve(b) == SiteMeasure.point_mass(t, (0,))

    def test_torus_convolution_on_two_sites(self):
        t = TorusGridModel(3, 2)
        a = SiteMeasure(t, [0, 1, 0, 0, 0, 0, 0, 0, 3], 4)  # 1/4 at (0, 1), 3/4 at (2, 2)
        b = SiteMeasure.point_mass(t, (1, 2))
        # (0, 1) + (1, 2) = (1, 0), index 3; (2, 2) + (1, 2) = (0, 1), index 1
        assert a.convolve(b) == SiteMeasure(t, [0, 3, 0, 1, 0, 0, 0, 0, 0], 4)

    def test_equality_across_model_sizes(self):
        # equal denominators, different lengths: unequal, not a broadcast error
        assert SiteMeasure.uniform(cyclic_model(2)) != SiteMeasure(cyclic_model(4), [1, 1, 0, 0], 2)

    def test_tables_of_the_same_order_compare_unequal(self):
        # the point masses at 1 on Z/4 and on the Klein four-group used to
        # compare equal, at TV distance 0
        a, b = SiteMeasure.point_mass(cyclic_model(4), 1), SiteMeasure.point_mass(KLEIN, 1)
        assert a != b
        with pytest.raises(ValidationError, match="different models"):
            a.tv_distance(b)
        assert a == SiteMeasure.point_mass(cyclic_model(4), 1)

    def test_point_mass_refuses_a_batch(self, z3):
        # a batch of points used to raise a bare TypeError from int()
        torus = TorusGridModel(3, 2)
        for model, points in ((cyclic_model(4), [1, 2]), (torus, [[1, 2], [0, 0]])):
            with pytest.raises(ValidationError, match="one point"):
                SiteMeasure.point_mass(model, points)
        assert SiteMeasure.point_mass(torus, [1, 2]) == SiteMeasure(torus, np.eye(9, dtype=np.int64)[5], 1)

    def test_zero_denominator_refused(self, z3):
        with pytest.raises(ValidationError, match="positive denominator"):
            SiteMeasure(z3, [0, 0, 0], 0)

    def test_tv_distance(self, z3):
        u = SiteMeasure.uniform(z3)
        p = SiteMeasure.point_mass(z3, 0)
        assert u.tv_distance(p) == Fraction(2, 3)
        assert u.tv_distance(u) == 0


class TestMarginals:
    def test_product_marginal_exact(self, z3):
        site = SiteMeasure(z3, np.array([2, 1, 1]), 4)
        mu = ProductMeasure(site, d=5)
        for j in range(5):
            m, exact = marginal(mu, j)
            assert exact and m == site

    def test_point_mass_marginal(self, z3):
        mu = PointMass(z3, np.array([0, 2, 1]))
        m, exact = marginal(mu, 1)
        assert exact and m == SiteMeasure.point_mass(z3, 2)

    def test_uniform_on_set_marginal_kernel_pairs(self):
        # the 3 kernel pairs of the negation example: marginal = uniform on Z/3
        group = GroupSpec.cyclic(2)
        f = IntegerGroupMatrix.single(group, [(2, "e"), (-1, "t")])
        model, action = dual_model(f)
        pairs = np.array([[i, int(action.point_map(group.generator(0))[i])] for i in range(3)])
        mu = UniformOnSet(model, pairs)
        for j in (0, 1):
            m, exact = marginal(mu, j)
            assert exact and m == SiteMeasure.uniform(model)

    def test_marginal_out_of_range(self, z3):
        mu = PointMass(z3, np.array([0, 1]))
        with pytest.raises(ValidationError):
            marginal(mu, 2)

    def test_convolution_marginal_is_site_convolution(self, z3):
        a = UniformOnSet(z3, np.array([[0, 1], [1, 2]]))
        b = PointMass(z3, np.array([1, 1]))
        conv = Convolution(a, b)
        for j in (0, 1):
            ma, _ = marginal(a, j)
            mb, _ = marginal(b, j)
            mc, exact = marginal(conv, j)
            assert exact and mc == ma.convolve(mb)

    def test_doubled_marginal(self, z3):
        mu = ProductMeasure(SiteMeasure.uniform(z3), d=2)
        m, exact = marginal(Doubled(mu), 0)
        assert exact
        assert m.num.tolist() == [1] * 9 and m.den == 9


class TestSupport:
    def test_product_enumeration(self, z3):
        site = SiteMeasure(z3, np.array([1, 1, 0]), 2)
        mu = ProductMeasure(site, d=3)
        sup = exact_support(mu)
        assert sup.points.shape == (8, 3)
        assert (8 * sup.weights_num == sup.weights_den).all()

    def test_product_support_with_a_denominator_past_int64(self, z3):
        # 180^9 >= 2^63, though every atom weight fits int64
        mu = ProductMeasure(SiteMeasure(z3, np.array([61, 60, 59]), 180), d=9)
        assert exact_support(mu).weights_den == 180**9
        assert mass(mu, lambda xs: xs[:, 0] == 0).fraction == Fraction(61, 180)

    def test_budget_returns_none(self, z3):
        mu = ProductMeasure(SiteMeasure.uniform(z3), d=20)
        assert exact_support(mu, budget=10**4) is None

    def test_convolution_support_weights(self, z3):
        a = UniformOnSet(z3, np.array([[0], [1]]))
        b = UniformOnSet(z3, np.array([[0], [2]]))
        sup = exact_support(Convolution(a, b))
        got = {tuple(p): Fraction(w, sup.weights_den) for p, w in zip(sup.points.tolist(), sup.weights_num.tolist())}
        assert got == {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(1, 4)}


    def test_product_denominator_overflow_names_the_denominator(self, z3):
        big = SampleBased(z3, [[0], [1]], [1, 2**32 - 1], 2**32, exact=True)
        with pytest.raises(OverflowError, match="denominator"):
            exact_support(Convolution(big, big))
        with pytest.raises(OverflowError, match="denominator"):
            convolve(big, big)
        # 10^24 atoms' denominator: numpy used to raise a bare "Python int
        # too large to convert to C long"
        skewed = ProductMeasure(SiteMeasure(z3, [1, 10**6 - 1, 0], 10**6), 4)
        with pytest.raises(OverflowError, match=f"denominator {10**24}"):
            exact_support(skewed)
        with pytest.raises(OverflowError, match=f"denominator {10**24}"):
            mass(skewed, lambda xs: xs[:, 0] == 0)

    def test_negative_weights_refused(self, z3):
        # the mass of {x_0 = 0} under these atoms used to be exactly 2
        with pytest.raises(ValidationError, match="nonnegative"):
            SampleBased(z3, [[0], [1]], [2, -1], 1, exact=True)

    def test_empty_atom_list_refused(self, z3):
        # mass of it used to divide by zero and its marginal to have den 0
        with pytest.raises(ValidationError, match="positive denominator"):
            SampleBased(z3, np.empty((0, 2)), [], 0)
        with pytest.raises(ValidationError, match="positive denominator"):
            UniformOnSet(z3, np.empty((0, 2)))

    def test_atoms_need_candidate_shape(self, z3):
        # two 0-d atoms used to be accepted, and .d then raised IndexError
        torus = TorusGridModel(3, 2)
        for model, points in ((cyclic_model(4), [0, 1]), (z3, [[[0]], [[1]]]), (torus, [[1, 2], [0, 0]])):
            with pytest.raises(ValidationError, match="atoms of shape"):
                SampleBased(model, points, [1, 1], 2)
        assert SampleBased(torus, [[[1, 2]], [[0, 0]]], [1, 1], 2).d == 1


MODELS = [cyclic_model(5), product_model(cyclic_model(17)), TorusGridModel(4, 2)]


@st.composite
def atom_lists(draw, model, d):
    k = draw(st.integers(1, 6))
    idx = draw(st.lists(st.integers(0, model.n_points - 1), min_size=k * d, max_size=k * d))
    w = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    pts = model.points_from_indices(np.array(idx).reshape(k, d))
    return SampleBased(model, pts, w, sum(w), exact=True)


def law(points, weights) -> dict:
    """Atoms summed by candidate row in a Fraction dict: the reference merge."""
    out = {}
    for x, w in zip(points.reshape(len(points), -1).tolist(), weights):
        out[tuple(x)] = out.get(tuple(x), 0) + w
    return out


def assert_merged(sup, want: dict):
    rows = [tuple(r) for r in sup.points.reshape(len(sup.points), -1).tolist()]
    assert rows == sorted(want)  # one atom per candidate, lexicographic order
    assert [Fraction(w, sup.weights_den) for w in sup.weights_num.tolist()] == [want[r] for r in rows]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MODELS), st.integers(1, 3), st.data())
def test_merged_supports_match_fraction_sums(model, d, data):
    a, b = data.draw(atom_lists(model, d)), data.draw(atom_lists(model, d))
    ia, ib = np.divmod(np.arange(len(a.points) * len(b.points)), len(b.points))
    prods = model.candidate_mul(a.points[ia], b.points[ib])
    conv = exact_support(Convolution(a, b))
    an, bn = a.weights_num.tolist(), b.weights_num.tolist()
    assert_merged(conv, law(prods, [Fraction(an[i] * bn[j], a.weights_den * b.weights_den) for i, j in zip(ia, ib)]))
    assert conv.weights_den == a.weights_den * b.weights_den
    # a (x) a: the pair of atoms i, j is the pair point (x_i, x_j) with
    # weight w_i w_j, and the marginal is the tensor square of a's
    ii, jj = np.divmod(np.arange(len(a.points) ** 2), len(a.points))
    n, pairs = model.n_points, product_model(model)
    sq = exact_support(doubled(a))
    idx = model.point_indices(a.points)
    assert np.array_equal(sq.points, pairs.points_from_indices(idx[ii] * n + idx[jj]))
    assert sq.weights_num.tolist() == [an[i] * an[j] for i, j in zip(ii, jj)]
    assert sq.weights_den == a.weights_den**2
    site = marginal(a, d - 1)[0]
    assert marginal(doubled(a), d - 1) == (site.tensor(site), True)
    atoms = {tuple(r) for r in idx.tolist()}
    for half in np.divmod(pairs.point_indices(sample(doubled(a), 8, np.random.default_rng(d))), n):
        assert {tuple(r) for r in half.tolist()} <= atoms


class TestSampling:
    def test_reproducible(self, z3):
        mu = ProductMeasure(SiteMeasure.uniform(z3), d=6)
        a = sample(mu, 50, np.random.default_rng(9))
        b = sample(mu, 50, np.random.default_rng(9))
        assert (a == b).all()

    def test_point_mass_constant(self, z3):
        mu = PointMass(z3, np.array([1, 2]))
        out = sample(mu, 10, np.random.default_rng(0))
        assert (out == np.array([1, 2])).all()

    def test_convolution_sampling_group_law(self, z3):
        a = PointMass(z3, np.array([1, 1]))
        b = PointMass(z3, np.array([2, 1]))
        out = sample(Convolution(a, b), 4, np.random.default_rng(0))
        assert (out == np.array([0, 2])).all()

    def test_weighted_atom_frequencies(self, z3):
        mu = SampleBased(z3, [[0, 0], [1, 2], [2, 1], [2, 2]], [1, 2, 3, 6], 12, exact=True)
        k = 6000
        out = sample(mu, k, np.random.default_rng(3))
        assert (out == sample(mu, k, np.random.default_rng(3))).all()
        for atom, num in zip(mu.points, mu.weights_num.tolist()):
            w = Fraction(num, mu.weights_den)
            freq = (out == atom).all(axis=1).mean()
            assert abs(freq - float(w)) < 5 * math.sqrt(float(w * (1 - w)) / k)

    def test_doubled_draws_pair_inner_atoms(self, z3):
        inner = UniformOnSet(z3, np.array([[0, 1], [2, 2], [1, 0]]))
        out = sample(Doubled(inner), 200, np.random.default_rng(8))
        atoms = {tuple(a) for a in inner.points.tolist()}
        for half in np.divmod(out, 3):
            assert {tuple(x) for x in half.tolist()} <= atoms

    def test_monte_carlo_mass_of_a_doubled_set(self, z3):
        dU = doubled(UniformOnSet(z3, np.array([[0, 1], [2, 2], [1, 0], [1, 1]])))

        def same_first(xs):
            return xs[:, 0] // 3 == xs[:, 0] % 3

        exact = mass(dU, same_first)
        assert exact.exact and exact.fraction == Fraction(6, 16)
        n, p = 4000, float(exact.fraction)
        est = mass(dU, same_first, budget=4, n_samples=n, rng=np.random.default_rng(6))
        assert not est.exact and est.n_samples == n
        assert abs(est.value - p) < 5 * math.sqrt(p * (1 - p) / n)

    def test_torus_sampling_shape(self):
        t = TorusGridModel(8, 2)
        mu = ProductMeasure(SiteMeasure.uniform(t), d=5)
        out = sample(mu, 7, np.random.default_rng(1))
        assert out.shape == (7, 5, 2)
        assert out.max() < 8


class TestMass:
    def test_exact_mass(self, z3):
        mu = UniformOnSet(z3, np.array([[0, 0], [1, 1], [2, 2], [0, 1]]))
        est = mass(mu, lambda xs: xs[:, 0] == xs[:, 1])
        assert est.exact and est.fraction == Fraction(3, 4)

    def test_sampled_mass_close(self, z3):
        mu = ProductMeasure(SiteMeasure.uniform(z3), d=12)
        est = mass(
            mu,
            lambda xs: xs[:, 0] == 0,
            budget=10,
            n_samples=4000,
            rng=np.random.default_rng(5),
        )
        assert not est.exact
        assert abs(est.value - 1 / 3) < 5 * est.stderr

    def test_a_predicate_must_return_one_bool_per_candidate(self, z3):
        # the 0/1 integer mask used to index the weights and read mass 1
        # exactly, not 1/3; the 2-d mask raised IndexError on the exact path
        # and was averaged over the coordinates on the Monte Carlo path
        mu = ProductMeasure(SiteMeasure.uniform(z3), 2)
        predicates = (lambda xs: (xs[:, 0] == 0).astype(np.int64), lambda xs: xs == 0, lambda xs: (xs == 0).any())
        for predicate in predicates:
            for sampled in ({}, {"budget": 1, "rng": np.random.default_rng(0)}):
                with pytest.raises(ValidationError, match="one bool per candidate"):
                    mass(mu, predicate, **sampled)


class TestConvolve:
    def test_product_product(self, z3):
        a = ProductMeasure(SiteMeasure.point_mass(z3, 1), d=4)
        b = ProductMeasure(SiteMeasure.uniform(z3), d=4)
        out = convolve(a, b)
        assert isinstance(out, ProductMeasure)
        assert out.site == SiteMeasure.uniform(z3)  # Haar absorbing

    def test_identity_convolution(self, z3):
        mu = UniformOnSet(z3, np.array([[0, 1], [2, 2]]))
        e = PointMass(z3, np.zeros(2, dtype=np.int64))
        out = convolve(e, mu)
        sup = exact_support(out)
        got = {tuple(p): Fraction(w, sup.weights_den) for p, w in zip(sup.points.tolist(), sup.weights_num.tolist())}
        assert got == {(0, 1): Fraction(1, 2), (2, 2): Fraction(1, 2)}

    def test_exact_atoms_flagged(self, z3):
        a = UniformOnSet(z3, np.array([[0], [1]]))
        out = convolve(a, a)
        assert isinstance(out, SampleBased) and out.exact

    def test_lazy_above_the_budget(self, z3):
        a = UniformOnSet(z3, np.array([[0, 1], [2, 2], [1, 0]]))
        b = UniformOnSet(z3, np.array([[0, 0], [1, 2], [2, 1], [1, 1]]))
        out = convolve(a, b, budget=11)
        assert isinstance(out, Convolution) and out.left is a and out.right is b
        small = convolve(a, b, budget=12)
        assert isinstance(small, SampleBased)
        sup = exact_support(out)
        assert (sup.points == small.points).all()
        assert sup.weights_num.tolist() == small.weights_num.tolist() and sup.weights_den == small.weights_den

    def test_d_mismatch(self, z3):
        with pytest.raises(ValidationError):
            convolve(PointMass(z3, np.array([0])), PointMass(z3, np.array([0, 1])))


    def test_factors_of_different_sizes_refused(self):
        # Z/2 x Z/5 used to index out of range in the convolution or its marginal
        a, b = SiteMeasure.uniform(cyclic_model(2)), SiteMeasure.uniform(cyclic_model(5))
        with pytest.raises(ValidationError, match="different models"):
            a.convolve(b)
        for build in (Convolution, convolve):
            with pytest.raises(ValidationError, match="different models"):
                build(ProductMeasure(a, 2), ProductMeasure(b, 2))

    def test_torus_grids_of_different_resolution_refused(self):
        # 1/4 + 6/8 = 0, but the residues 1 + 6 used to be read mod 4 as 3
        a, b = PointMass(TorusGridModel(4, 1), [[1]]), PointMass(TorusGridModel(8, 1), [[6]])
        for build in (Convolution, convolve):
            with pytest.raises(ValidationError, match="different models"):
                build(a, b)
        with pytest.raises(ValidationError, match="different models"):
            SiteMeasure.point_mass(a.model, (1,)).convolve(SiteMeasure.point_mass(b.model, (6,)))
        # equal sizes, different grids: 4^2 = 16^1 points
        c, e = PointMass(TorusGridModel(4, 2), [[1, 1]]), PointMass(TorusGridModel(16, 1), [[5]])
        with pytest.raises(ValidationError, match="different models"):
            convolve(c, e)

    def test_tables_of_the_same_order_refused(self):
        # the point masses at 1 on Z/4 and on the Klein four-group used to
        # convolve to the point mass at 2 in one order and at 0 in the other
        for x, y in ((cyclic_model(4), KLEIN), (KLEIN, cyclic_model(4))):
            a, b = PointMass(x, [1]), PointMass(y, [1])
            for build in (Convolution, convolve):
                with pytest.raises(ValidationError, match="different models"):
                    build(a, b)
            with pytest.raises(ValidationError, match="different models"):
                SiteMeasure.point_mass(x, 1).convolve(SiteMeasure.point_mass(y, 1))
            with pytest.raises(ValidationError, match="different models"):
                convolve(doubled(a), doubled(b))

    def test_two_dual_models_of_one_f_convolve(self):
        f = IntegerGroupMatrix.single(GroupSpec.cyclic(2), [(3, "e"), (-1, "t")])
        (m1, _), (m2, _) = dual_model(f), dual_model(f)
        out = convolve(PointMass(m1, [1]), PointMass(m2, [2]))
        assert exact_support(out).points.tolist() == [[int(m1.candidate_mul(1, 2))]]


class TestDoubled:
    def test_product_doubles_to_product(self, z3):
        mu = ProductMeasure(SiteMeasure.uniform(z3), d=3)
        out = doubled(mu)
        assert isinstance(out, ProductMeasure)
        assert out.site.model.n_points == 9

    def test_point_mass_doubles(self, z3):
        sup = exact_support(doubled(PointMass(z3, np.array([1, 2]))))
        assert sup.points.tolist() == [[1 * 3 + 1, 2 * 3 + 2]]
        assert sup.weights_num.tolist() == [sup.weights_den]

    def test_convolution_doubles_structurally(self, z3):
        a = ProductMeasure(SiteMeasure.uniform(z3), d=2)
        b = UniformOnSet(z3, np.array([[0, 0], [1, 2]]))
        out = doubled(Convolution(a, b))
        assert isinstance(out, Convolution)
        # (nu*mu) tensor (nu*mu) = (nu tensor nu) * (mu tensor mu)
        assert isinstance(out.left, ProductMeasure)

    def test_doubled_support_pairs(self, z3):
        mu = UniformOnSet(z3, np.array([[0, 0], [1, 1]]))
        sup = exact_support(doubled(mu))
        assert sup.points.shape[0] == 4
        assert (4 * sup.weights_num == sup.weights_den).all()

    def test_exactness_flags(self, z3):
        assert is_exact(ProductMeasure(SiteMeasure.uniform(z3), 2))
        sb = SampleBased(
            model=z3,
            points=np.array([[0, 0]]),
            weights_num=np.array([1]),
            weights_den=1,
            exact=False,
        )
        assert not is_exact(sb)
        assert not is_exact(Convolution(ProductMeasure(SiteMeasure.uniform(z3), 2), sb))
        assert is_exact(PointMass(z3, [0, 1])) and is_exact(UniformOnSet(z3, [[0, 1], [1, 1]]))
        exact = ProductMeasure(SiteMeasure.uniform(z3), 2)
        assert is_exact(Doubled(exact)) and not is_exact(doubled(sb))
