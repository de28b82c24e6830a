"""Compact group models, automorphism actions, and algebraic action models."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import s3_spec, time_cap
from soficlab import actions, intlin
from soficlab.actions import (
    AlgebraicActionModel,
    AutomorphismAction,
    FiniteGroupModel,
    HypothesisReport,
    IntegerGroupMatrix,
    TorusGridModel,
    Verdict,
    continuous_kernel,
    count_kernel_points,
    cyclic_model,
    diagonal_action,
    dual_model,
    instantiate_Xf,
    pair_candidates,
    product_model,
    regular_matrix,
    sigma_matrix,
    trivial_action,
    unit_automorphism,
    verify_hypotheses,
)
from soficlab.errors import SingularMatrixError, UnsupportedElementError, ValidationError
from soficlab.groups import GroupSpec, SoficApproximation, perturb, quotient_sofic
from soficlab.intlin import det_bareiss, det_multimodular, kernel_count_mod


@pytest.fixture
def Z2():
    return GroupSpec.cyclic(2)


@pytest.fixture
def Z():
    return GroupSpec.integers()


def two_plus_t(Z2):
    return IntegerGroupMatrix.single(Z2, [(2, "e"), (1, "t")])


def two_minus_t(Z2):
    return IntegerGroupMatrix.single(Z2, [(2, "e"), (-1, "t")])


def regular_sigma(Z2, copies=1):
    return quotient_sofic(Z2, {"kind": "regular", "copies": copies}, list(Z2.elements()))


class TestModels:
    def test_cyclic_model_ops(self):
        m = cyclic_model(3)
        assert int(m.candidate_mul(1, 2)) == 0
        assert m.identity == 0

    def test_finite_group_model_copies_its_table(self):
        # the model used to freeze the caller's own array in place
        arr = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int64)
        m = FiniteGroupModel(range(3), arr)
        arr[1, 1] = 0
        assert arr.flags.writeable
        assert int(m.candidate_mul(1, 1)) == 2
        with pytest.raises(ValueError, match="read-only"):
            m.mul[0] = 1

    def test_identity_is_read_from_the_table(self):
        # Z/3 with its identity at index 2 used to be refused ("identity axiom
        # fails") unless the index was passed as well
        table = [[(i + j + 1) % 3 for j in range(3)] for i in range(3)]
        m = FiniteGroupModel(range(3), table)
        assert m.identity == 2
        assert int(m.candidate_mul(0, 0)) == 1
        with pytest.raises(ValidationError, match="identity"):
            FiniteGroupModel(range(2), [[1, 1], [0, 0]])

    def test_torus_ops_exact(self):
        t = TorusGridModel(8, 2)
        assert t.candidate_mul(np.array([7, 3]), np.array([2, 6])).tolist() == [1, 1]
        assert t.n_points == 64
        assert t.points_from_indices(t.point_indices([5, 2])).tolist() == [5, 2]

    def test_torus_point_index_overflow_is_refused(self):
        assert int(TorusGridModel(2, 63).point_indices([1] * 63)) == 2**63 - 1
        # 2^64 points: the index of (1, 0, ..., 0) would wrap int64 to 0
        with pytest.raises(OverflowError, match="int64"):
            TorusGridModel(2, 64).point_indices([1] + [0] * 63)

    @pytest.mark.parametrize("q, sites", [(2.5, 1), (2, 1.7), (2.5, 1.7), (Fraction(3), 1)])
    def test_torus_refuses_non_integer_arguments(self, q, sites):
        # int() used to truncate them: TorusGridModel(2.5, 1.7) was q = 2 on
        # one site, named torus(q=2.5)^1.7
        with pytest.raises(ValidationError, match="must be an integer"):
            TorusGridModel(q, sites)

    def test_torus_refuses_grids_whose_map_products_wrap(self, Z):
        # at q = 2^40 + 15 the map [[q - 1, 1], [0, 1]] passed check_map and
        # sent (q - 2, 5) to 1099511627573 instead of 7: (q - 1)(q - 2) wraps
        with pytest.raises(OverflowError, match="2\\^63"):
            TorusGridModel(2**40 + 15, 2)
        # the largest q on one site: (q - 1)^2 < 2^63, so products are exact
        q = math.isqrt(2**63 - 1) + 1
        with pytest.raises(OverflowError, match="2\\^63"):
            TorusGridModel(q + 1, 1)
        t = TorusGridModel(q, 1)
        action = AutomorphismAction(Z, t, generator_maps={"t": np.array([[q - 1]])})
        g = Z.generator(0)
        assert action.act_candidates(g, np.array([q - 2])).tolist() == [2]
        assert action.point_map(Z.power(g, 2)).tolist() == [[1]]
        assert action.point_map(Z.inverse(g)).tolist() == [[q - 1]]
        # the doubled grid has two sites, past the bound
        with pytest.raises(OverflowError, match="2\\^63"):
            product_model(t)

    def test_product_model(self):
        m = cyclic_model(3)
        p = product_model(m)
        assert p.n_points == 9
        # componentwise: (1,2)*(2,2) = (0,1)
        a = 1 * 3 + 2
        b = 2 * 3 + 2
        assert int(p.candidate_mul(a, b)) == 0 * 3 + 1

    def test_pair_candidates(self):
        m = cyclic_model(3)
        x1 = np.array([0, 1, 2])
        x2 = np.array([2, 2, 0])
        z = pair_candidates(m, x1, x2)
        assert (z == np.array([2, 5, 6])).all()


class TestActions:
    def test_identity_axiom(self, Z):
        m = cyclic_model(3)
        action = AutomorphismAction(Z, m, generator_maps={"t": unit_automorphism(m, 2)})
        xs = np.arange(m.n_points)
        assert (action.act_candidates(Z.identity(), xs) == xs).all()

    def test_negation_action_value(self, Z):
        # G=Z acting on Z/3 by g.x = (-1)^g x: t.1 = 2
        m = cyclic_model(3)
        action = AutomorphismAction(Z, m, generator_maps={"t": unit_automorphism(m, -1)})
        assert int(action.act_candidates(Z.generator(0), np.asarray(1))) == 2

    def test_inverse_axiom_random(self, Z):
        m = cyclic_model(5)
        action = AutomorphismAction(Z, m, generator_maps={"t": unit_automorphism(m, 2)})
        rng = np.random.default_rng(0)
        t = Z.generator(0)
        tinv = Z.inverse(t)
        for _ in range(100):
            g_exp = int(rng.integers(-3, 4))
            g = Z.power(t, g_exp)
            ginv = Z.inverse(g)
            x = np.asarray(int(rng.integers(0, 5)))
            assert action.act_candidates(g, action.act_candidates(ginv, x)) == x

    def test_relation_enforcement(self):
        z2 = GroupSpec.cyclic(2)
        m = cyclic_model(5)
        # x -> 2x has order 4 on Z/5, so it cannot implement Z/2
        with pytest.raises(ValidationError):
            AutomorphismAction(z2, m, generator_maps={"t": unit_automorphism(m, 2)})
        # x -> -x has order 2: fine
        AutomorphismAction(z2, m, generator_maps={"t": unit_automorphism(m, -1)})

    def test_non_multiplicative_rejected(self, Z):
        m = cyclic_model(3)
        bad = np.array([0, 2, 1])  # negation: fine
        AutomorphismAction(Z, m, generator_maps={"t": bad})
        worse = np.array([1, 0, 2])  # swaps identity away
        with pytest.raises(ValidationError):
            AutomorphismAction(Z, m, generator_maps={"t": worse})

    def test_torus_matrix_action(self, Z):
        t = TorusGridModel(8, 2)
        mat = np.array([[1, 1], [0, 1]])
        action = AutomorphismAction(Z, t, generator_maps={"t": mat})
        assert action.act_candidates(Z.generator(0), np.asarray([3, 5])).tolist() == [0, 5]
        # inverse matrix works mod q
        g = Z.generator(0)
        x = np.asarray([3, 5])
        assert action.act_candidates(Z.inverse(g), action.act_candidates(g, x)).tolist() == [3, 5]

    def test_torus_diagonal_action_is_block_diagonal(self, Z):
        shear = np.array([[1, 1], [0, 1]])  # (a, b) -> (a + b, b)
        action = diagonal_action(AutomorphismAction(Z, TorusGridModel(5, 2), generator_maps={"t": shear}))
        assert (action.model.q, action.model.sites) == (5, 4)
        block = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        assert np.array_equal(action.point_map(Z.generator(0)), block)
        g = Z.power(Z.generator(0), -2)  # (a, b) -> (a - 2b, b) on each factor
        for x in [(3, 4, 1, 2), (0, 0, 4, 1), (2, 3, 2, 3)]:
            a, b, c, d = x
            assert action.act_candidates(g, np.asarray(x)).tolist() == [(a - 2 * b) % 5, b, (c - 2 * d) % 5, d]

    def test_unsupported_element(self, Z2):
        model, action = dual_model(two_plus_t(Z2))
        free = GroupSpec.free(1)
        with pytest.raises(UnsupportedElementError):
            action.point_map(free.generator(0))


    def test_element_of_another_abelian_group_refused(self, Z):
        action = AutomorphismAction(Z, cyclic_model(5), generator_maps={"t": unit_automorphism(cyclic_model(5), 2)})
        # Z/3's generator used to get the map of Z's t; a Z^2 element an IndexError
        for other in (GroupSpec.cyclic(3).generator(0), GroupSpec.integers2().parse("s*t")):
            with pytest.raises(UnsupportedElementError):
                action.point_map(other)


    def test_cached_maps_are_read_only(self, Z):
        m = cyclic_model(5)
        action = AutomorphismAction(Z, m, {"t": unit_automorphism(m, 2)})
        t2 = Z.power(Z.generator(0), 2)
        cached = action.point_map(t2)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[1] = 0
        assert action.point_map(t2).tolist() == [0, 4, 3, 2, 1]
        assert not action.generator_maps["t"].flags.writeable
        table_action = sign_action(cyclic_model(3))
        for g in S3.elements():
            assert not table_action.point_map(g).flags.writeable


S3 = s3_spec([1, 2])
Z4_TABLE = [[(i + j) % 4 for j in range(4)] for i in range(4)]
V4_TABLE = [[a ^ b for b in range(4)] for a in range(4)]


def sign_action(model):
    """S3 acting on a cyclic model by negation through the sign."""
    neg = unit_automorphism(model, -1)
    return AutomorphismAction(S3, model, {name: neg for name in S3.generators})


def klein_model():
    """Z/2 x Z/2 as a table, whose automorphism group is S3."""
    return FiniteGroupModel(range(4), V4_TABLE, name="V4")


def automorphisms(model):
    """Every automorphism of a small finite model, by brute force."""
    out = []
    for rest in itertools.permutations(range(1, model.n_points)):
        m = np.array((0,) + rest)
        if (m[model.mul] == model.mul[m[:, None], m[None, :]]).all():
            out.append(m)
    return out


# the table groups go through the Cayley-graph walk, the abelian ones through
# their listed relations
FINITE_GROUPS = [
    S3,
    s3_spec([1, 3]),  # a transposition and a 3-cycle
    GroupSpec.from_table(["0", "1", "2", "3"], Z4_TABLE, generator_indices=[1]),
    GroupSpec.from_table(["e", "a", "b", "ab"], V4_TABLE, generator_indices=[1, 2]),
    GroupSpec.cyclic(4),
    GroupSpec.abelian(("u", "v"), (2, 2)),
]
SMALL_MODELS = [cyclic_model(3), cyclic_model(4), cyclic_model(5), klein_model()]
AUTOMORPHISMS = [automorphisms(m) for m in SMALL_MODELS]


def word_oracle(group, model, maps):
    """The map of every element, composed along every word of length at most
    |G| in the generators, or None when two words equal in G act differently.

    Every element has a word shorter than |G|, so with s a generator, w s
    covers every product g s: agreement on these words is agreement of
    phi(g s) with phi(g) phi(s), which is what makes phi a homomorphism."""
    seen = {}
    for length in range(group.order() + 1):
        for word in itertools.product(range(len(maps)), repeat=length):
            g, m = group.identity(), model.identity_map()
            for i in word:
                g, m = group.multiply(g, group.generator(i)), model.compose(m, maps[i])
            if not np.array_equal(seen.setdefault(g, m), m):
                return None
    return seen


class TestTableGroupActions:
    def test_elements_of_another_group_are_refused(self):
        action = sign_action(cyclic_model(3))
        z3 = GroupSpec.from_table(["e", "g", "g2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        for other in (GroupSpec.cyclic(6).generator(0), z3.generator(1)):
            with pytest.raises(UnsupportedElementError):
                action.point_map(other)

    @pytest.mark.parametrize(
        "group", FINITE_GROUPS, ids=["S3-transpositions", "S3-mixed", "Z4", "V4", "Z4-abelian", "V4-abelian"]
    )
    def test_accepted_exactly_when_the_word_oracle_accepts(self, group):
        # every choice of generator automorphisms, on every small model
        verdicts = []
        for model, auts in zip(SMALL_MODELS, AUTOMORPHISMS):
            for maps in itertools.product(auts, repeat=len(group.generators)):
                want = word_oracle(group, model, maps)
                try:
                    action = AutomorphismAction(group, model, dict(zip(group.generators, maps)))
                except ValidationError:
                    assert want is None
                    verdicts.append(False)
                    continue
                assert want is not None
                verdicts.append(True)
                for g in group.elements():
                    assert np.array_equal(action.point_map(g), want[g])
        assert any(verdicts) and not all(verdicts)


class TestDualModel:
    def test_two_plus_t_is_z3_with_trivial_action(self, Z2):
        model, action = dual_model(two_plus_t(Z2))
        assert model.n_points == 3
        # points are the diagonal {(0,0),(1/3,1/3),(2/3,2/3)} of T^2
        labels = set(model.labels)
        assert (Fraction(1, 3), Fraction(1, 3)) in labels
        t = Z2.generator(0)
        perm = action.point_map(t)
        assert (perm == np.arange(3)).all()  # trivial dual action

    def test_two_minus_t_is_negation(self, Z2):
        model, action = dual_model(two_minus_t(Z2))
        assert model.n_points == 3
        t = Z2.generator(0)
        perm = action.point_map(t)
        # the nonzero points swap, zero is fixed: negation on Z/3
        fixed = [i for i in range(3) if perm[i] == i]
        assert fixed == [model.identity]
        # isomorphic to negation on cyclic_model(3): compare cycle structure
        neg = unit_automorphism(cyclic_model(3), -1)
        assert sorted(np.sort([i, perm[i]]).tolist() for i in range(3)) == sorted(
            np.sort([i, neg[i]]).tolist() for i in range(3)
        )

    def test_unit_matrix_gives_trivial_dual(self, Z2):
        f = IntegerGroupMatrix.single(Z2, [(1, "e")])
        model, _ = dual_model(f)
        assert model.n_points == 1

    def test_trivial_group_without_generators(self):
        # Z/3 dual to 3 on G = {e}: no generator maps, and e acts as the identity
        for spec in (GroupSpec.abelian([], []), GroupSpec.from_table(["e"], [[0]], generator_indices=[])):
            model, action = dual_model(IntegerGroupMatrix.single(spec, [(3, "e")]))
            assert model.n_points == 3 and action.generator_maps == {}
            assert action.point_map(spec.identity()).tolist() == [0, 1, 2]

    def test_digit_products_refused_past_int64(self):
        # over the trivial group R^T = [[3, 0], [M, 1]]: three points k / 3,
        # whose products R^T k reach (M + 1) * 2
        C1 = GroupSpec.cyclic(1)

        def f(M):
            return IntegerGroupMatrix.from_pairs(C1, [[[(3, "e")], []], [[(M, "e")], [(1, "e")]]])

        model, _ = dual_model(f(2**62 - 2))  # (M + 1) * 2 = 2^63 - 2
        thirds = [Fraction(a, 3) for a in range(3)]
        assert model.labels == tuple(zip(thirds, thirds))
        assert model.mul.tolist() == [[(a + b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(OverflowError, match="2\\^63"):
            dual_model(f(2**62))

    def test_kernel_points_form_subgroup(self, Z2):
        model, action = dual_model(two_minus_t(Z2))
        pts = np.arange(model.n_points)
        for a, b in itertools.product(pts, pts):
            assert 0 <= model.candidate_mul(a, b) < model.n_points
        # every point has an inverse among the points
        assert (model.candidate_mul(pts[:, None], pts[None, :]) == model.identity).any(axis=1).all()


class TestSigmaMatrix:
    def test_two_plus_t_regular(self, Z2):
        f = two_plus_t(Z2)
        sigma = regular_sigma(Z2)
        mat = sigma_matrix(f, sigma)
        assert mat.tolist() == [[2, 1], [1, 2]]

    def test_block_copies_determinant(self, Z2):
        f = two_plus_t(Z2)
        for k in (1, 2, 3):
            sigma = regular_sigma(Z2, copies=k)
            model = instantiate_Xf(f, sigma, q=6, tol=0)
            assert count_kernel_points(model, "continuous-exact") == 3**k

    def test_circulant_t_minus_2(self, Z):
        # G=Z, f=t-2, cyclic shift on Z/4: |det| = |1 - 2^4| = 15
        f = IntegerGroupMatrix.single(Z, [(1, "t"), (-2, "e")])
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [4]},
            [Z.identity(), Z.generator(0), Z.inverse(Z.generator(0))],
        )
        model = instantiate_Xf(f, sigma, q=64, tol=0)
        assert count_kernel_points(model, "continuous-exact") == 15
        # grid misses the irrational-coordinate kernel points: gcd(15, 64) = 1
        assert count_kernel_points(model, "grid-exact") == 1

    def test_unit_element_kernel(self, Z2):
        f = IntegerGroupMatrix.single(Z2, [(1, "e")])
        model = instantiate_Xf(f, regular_sigma(Z2), q=12, tol=0)
        assert count_kernel_points(model, "continuous-exact") == 1
        assert count_kernel_points(model, "grid-exact") == 1
        assert count_kernel_points(model, "grid-tolerance") == 1

    def test_grid_exact_matches_continuous_when_q_compatible(self, Z2):
        f = two_plus_t(Z2)
        model = instantiate_Xf(f, regular_sigma(Z2), q=6, tol=0)
        assert count_kernel_points(model, "grid-exact") == 3
        pts = model.enumerate_kernel()
        assert pts.shape == (3, 2, 1)
        # the three diagonal points at denominators 3 on the q=6 grid
        assert {tuple(p.reshape(-1)) for p in pts} == {(0, 0), (2, 2), (4, 4)}

    def test_kernel_invariance_under_sigma_action(self, Z2):
        f = two_plus_t(Z2)
        sigma = regular_sigma(Z2, copies=2)
        model = instantiate_Xf(f, sigma, q=6, tol=0)
        pts = model.enumerate_kernel()
        t = Z2.generator(0)
        perm = sigma.perm(t)
        for p in pts:
            moved = p[np.argsort(perm)]  # x o sigma(g)^{-1}
            assert model.is_kernel_point(moved)

    def test_singular_continuous_refused(self, Z2):
        f = IntegerGroupMatrix.single(Z2, [(1, "e"), (1, "t")])
        model = instantiate_Xf(f, regular_sigma(Z2), q=4, tol=0)
        with pytest.raises(SingularMatrixError):
            count_kernel_points(model, "continuous-exact")
        # grid modes still count (the kernel is a positive-dimensional set)
        assert count_kernel_points(model, "grid-exact") == 4

    def test_tolerance_monotone(self, Z):
        f = IntegerGroupMatrix.single(Z, [(1, "t"), (-2, "e")])
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [4]},
            [Z.identity(), Z.generator(0), Z.inverse(Z.generator(0))],
        )
        counts = [
            count_kernel_points(instantiate_Xf(f, sigma, q=16, tol=tol), "grid-tolerance")
            for tol in (0, Fraction(1, 16), Fraction(1, 8))
        ]
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[0] == 1

    def test_unsupported_element_rejected(self, Z2):
        f = two_plus_t(Z2)
        sigma_e_only = quotient_sofic(Z2, {"kind": "regular"}, [Z2.identity()])
        with pytest.raises(UnsupportedElementError):
            instantiate_Xf(f, sigma_e_only, q=4, tol=0)

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (0, 0), (2, None)])
    def test_empty_matrix_refused(self, m, n):
        # f^(sigma) of an empty f would have no rows to hold its columns: a
        # 0 x 1 f counted 1 grid-exact point instead of all q^d.  The shape is
        # the grid's, so 0 rows have no columns; n = None is a ragged grid,
        # rows of 1 and 0 cells
        Z3 = GroupSpec.cyclic(3)
        grid = [[[(1, "e")]], []] if n is None else [[[(1, "e")]] * n] * m
        with pytest.raises(ValidationError, match="1 x 1|rectangular"):
            IntegerGroupMatrix.from_pairs(Z3, grid)

    def test_q_too_small(self, Z2):
        with pytest.raises(ValidationError):
            instantiate_Xf(two_plus_t(Z2), regular_sigma(Z2), q=1, tol=0)

    def test_coefficients_must_be_integers(self, Z):
        # int() used to truncate the coefficient 2.5 to 2, so f was silently
        # another matrix; numpy integers still pass
        with pytest.raises(ValidationError, match="coefficient"):
            IntegerGroupMatrix.single(Z, [(2.5, "e")])
        with pytest.raises(ValidationError, match="coefficient"):
            IntegerGroupMatrix(Z, (({Z.identity(): 2.5},),))
        f = IntegerGroupMatrix.single(Z, [(np.int64(3), "e"), (-1, "t"), (np.int32(1), "t")])
        assert dict(f.entries[0][0]) == {Z.identity(): 3}
        assert type(f.entries[0][0][Z.identity()]) is int

    def test_direct_model_derives_and_checks_itself(self, Z):
        # built directly, the model used to skip every check and trust its
        # matrix: q = 1, tol = -1 and the identity for 3 - t over Z/4 counted
        # 1 continuous-exact point instead of 3^4 - 1 = 80
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])
        t = Z.generator(0)
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, [Z.identity(), t, Z.inverse(t)])
        with pytest.raises(TypeError):
            AlgebraicActionModel(source=f, sigma=sigma, q=2, tol=0, matrix=np.eye(4, dtype=np.int64))
        model = AlgebraicActionModel(source=f, sigma=sigma, q=2, tol=0)
        assert np.array_equal(model.matrix, sigma_matrix(f, sigma))
        assert not model.matrix.flags.writeable
        assert count_kernel_points(model, "continuous-exact") == 80
        assert (model.q, model.tol) == (2, Fraction(0))
        for q, tol in ((1, 0), (2.5, 0), (2, -1)):
            with pytest.raises(ValidationError):
                AlgebraicActionModel(source=f, sigma=sigma, q=q, tol=tol)
        e_only = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, [Z.identity()])
        with pytest.raises(UnsupportedElementError):
            AlgebraicActionModel(source=f, sigma=e_only, q=2, tol=0)


class TestContinuousExactAtScale:
    """Continuous-exact counts at d = 256 against oracles that use no exact
    linear algebra: the circulant determinant and the character sum."""

    def test_z_three_minus_t(self, Z):
        d = 256
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, list(f.support()))
        # 3I - P for the d-cycle P: det = 3^d - 1
        assert count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact") == 3**d - 1

    def test_z2_torus_matches_character_sum(self):
        n = 16
        Z2 = GroupSpec.integers2()
        f = IntegerGroupMatrix.single(Z2, [(5, "e"), (-1, "s"), (-1, "s^-1"), (-1, "t"), (-1, "t^-1")])
        sigma = quotient_sofic(Z2, {"kind": "cyclic-powers", "orders": [n, n]}, list(f.support()))
        count = count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact")
        # log|det| of a multilevel circulant is the sum of log|symbol| over the
        # characters of Z/n x Z/n
        c = 2 * np.cos(2 * np.pi * np.arange(n) / n)
        want = float(np.log(5 - c[:, None] - c[None, :]).sum())
        assert math.log(count) / n**2 == pytest.approx(want / n**2, abs=1e-9)

    def test_z_three_minus_t_at_1024(self, Z):
        d = 1024
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])
        with time_cap(2):
            sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, list(f.support()))
            count = count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact")
        assert count == 3**d - 1

    def test_z2_torus_at_n_32_against_a_float_oracle(self):
        # a float oracle: the sum of log|symbol| over the characters of
        # Z/32 x Z/32, in float64, with no exact linear algebra
        n = 32
        Z2 = GroupSpec.integers2()
        f = IntegerGroupMatrix.single(Z2, [(5, "e"), (-1, "s"), (-1, "s^-1"), (-1, "t"), (-1, "t^-1")])
        with time_cap(2):
            sigma = quotient_sofic(Z2, {"kind": "cyclic-powers", "orders": [n, n]}, list(f.support()))
            count = count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact")
        want = sum(
            math.log(abs(5 - 2 * math.cos(2 * math.pi * k / n) - 2 * math.cos(2 * math.pi * l / n)))
            for k in range(n)
            for l in range(n)
        )
        assert abs(math.log(count) - want) < 1e-6

    @pytest.mark.parametrize("rate", [0, 1 / 16], ids=["sofic", "perturbed"])
    def test_f2_at_128_needs_two_primes_after_the_lift(self, monkeypatch, rate):
        # twice the Hadamard bound of 5 - a - a^-1 - b - b^-1 at d = 128 calls
        # for 14 primes; the lifted denominator s and the dominance
        # certificate for det / s leave none
        F2 = GroupSpec.free(2)
        f = IntegerGroupMatrix.single(F2, [(5, "e"), (-1, "a"), (-1, "a^-1"), (-1, "b"), (-1, "b^-1")])
        sigma = quotient_sofic(F2, {"kind": "random-permutations", "degree": 128, "seed": 7}, f.support())
        if rate:
            sigma = perturb(sigma, rate, 7)
        primes, real = [], intlin._det_residues
        monkeypatch.setattr(intlin, "_det_residues", lambda a, ps: primes.append(len(ps)) or real(a, ps))
        count = count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact")
        assert primes == []
        # the full CRT, as when the lift falls back
        monkeypatch.setattr(intlin, "_lifted_denominator", lambda a, bound: None)
        assert count == abs(det_multimodular(sigma_matrix(f, sigma)))
        assert primes == [14]

    @pytest.mark.parametrize("rate", [0, 1 / 16], ids=["sofic", "perturbed"])
    def test_f2_at_256_needs_no_prime(self, monkeypatch, rate):
        # the Hadamard bound overshoots |det| of 5 - a - a^-1 - b - b^-1 by
        # about 0.24 bits a row, so after the lift the CRT still took primes
        # for det / s; every f^(sigma) here is strictly diagonally dominant,
        # and the certificate pins det / s without one
        F2 = GroupSpec.free(2)
        f = IntegerGroupMatrix.single(F2, [(5, "e"), (-1, "a"), (-1, "a^-1"), (-1, "b"), (-1, "b^-1")])
        sigma = quotient_sofic(F2, {"kind": "random-permutations", "degree": 256, "seed": 7}, f.support())
        if rate:
            sigma = perturb(sigma, rate, 7)
        primes, real = [], intlin._det_residues
        monkeypatch.setattr(intlin, "_det_residues", lambda a, ps: primes.append(len(ps)) or real(a, ps))
        count = count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact")
        assert primes == []
        # the full CRT, with the lift and the certificate patched off
        monkeypatch.setattr(intlin, "_lifted_denominator", lambda a, bound: None)
        monkeypatch.setattr(intlin, "_pinned_cofactor", lambda a, s: None)
        assert count == abs(det_multimodular(sigma_matrix(f, sigma)))
        assert primes == [len(intlin._primes(256, intlin._hadamard_bound(sigma_matrix(f, sigma))))]

    def test_f2_certificate_agrees_with_the_full_crt(self, monkeypatch):
        # d = 64 to 256, seeds 1 to 3, plain and perturbed sigma: every
        # certified count equals the full CRT's, with the lift and the
        # certificate patched off
        F2 = GroupSpec.free(2)
        f = IntegerGroupMatrix.single(F2, [(5, "e"), (-1, "a"), (-1, "a^-1"), (-1, "b"), (-1, "b^-1")])
        mats = []
        for d, seed, rate in itertools.product((64, 128, 256), (1, 2, 3), (0, 1 / 16)):
            sigma = quotient_sofic(F2, {"kind": "random-permutations", "degree": d, "seed": seed}, f.support())
            mats.append(sigma_matrix(f, perturb(sigma, rate, seed) if rate else sigma))
        pins, real = [], intlin._pinned_cofactor
        monkeypatch.setattr(intlin, "_pinned_cofactor", lambda a, s: pins.append(real(a, s)) or pins[-1])
        certified = [det_multimodular(m) for m in mats]
        assert len(pins) == len(mats) and None not in pins and max(pins) > 1
        monkeypatch.setattr(intlin, "_lifted_denominator", lambda a, bound: None)
        monkeypatch.setattr(intlin, "_pinned_cofactor", lambda a, s: None)
        assert certified == [det_multimodular(m) for m in mats]


def _spy(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each result."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, spy)
    return calls


def _bounds(monkeypatch) -> list:
    """Record the bound that each call of ``intlin.det_circulant`` is given."""
    bounds, real = [], intlin.det_circulant
    monkeypatch.setattr(intlin, "det_circulant", lambda *args: bounds.append(args[3]) or real(*args))
    return bounds


def _ball(spec: GroupSpec, radius: int) -> list:
    """The elements g_0^a g_1^b ... with |a| + |b| + ... <= radius."""
    k = len(spec.generators)
    out = []
    for exps in itertools.product(range(-radius, radius + 1), repeat=k):
        if sum(map(abs, exps)) <= radius:
            g = spec.identity()
            for i, e in enumerate(exps):
                g = spec.multiply(g, spec.power(spec.generator(i), e))
            out.append(g)
    return list(dict.fromkeys(out))


@st.composite
def abelian_circulants(draw):
    """(f, sigma): a 1 x 1 f with coefficients in [-4, 4] on the ball of
    radius 2, and left multiplication on up to two copies of a cyclic-powers
    quotient of Z or Z^2 of orders <= 12, or of the regular Z/4 x Z/6."""
    family = draw(st.sampled_from(["Z", "Z2", "Z4xZ6"]))
    if family == "Z4xZ6":
        spec, quotient = GroupSpec.abelian(("a", "b"), (4, 6)), {"kind": "regular"}
    else:
        spec = GroupSpec.integers() if family == "Z" else GroupSpec.integers2()
        orders = [draw(st.integers(1, 12)) for _ in spec.generators]
        quotient = {"kind": "cyclic-powers", "orders": orders}
    quotient["copies"] = draw(st.integers(1, 2))
    ball = _ball(spec, 2)
    support = draw(st.lists(st.sampled_from(ball), min_size=1, max_size=5, unique=True))
    f = IntegerGroupMatrix.single(spec, [(draw(st.integers(-4, 4)), g) for g in support])
    sigma = quotient_sofic(spec, quotient, [spec.identity(), *support])
    return f, sigma


class TestCharacterPath:
    """Continuous-exact counts on an abelian quotient are products of
    character values (``intlin.det_circulant``); every other sigma or f
    keeps the multi-modular determinant."""

    @settings(max_examples=150, deadline=None)
    @given(abelian_circulants())
    def test_agrees_with_the_multimodular_determinant(self, case):
        f, sigma = case
        model = instantiate_Xf(f, sigma, q=2, tol=0)
        want = det_multimodular(model.matrix)
        with pytest.MonkeyPatch.context() as mp:
            bounds = _bounds(mp)
            calls = _spy(mp, intlin, "det_circulant")
            if want == 0:
                with pytest.raises(SingularMatrixError):
                    count_kernel_points(model, "continuous-exact")
            else:
                assert count_kernel_points(model, "continuous-exact") == abs(want)
        # the determinant of one copy, signed, under the Hadamard bound of
        # its dense block, where colliding support elements share an entry
        assert len(calls) == 1 and calls[0] ** sigma.quotient["copies"] == want
        size = sigma.d // sigma.quotient["copies"]
        assert bounds == [intlin._hadamard_bound(model.matrix[:size, :size])]

    def test_collisions_on_z_mod_2(self, Z, monkeypatch):
        # t and t^-1 are one translation of Z/2: 3 - t - t^-1 is [[3, -2], [-2, 3]],
        # whose rows have squared norm 13, not 3^2 + 1 + 1
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t"), (-1, "t^-1")])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [2], "copies": 2}, f.support())
        bounds = _bounds(monkeypatch)
        assert count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact") == 5**2
        assert bounds == [13 + 1]

    def test_one_plus_t_on_z_mod_4_is_singular(self, Z, monkeypatch):
        f = IntegerGroupMatrix.single(Z, [(1, "e"), (1, "t")])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, f.support())
        calls = _spy(monkeypatch, intlin, "det_circulant")
        with pytest.raises(SingularMatrixError):
            count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact")
        assert calls == [0]

    def test_too_few_primes_keep_the_crt(self, Z, monkeypatch):
        monkeypatch.setattr(intlin, "_CHARACTER_LIMIT", 40)
        calls = _spy(monkeypatch, intlin, "det_circulant")
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [12]}, f.support())
        assert count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact") == 3**12 - 1
        assert calls == [None]

    def _not_certified(self, monkeypatch, f, sigma):
        """The count, which must not take the character path, against sympy."""
        calls = _spy(monkeypatch, intlin, "det_circulant")
        model = instantiate_Xf(f, sigma, q=2, tol=0)
        count = count_kernel_points(model, "continuous-exact")
        assert calls == []
        assert count == abs(sympy.Matrix(model.matrix.tolist()).det())
        return count

    def test_a_perturbed_sigma_keeps_the_crt(self, Z, monkeypatch):
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t"), (1, "t^2")])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [12]}, f.support())
        moved = perturb(sigma, 0.25, 3)
        assert moved.quotient == sigma.quotient
        assert any(not np.array_equal(moved.table[g], sigma.table[g]) for g in f.support())
        self._not_certified(monkeypatch, f, moved)

    def test_a_relabelled_table_keeps_the_crt(self, Z, monkeypatch):
        # sigma conjugated by a relabelling of the points: the same
        # determinant, but not the table that its quotient record names
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [7]}, f.support())
        relabel = np.array([3, 0, 6, 1, 5, 2, 4])
        table = {g: relabel[p][np.argsort(relabel)] for g, p in sigma.table.items()}
        hand = SoficApproximation(group=Z, table=table, provenance="by hand", quotient=sigma.quotient)
        assert not np.array_equal(hand.table[Z.generator(0)], sigma.table[Z.generator(0)])
        assert self._not_certified(monkeypatch, f, hand) == 3**7 - 1
        # sigma's own table under a record of another size, and under one
        # that does not parse: neither record certifies it
        for record in ({"kind": "cyclic-powers", "orders": [5]}, {"kind": "cyclic-powers"}):
            other = SoficApproximation(group=Z, table=sigma.table, provenance="by hand", quotient=record)
            assert self._not_certified(monkeypatch, f, other) == abs(det_multimodular(sigma_matrix(f, sigma)))

    def test_a_2x2_f_keeps_the_crt(self, Z, monkeypatch):
        f = IntegerGroupMatrix.from_pairs(Z, [[[(3, "e"), (-1, "t")], [(1, "e")]], [[], [(2, "e"), (1, "t")]]])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [5]}, f.support())
        # block triangular: (3^5 - 1) (2^5 + 1)
        assert self._not_certified(monkeypatch, f, sigma) == (3**5 - 1) * (2**5 + 1)


def _box_count(model) -> int:
    """The grid-tolerance count by listing the residue box."""
    return len(actions._solve_residue_box(model.matrix, model.q, model.residue_bound(), 10**6))


class TestGridToleranceByDuality:
    """A trivial ker A^T mod q gives the grid-tolerance count
    |B|^rows q^(cols - rows) with nothing listed; the listing stays for
    every other A."""

    @pytest.mark.parametrize(
        "family, quotient, dual",
        [
            ("Z", {"kind": "cyclic-powers", "orders": [8]}, 1),
            ("Z2", {"kind": "cyclic-powers", "orders": [2, 2]}, 9),
            ("F2", {"kind": "random-permutations", "degree": 6, "seed": 0}, 3),
            ("F2", {"kind": "random-permutations", "degree": 6, "seed": 3}, 9),
        ],
    )
    def test_ladder_windows_match_the_listing(self, family, quotient, dual, monkeypatch):
        # f of the sofic-ladder benchmark: 3 - t on Z, 5 minus the generators
        # and their inverses on Z^2 and F_2
        spec = {"Z": GroupSpec.integers(), "Z2": GroupSpec.integers2(), "F2": GroupSpec.free(2)}[family]
        terms = [(3, "e"), (-1, "t")] if family == "Z" else [(5, "e")] + [
            (-1, w) for name in spec.generators for w in (name, f"{name}^-1")
        ]
        f = IntegerGroupMatrix.single(spec, terms)
        model = instantiate_Xf(f, quotient_sofic(spec, quotient, f.support()), q=9, tol=Fraction(1, 9))
        assert kernel_count_mod(model.matrix.T, 9) == dual
        want = _box_count(model)
        calls = _spy(monkeypatch, actions, "_solve_residue_box")
        assert count_kernel_points(model, "grid-tolerance") == want
        assert len(calls) == (dual > 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(2, 9),
        st.integers(0, 4),
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2)), min_size=1, max_size=3),
    )
    def test_small_cyclic_windows_match_the_listing(self, d, q, tol_num, terms):
        Z = GroupSpec.integers()
        t = Z.generator(0)
        f = IntegerGroupMatrix.single(Z, [(c, Z.power(t, e)) for c, e in terms])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, [Z.identity(), *f.support()])
        model = instantiate_Xf(f, sigma, q=q, tol=Fraction(tol_num, q))
        assert count_kernel_points(model, "grid-tolerance") == _box_count(model)


def rank_mod_prime(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over Z/p, by Gauss-Jordan elimination."""
    a = np.array(mat, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, col])
        if len(nonzero) == 0:
            continue
        r = rank + nonzero[0]
        a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        factors = a[:, col].copy()
        factors[rank] = 0
        a = (a - np.outer(factors, a[rank])) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


class TestGridExactAtScale:
    """Grid-exact counts at sizes where a Smith form of the whole f^(sigma)
    does not finish: by elimination mod 7, against 7^(d - rank mod 7) or a
    closed form."""

    @pytest.mark.parametrize(
        "group, quotient, cap",
        [
            ("Z2", {"kind": "cyclic-powers", "orders": [4, 4]}, 2),
            ("Z2", {"kind": "cyclic-powers", "orders": [8, 8]}, 2),
            ("Z2", {"kind": "cyclic-powers", "orders": [16, 16]}, 1),
            # seeds whose f^(sigma) is singular mod 7, so the count is 7, not 1
            ("F2", {"kind": "random-permutations", "degree": 32, "seed": 2}, 2),
            ("F2", {"kind": "random-permutations", "degree": 64, "seed": 4}, 2),
            ("F2", {"kind": "random-permutations", "degree": 256, "seed": 10}, 1),
        ],
        ids=["Z2-16", "Z2-64", "Z2-256", "F2-32", "F2-64", "F2-256"],
    )
    def test_count_matches_rank_mod_7(self, group, quotient, cap):
        spec, (a, b) = (GroupSpec.integers2(), "st") if group == "Z2" else (GroupSpec.free(2), "ab")
        f = IntegerGroupMatrix.single(spec, [(5, "e"), (-1, a), (-1, f"{a}^-1"), (-1, b), (-1, f"{b}^-1")])
        sigma = quotient_sofic(spec, quotient, list(f.support()))
        model = instantiate_Xf(f, sigma, q=7, tol=0)
        with time_cap(cap):
            count = count_kernel_points(model, "grid-exact")
        assert count == 7 ** (sigma.d - rank_mod_prime(model.matrix, 7))

    @pytest.mark.parametrize("d", [768, 1024])
    def test_z_count_matches_closed_form(self, Z, d):
        # x_{j+1} = 3 x_j mod 7 around the cycle: 3 has order 6 mod 7, so
        # every x_0 closes up when 6 | d, and only x_0 = 0 otherwise
        f = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [d]}, list(f.support()))
        model = instantiate_Xf(f, sigma, q=7, tol=0)
        with time_cap(1):
            count = count_kernel_points(model, "grid-exact")
        assert count == (7 if d % 6 == 0 else 1)


class TestContinuousKernel:
    def test_matches_smith_count_small_random(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            while True:
                mat = rng.integers(-3, 4, size=(n, n))
                from soficlab.intlin import det_bareiss

                d = det_bareiss(mat.tolist())
                if d != 0 and abs(d) <= 30:
                    break
            pts = continuous_kernel(mat)
            assert len(pts) == abs(d)
            # every enumerated point is annihilated exactly
            for p in pts:
                out = [sum(Fraction(int(mat[i, j])) * p[j] for j in range(n)) % 1 for i in range(n)]
                assert all(v == 0 for v in out)


class TestVerifyHypotheses:
    def test_two_plus_t_injective(self, Z2):
        rep = verify_hypotheses(two_plus_t(Z2))
        assert rep.lambda_injective.value is True
        assert rep.lambda_dense_image.value is True
        assert rep.lambda_injective.method == "l1-invertible"

    def test_rectangular_finite_verdict_uses_the_rank(self, Z2):
        # [1, t]: rank 2 of a 2 x 4 regular matrix, onto but not injective
        rep = verify_hypotheses(IntegerGroupMatrix.from_pairs(Z2, [[[(1, "e")], [(1, "t")]]]))
        assert (rep.lambda_injective.value, rep.lambda_injective.method) == (False, "left-regular-rank")
        assert rep.lambda_dense_image.value is True

    def test_torus_four_by_four_injective(self):
        spec = GroupSpec.abelian(("s", "t"), (4, 4))
        f = IntegerGroupMatrix.single(spec, [(5, "e"), (-1, "s"), (-1, "s^-1"), (-1, "t"), (-1, "t^-1")])
        with time_cap(2):
            rep = verify_hypotheses(f)
        assert rep.lambda_injective.value is True
        assert rep.lambda_injective.method == "l1-invertible"
        assert rep.lambda_dense_image.value is True

    def test_l1_invertible_torus_is_decided_before_the_smith_form(self):
        # 5 - s - s^-1 - t - t^-1 on Z/16 x Z/16: the Smith rank of its
        # 256 x 256 left-regular matrix took 12.1 s
        spec = GroupSpec.abelian(("s", "t"), (16, 16))
        f = IntegerGroupMatrix.single(spec, [(5, "e"), (-1, "s"), (-1, "s^-1"), (-1, "t"), (-1, "t^-1")])
        with time_cap(1):
            rep = verify_hypotheses(f)
        verdict = Verdict(True, "l1-invertible")
        assert rep == HypothesisReport(lambda_injective=verdict, lambda_dense_image=verdict)

    def test_a_torus_laplacian_takes_the_left_regular_determinant(self):
        # |f(e)| equals the rest, so the l1 rule decides nothing; f kills the
        # constants, so lambda(f) is singular
        spec = GroupSpec.abelian(("s", "t"), (4, 4))
        f = IntegerGroupMatrix.single(spec, [(4, "e"), (-1, "s"), (-1, "s^-1"), (-1, "t"), (-1, "t^-1")])
        verdict = Verdict(False, "left-regular-determinant")
        assert verify_hypotheses(f) == HypothesisReport(lambda_injective=verdict, lambda_dense_image=verdict)

    def test_one_plus_t_singular(self, Z2):
        f = IntegerGroupMatrix.single(Z2, [(1, "e"), (1, "t")])
        rep = verify_hypotheses(f)
        assert rep.lambda_injective.value is False

    def test_unit_injective(self, Z2):
        f = IntegerGroupMatrix.single(Z2, [(1, "e")])
        assert verify_hypotheses(f).lambda_injective.value is True

    def test_integers_symbol(self, Z):
        f = IntegerGroupMatrix.single(Z, [(1, "t"), (-2, "e")])
        rep = verify_hypotheses(f)
        assert rep.lambda_injective.value is True
        assert rep.lambda_dense_image.value is True
        zero = IntegerGroupMatrix.single(Z, [])
        rep0 = verify_hypotheses(zero)
        assert rep0.lambda_injective.value is False
        # det [[1, t], [t, t^2]] = 0
        singular = IntegerGroupMatrix.from_pairs(Z, [[[(1, "e")], [(1, "t")]], [[(1, "t")], [(1, "t^2")]]])
        assert verify_hypotheses(singular).lambda_injective.value is False
        # F_1 is Z by its presentation: one generator, no relations
        for g in (f, zero, singular):
            assert verify_hypotheses(on_free_rank_one(g)) == verify_hypotheses(g)

    def test_far_apart_exponents_are_decided_at_one_point(self, Z):
        # det [[1, t^800], [t^800, t^1600]] = 0 took 60 s as 3,201 determinants
        # with entries t^1600, one per evaluation point
        f = IntegerGroupMatrix.from_pairs(Z, [[[(1, "e")], [(1, "t^800")]], [[(1, "t^800")], [(1, "t^1600")]]])
        for g in (f, on_free_rank_one(f)):
            with time_cap(2):
                rep = verify_hypotheses(g)
            assert rep.lambda_injective == Verdict(False, "fourier-symbol-determinant")
            assert rep.lambda_dense_image == Verdict(False, "fourier-symbol-determinant+rank-nullity")

    def test_unknown_class(self):
        free = GroupSpec.free(2)
        f = IntegerGroupMatrix.single(free, [(1, "e"), (1, "a")])
        rep = verify_hypotheses(f)
        assert rep.lambda_injective.value is None
        assert rep.lambda_injective.method == "unknown-group-class"

    def test_l1_invertible_on_free_groups(self):
        F2 = GroupSpec.free(2)
        f = IntegerGroupMatrix.single(F2, [(5, "e"), (-1, "a"), (-1, "a^-1"), (-1, "b"), (-1, "b^-1")])
        verdict = Verdict(True, "l1-invertible")
        assert verify_hypotheses(f) == HypothesisReport(lambda_injective=verdict, lambda_dense_image=verdict)
        # any sign on the identity, on Z^2 too
        g = IntegerGroupMatrix.single(GroupSpec.integers2(), [(-7, "e"), (3, "s"), (-3, "t^2")])
        assert verify_hypotheses(g).lambda_dense_image == verdict

    def test_equality_is_not_l1_invertible(self):
        # |f(e)| = sum of the others decides nothing: 1 + a, and 2 - a - b
        F2 = GroupSpec.free(2)
        for terms in ([(1, "e"), (1, "a")], [(2, "e"), (-1, "a"), (-1, "b")]):
            rep = verify_hypotheses(IntegerGroupMatrix.single(F2, terms))
            assert rep.lambda_injective == rep.lambda_dense_image == Verdict(None, "unknown-group-class")

    def test_a_two_by_two_matrix_over_f2_stays_unknown(self):
        F2 = GroupSpec.free(2)
        f = IntegerGroupMatrix.from_pairs(F2, [[[(5, "e")], [(1, "a")]], [[(1, "b")], [(5, "e")]]])
        rep = verify_hypotheses(f)
        assert rep.lambda_injective == rep.lambda_dense_image == Verdict(None, "unknown-group-class")

    def test_injectivity_matches_finite_kernel_cross_check(self, Z2):
        # for finite G: injective <=> continuous kernel of the regular model finite
        for f in (two_plus_t(Z2), two_minus_t(Z2)):
            rep = verify_hypotheses(f)
            model = instantiate_Xf(f, regular_sigma(Z2), q=6, tol=0)
            finite = True
            try:
                count_kernel_points(model, "continuous-exact")
            except SingularMatrixError:
                finite = False
            assert rep.lambda_injective.value == finite
        g = IntegerGroupMatrix.single(Z2, [(1, "e"), (1, "t")])
        assert verify_hypotheses(g).lambda_injective.value is False


def symbol_det_poly(f: IntegerGroupMatrix) -> dict[int, int]:
    """Determinant of the Fourier-symbol matrix for G = Z, as a Laurent
    polynomial (exponent -> coefficient), by cofactor expansion."""

    def poly_mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    def poly_add(a, b, sign):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + sign * c
        return {e: c for e, c in out.items() if c}

    def cell_poly(l, j):
        return {g.key[1][0]: c for g, c in f.entries[l][j].items()}

    def det(rows, cols):
        if len(rows) == 1:
            return cell_poly(rows[0], cols[0])
        total = {}
        for k, col in enumerate(cols):
            term = poly_mul(cell_poly(rows[0], col), det(rows[1:], cols[:k] + cols[k + 1 :]))
            total = poly_add(total, term, 1 if k % 2 == 0 else -1)
        return total

    return det(list(range(f.n)), list(range(f.n)))


@st.composite
def z_symbols(draw):
    """A square matrix over Z(Z) with n <= 3; half of them have their last row
    a monomial multiple of the first (or zero when n = 1), so are singular."""
    Z = GroupSpec.integers()
    n = draw(st.integers(1, 3))
    poly = st.dictionaries(st.integers(-40, 40), st.integers(-2, 2), max_size=3)
    cells = [[draw(poly) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        shift, c = draw(st.integers(-1, 1)), draw(st.integers(-2, 2))
        cells[-1] = [{e + shift: c * v for e, v in cell.items()} for cell in (cells[0] if n > 1 else [{}])]
    t = Z.generator(0)
    return IntegerGroupMatrix.from_pairs(
        Z, [[[(v, Z.power(t, e)) for e, v in cell.items()] for cell in row] for row in cells]
    )


def on_free_rank_one(f: IntegerGroupMatrix) -> IntegerGroupMatrix:
    """f over Z moved to F_1, t^k to a^k."""
    F1 = GroupSpec.free(1)
    a = F1.generator(0)
    return IntegerGroupMatrix.from_pairs(
        F1, [[[(c, F1.power(a, g.key[1][0])) for g, c in cell.items()] for cell in row] for row in f.entries]
    )


@settings(max_examples=300, deadline=None)
@given(z_symbols())
def test_symbol_verdict_matches_cofactor_expansion(f):
    want = bool(symbol_det_poly(f))
    rep = verify_hypotheses(f)
    assert (rep.lambda_injective.value, rep.lambda_injective.method) == (want, "fourier-symbol-determinant")
    assert (rep.lambda_dense_image.value, rep.lambda_dense_image.method) == (
        want, "fourier-symbol-determinant+rank-nullity"
    )
    assert verify_hypotheses(on_free_rank_one(f)) == rep


FINITE_VERDICT_GROUPS = [GroupSpec.cyclic(k) for k in range(2, 7)] + [
    GroupSpec.abelian(("s", "t"), (2, 3)),
    s3_spec(),
]


@st.composite
def finite_symbols(draw):
    """An m x n matrix over Z(G), m, n <= 2, for G one of Z/2..Z/6, Z/2 x Z/3
    and S3."""
    G = draw(st.sampled_from(FINITE_VERDICT_GROUPS))
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    poly = st.dictionaries(st.sampled_from(G.elements()), st.integers(-2, 2), max_size=3)
    return IntegerGroupMatrix(G, tuple(tuple(draw(poly) for _ in range(n)) for _ in range(m)))


@settings(max_examples=200, deadline=None)
@given(finite_symbols())
def test_finite_verdict_matches_sympy_rank(f):
    order = f.group.order()
    rank = sympy.Matrix(regular_matrix(f).tolist()).rank()
    terms = f.entries[0][0]
    if (f.m, f.n) == (1, 1) and 2 * abs(terms.get(f.group.identity(), 0)) > sum(map(abs, terms.values())):
        method = "l1-invertible"
    else:
        method = "left-regular-determinant" if f.m == f.n else "left-regular-rank"
    assert verify_hypotheses(f) == HypothesisReport(
        lambda_injective=Verdict(rank == f.n * order, method),
        lambda_dense_image=Verdict(rank == f.m * order, method),
    )


class TestRegularMatrix:
    def test_two_plus_t(self, Z2):
        mat = regular_matrix(two_plus_t(Z2))
        assert mat.tolist() == [[2, 1], [1, 2]]

    def test_rectangular_shape(self, Z2):
        f = IntegerGroupMatrix.from_pairs(Z2, [[[(1, "e")], [(1, "t")]]])
        mat = regular_matrix(f)
        assert mat.shape == (2, 4)

    def test_non_abelian_entries_without_the_identity_in_support(self):
        # entry (g, g') is f(g g'^-1)
        S3 = s3_spec()
        els = S3.elements()
        coeff = {els[1]: 1, els[3]: 2}
        mat = regular_matrix(IntegerGroupMatrix.single(S3, list(zip(coeff.values(), coeff))))
        assert mat.tolist() == [[coeff.get(S3.multiply(g, S3.inverse(h)), 0) for h in els] for g in els]


class TestWordMaps:
    def test_free_word_map_is_the_composition_of_its_letters(self):
        F2 = GroupSpec.free(2)
        model = cyclic_model(5)
        a, b = unit_automorphism(model, 2), unit_automorphism(model, 3)
        action = AutomorphismAction(F2, model, generator_maps={"a": a, "b": b})
        b_inv = np.argsort(b)
        assert np.array_equal(action.point_map(F2.parse("a*b^-1*a^2")), a[b_inv[a[a]]])

    def test_free_word_map_composes_in_word_order(self):
        # non-commuting shears on the 5-grid of the 2-torus
        F2 = GroupSpec.free(2)
        model = TorusGridModel(5, 2)
        A = np.array([[1, 1], [0, 1]])
        B = np.array([[1, 0], [1, 1]])
        B_inv = np.array([[1, 0], [4, 1]])
        action = AutomorphismAction(F2, model, generator_maps={"a": A, "b": B})
        want = A @ B_inv @ A @ A % 5
        assert not np.array_equal(want, A @ A @ A @ B_inv % 5)
        assert np.array_equal(action.point_map(F2.parse("a*b^-1*a^2")), want)

    def test_large_powers_are_taken_by_squaring(self):
        # one factor at a time, parsing t^1000000 took seconds
        Z, z7 = GroupSpec.integers(), cyclic_model(7)
        action = AutomorphismAction(Z, z7, {"t": unit_automorphism(z7, 3)})
        with time_cap(0.5):
            m = action.point_map(Z.parse("t^1000000"))
        assert np.array_equal(m, unit_automorphism(z7, pow(3, 10**6, 7)))

    def test_abelian_word_map_with_mixed_sign_exponents(self):
        Z2 = GroupSpec.integers2()
        model = cyclic_model(7)
        s, t = unit_automorphism(model, 2), unit_automorphism(model, 3)
        action = AutomorphismAction(Z2, model, generator_maps=dict(zip(Z2.generators, (s, t))))
        g = Z2.multiply(Z2.power(Z2.generator(0), 2), Z2.power(Z2.generator(1), -3))
        # x -> 2^2 * (3^-1)^3 * x = 4 * 5^3 * x = 4 * 6 * x mod 7
        assert np.array_equal(action.point_map(g), (24 * np.arange(7)) % 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(1, 3), st.data())
def test_torus_inverse_map_mod_q(q, sites, data):
    entries = st.lists(st.integers(-6, 6), min_size=sites * sites, max_size=sites * sites)
    m = np.array(data.draw(entries)).reshape(sites, sites)
    assume(np.gcd(det_bareiss(m.tolist()) % q, q) == 1)
    Z = GroupSpec.integers()
    action = AutomorphismAction(Z, TorusGridModel(q, sites), generator_maps={"t": m})
    inv = action.point_map(Z.inverse(Z.generator(0)))
    assert ((inv >= 0) & (inv < q)).all()
    assert np.array_equal(m @ inv % q, np.eye(sites, dtype=np.int64))
    assert np.array_equal(inv @ m % q, np.eye(sites, dtype=np.int64))


def _refusal_cases():
    """(label, call, error, message) for refusals that no other test reaches."""
    Z, Z2d, F2, S3 = GroupSpec.integers(), GroupSpec.integers2(), GroupSpec.free(2), s3_spec()
    e = Z.identity()
    one = IntegerGroupMatrix.single(Z, [(3, "e"), (-1, "t")])
    wide = IntegerGroupMatrix.from_pairs(Z, [[[(3, "e")], [(1, "t")]]])
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, wide.support())
    torus2, torus6, torus5 = TorusGridModel(7, 2), TorusGridModel(6, 2), TorusGridModel(5, 2)
    z7 = cyclic_model(7)
    return [
        ("copies-0", lambda: quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [3], "copies": 0}, [e]),
         ValidationError, "copies must be >= 1"),
        ("abelian-kind", lambda: quotient_sofic(Z, {"kind": "random-permutations", "degree": 3}, [e]),
         ValidationError, "abelian groups offer cyclic-powers"),
        ("table-kind", lambda: quotient_sofic(S3, {"kind": "cyclic-powers", "orders": [3]}, [S3.identity()]),
         ValidationError, "table groups offer regular"),
        ("free-kind", lambda: quotient_sofic(F2, {"kind": "regular"}, [F2.identity()]),
         ValidationError, "free groups offer random-permutations"),
        ("order-0", lambda: quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [0]}, [e]),
         ValidationError, "quotient orders must be >= 1"),
        ("degree-0", lambda: quotient_sofic(F2, {"kind": "random-permutations", "degree": 0}, [F2.identity()]),
         ValidationError, "degree must be >= 1"),
        ("unknown-mode", lambda: count_kernel_points(instantiate_Xf(one, sigma, q=5, tol=0), "grid-exactly"),
         ValidationError, "unknown counting mode"),
        ("continuous-1x2", lambda: count_kernel_points(instantiate_Xf(wide, sigma, q=5, tol=0), "continuous-exact"),
         ValidationError, "square"),
        ("dual-of-Z", lambda: dual_model(one), ValidationError, "finite group"),
        ("map-shape", lambda: torus2.check_map(np.eye(3, dtype=np.int64)), ValidationError, "sites x sites"),
        ("map-mod-6", lambda: torus6.check_map(np.array([[2, 0], [0, 1]])), ValidationError, "not invertible mod q"),
        ("map-mod-5", lambda: torus5.check_map(np.array([[1, 1], [1, 1]])), ValidationError, "not invertible mod q"),
        ("non-commuting", lambda: AutomorphismAction(
            Z2d, torus5, {"s": np.array([[1, 1], [0, 1]]), "t": np.array([[1, 0], [1, 1]])}),
         ValidationError, r"break the relation g0\*g1 = g1\*g0"),
        # x -> 3x has order 6 on Z/7, so neither t^3 nor u^2 acts as the identity
        ("cube-not-identity", lambda: AutomorphismAction(GroupSpec.cyclic(3), z7, {"t": unit_automorphism(z7, 3)}),
         ValidationError, r"break the relation g0\^3 = e"),
        ("square-not-identity", lambda: AutomorphismAction(
            GroupSpec.abelian(("s", "u"), (0, 2)), z7, {"s": unit_automorphism(z7, 2), "u": unit_automorphism(z7, 3)}),
         ValidationError, r"break the relation g1\^2 = e"),
        ("missing-generator-map", lambda: AutomorphismAction(Z2d, torus5, {"s": np.eye(2, dtype=np.int64)}),
         ValidationError, "missing generator map for 't'"),
        ("map-not-a-bijection", lambda: cyclic_model(3).check_map(np.array([0, 0, 1])),
         ValidationError, "not a bijection"),
        ("unit-not-coprime", lambda: unit_automorphism(cyclic_model(6), 4), ValidationError, "coprime"),
        ("model-shape", lambda: FiniteGroupModel(["a", "b", "c"], [[0, 1], [1, 0]]),
         ValidationError, "shape mismatch"),
        ("table-entry-past-n", lambda: GroupSpec.from_table(["e", "g"], [[0, 1], [1, 2]]),
         ValidationError, "table entries out of range"),
        ("abelian-names-not-moduli", lambda: GroupSpec.abelian(["s", "t"], [0]),
         ValidationError, "one modulus per generator"),
        ("free-names-not-rank", lambda: GroupSpec.free(2, ["a"]), ValidationError, "name count must equal rank"),
        ("parse-unknown-generator", lambda: Z.parse("t*u"), ValidationError, "unknown generator 'u'"),
        ("parse-exponent-name", lambda: Z.parse("t^x"), ValidationError, r"malformed exponent in 't\^x'"),
        ("parse-exponent-float", lambda: Z.parse("t*t^1.5"), ValidationError, r"malformed exponent in 't\^1.5'"),
        ("parse-exponent-empty", lambda: Z.parse("t^"), ValidationError, r"malformed exponent in 't\^'"),
        ("unknown-group-kind", lambda: GroupSpec("nilpotent", ("x",)), ValidationError,
         "unknown group kind 'nilpotent'"),
        ("elements-of-Z", lambda: Z.elements(), ValidationError, "needs a finite group"),
        ("sigma-e-moves", lambda: SoficApproximation(Z, {e: [1, 0]}, "custom"),
         ValidationError, r"sigma\(e\) must be the identity"),
        ("perm-past-d", lambda: SoficApproximation(Z, {e: [0, 1], Z.generator(0): [0, 2]}, "custom"),
         ValidationError, "not a permutation of 0..1"),
    ]


@pytest.mark.parametrize("case", _refusal_cases(), ids=lambda c: c[0])
def test_refusals_are_pinned(case):
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()
