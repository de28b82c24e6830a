"""Group presentations, quotients, and sofic approximations."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import s3_spec
from soficlab.actions import FiniteGroupModel, TorusGridModel, trivial_action
from soficlab.errors import UnsupportedElementError, ValidationError
from soficlab.groups import (
    GroupSpec,
    SoficApproximation,
    _validate_table,
    _word_image,
    perturb,
    quotient_sofic,
    sofic_defects,
)


@pytest.fixture
def Z():
    return GroupSpec.integers()


@pytest.fixture
def Z2_group():
    return GroupSpec.cyclic(2)


def support_range(spec, lo, hi):
    t = spec.generator(0)
    return [spec.power(t, n) for n in range(lo, hi + 1)]


def trivial_quotient(spec, quotient):
    return quotient_sofic(spec, quotient, [spec.identity()])


class TestGroupAlgebra:
    def test_identity_has_empty_word(self, Z):
        assert Z.identity().key[1] == (0,)
        assert str(Z.identity()) == "e"
        # elements of different groups never compare equal
        assert Z.generator(0) != GroupSpec.cyclic(2).generator(0)

    def test_canonical_form_idempotent(self, Z):
        assert Z.parse("t^3*t^-5") == Z.parse("t^-2")
        free = GroupSpec.free(2)
        w = free.parse("a*b^-1*b*a")  # reduces to a^2
        assert w == free.parse("a^2")
        assert w.key[1] == ((0, 2),)
        assert free.multiply(w, free.identity()) == w

    def test_free_reduction(self):
        free = GroupSpec.free(2)
        a, b = free.generator(0), free.generator(1)
        word = free.multiply(free.multiply(a, b), free.inverse(b))
        assert word == a
        assert free.multiply(a, free.inverse(a)) == free.identity()

    def test_cyclic_arithmetic(self, Z2_group):
        t = Z2_group.generator(0)
        assert Z2_group.multiply(t, t) == Z2_group.identity()
        assert Z2_group.inverse(t) == t

    def test_relations_die_in_quotients(self):
        z2 = GroupSpec.integers2()
        quotient = {"kind": "cyclic-powers", "orders": [4, 6]}
        assert trivial_quotient(z2, quotient).d == 24
        # commutator is trivially satisfied; order relations must divide
        bad = {"kind": "cyclic-powers", "orders": [4]}
        with pytest.raises(ValidationError, match="one quotient order per generator"):
            trivial_quotient(z2, bad)
        z4 = GroupSpec.cyclic(4)
        assert trivial_quotient(z4, {"kind": "cyclic-powers", "orders": [2]}).d == 2
        with pytest.raises(ValidationError, match="does not die"):
            trivial_quotient(z4, {"kind": "cyclic-powers", "orders": [3]})

    def test_abelian_elements_in_product_order(self):
        g = GroupSpec.abelian(("a", "b", "c"), (2, 3, 4))
        keys = [el.key[1] for el in g.elements()]
        assert keys == list(itertools.product(range(2), range(3), range(4)))
        assert all(type(e) is int for k in keys for e in k)

    def test_table_group_axioms(self):
        z3 = GroupSpec.from_table(
            labels=["e", "g", "g2"],
            mul_table=[[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        )
        g = z3.parse("g")
        assert z3.multiply(g, g) == z3.parse("g2")
        with pytest.raises(ValidationError):
            GroupSpec.from_table(labels=["e", "g"], mul_table=[[0, 1], [1, 1]])

    def test_table_generator_is_an_element(self):
        z3 = GroupSpec.from_table(
            labels=["e", "g", "g2"],
            mul_table=[[0, 1, 2], [1, 2, 0], [2, 0, 1]],
            generator_indices=[1],
        )
        g = z3.generator(0)
        assert g in z3.elements()
        sigma = quotient_sofic(z3, {"kind": "regular"}, list(z3.elements()))
        assert (sigma.perm(g) == [1, 2, 0]).all()

    def test_table_generator_indices_are_validated(self):
        z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        labels = ["0", "1", "2", "3"]
        # [2] reaches only {0, 2}; [7] used to be a bare IndexError, and [-1]
        # a generator whose key -1 broke g e = g
        with pytest.raises(ValidationError, match="do not generate"):
            GroupSpec.from_table(labels, z4, generator_indices=[2])
        for bad in ([7], [-1], [1, 4]):
            with pytest.raises(ValidationError, match="out of range"):
                GroupSpec.from_table(labels, z4, generator_indices=bad)
        z4_spec = GroupSpec.from_table(labels, z4, generator_indices=[2, 1])
        assert {z4_spec.power(z4_spec.generator(1), k) for k in range(4)} == set(z4_spec.elements())

    def test_table_elements_know_their_table(self):
        # Z/4 and the Klein group with the same labels used to share elements
        labels = ["0", "1", "2", "3"]
        z4_table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        klein_table = [[i ^ j for j in range(4)] for i in range(4)]
        z4 = GroupSpec.from_table(labels, z4_table)
        klein = GroupSpec.from_table(labels, klein_table)
        assert z4.generator(0) != klein.generator(0)
        assert z4.parse("3") != klein.parse("3")
        model = FiniteGroupModel(range(3), [[(i + j) % 3 for j in range(3)] for i in range(3)])
        action = trivial_action(klein, model)
        assert action.point_map(klein.parse("3")).tolist() == [0, 1, 2]
        with pytest.raises(UnsupportedElementError):
            action.point_map(z4.parse("3"))
        # equal tables still give one group, however they were passed in
        again = GroupSpec.from_table(labels, np.array(z4_table), generator_indices=[1])
        assert again.parse("3") == z4.parse("3")
        assert again.multiply(again.generator(0), z4.parse("2")) == z4.parse("3")

    def test_table_is_a_frozen_copy(self):
        # Z/3's table used to be kept as passed, writable: changing it changed
        # the group's law with no error
        arr = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int64)
        z3 = GroupSpec.from_table(["0", "1", "2"], arr)
        g = z3.generator(1)
        arr[1, 1] = 0
        assert z3.multiply(g, g) == z3.parse("2")
        for table in (z3.mul_table, z3.inv_table):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GroupSpec.abelian(["t"], [-3]),
            lambda: GroupSpec.cyclic(2.5),
            lambda: GroupSpec.abelian(["t", "t"], [0, 0]),
            lambda: GroupSpec.free(2, ["a", "a"]),
            lambda: GroupSpec.from_table(["a", "a"], [[0, 1], [1, 0]]),
            lambda: GroupSpec.from_table(["e", "g"], [[0, 1], [1, 0]], generator_indices=[1, 1]),
            lambda: GroupSpec.from_table(["e", "g"], [[0, 1], [1, 0]], generator_indices=[1.5]),
            lambda: trivial_quotient(GroupSpec.cyclic(2), {"kind": "regular", "copies": 1.5}),
            lambda: trivial_quotient(GroupSpec.integers(), {"kind": "cyclic-powers", "orders": [2.7]}),
            lambda: trivial_quotient(GroupSpec.free(1), {"kind": "random-permutations", "degree": 4.0}),
            # a generator index outside 0..k-1 gave F_2 the element g5, wrapped
            # -1 to g1 on Z^2, and raised a bare IndexError on Z and tables
            lambda: GroupSpec.free(2).generator(5),
            lambda: GroupSpec.free(2).generator(-1),
            lambda: GroupSpec.integers2().generator(-1),
            lambda: GroupSpec.integers().generator(1),
            lambda: GroupSpec.from_table(["e", "g"], [[0, 1], [1, 0]]).generator(2),
        ],
        ids=[
            "negative-modulus",
            "float-cyclic-order",
            "repeated-abelian-names",
            "repeated-free-names",
            "repeated-table-labels",
            "repeated-table-generators",
            "float-table-generator",
            "float-copies",
            "float-order",
            "float-degree",
            "free-generator-past-rank",
            "free-generator-below-0",
            "abelian-generator-below-0",
            "abelian-generator-past-rank",
            "table-generator-past-rank",
        ],
    )
    def test_bad_group_input_is_refused(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_quotient_parameters_take_numpy_integers(self):
        Z = GroupSpec.integers()
        quotient = {"kind": "cyclic-powers", "orders": [np.int64(3)], "copies": np.int32(2)}
        assert quotient_sofic(Z, quotient, [Z.identity(), Z.generator(0)]).d == 6

    def test_table_identity_is_read_from_the_table(self):
        # Z/3 with its identity at index 2 used to be refused ("identity axiom
        # fails") unless identity_index=2 was passed as well
        z3 = GroupSpec.from_table(["a", "b", "e"], [[(i + j + 1) % 3 for j in range(3)] for i in range(3)])
        assert z3.identity() == z3.parse("e") == z3.parse("a^3")
        assert z3.multiply(z3.parse("a"), z3.parse("b")) == z3.identity()
        sigma = quotient_sofic(z3, {"kind": "regular"}, z3.elements())
        assert (sigma.perm(z3.identity()) == np.arange(3)).all()
        with pytest.raises(ValidationError, match="at least one element"):
            GroupSpec.from_table([], np.zeros((0, 0), dtype=np.int64))

    def test_parse_prefers_a_table_label(self):
        z3 = GroupSpec.from_table(
            labels=["0", "1", "2"],
            mul_table=[[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        )
        assert z3.parse("1").key[1] == 1
        assert z3.parse("e") == z3.identity()
        assert GroupSpec.cyclic(3).parse("1") == GroupSpec.cyclic(3).identity()

    def test_parse_reads_a_label_with_spaces(self):
        # "(0, 2, 1)" was split on whitespace: "unknown generator '(0,'"
        S = s3_spec()
        assert S.parse("(0, 2, 1)") == S.elements()[1]
        assert S.parse(" (0, 2, 1) ") == S.elements()[1]
        assert S.parse("(0, 1, 2)") == S.identity() == S.parse("e")

    def test_parse_reads_a_raw_label_inside_a_word(self):
        # g2 is a label but not a generator name, so only the raw-label
        # branch of the token loop reads it
        z3 = GroupSpec.from_table(["e", "g", "g2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], generator_indices=[1])
        assert z3.generators == ("g",)
        g, g2 = z3.elements()[1:]
        assert z3.parse("g g2") == z3.identity() == z3.parse("g2*g")
        assert z3.parse("g2^2 g") == g2 and z3.parse("g2^-1") == g
        with pytest.raises(ValidationError, match="unknown generator 'g3'"):
            z3.parse("g g3")

    def test_large_non_associative_table_rejected(self):
        # Z/65 with one entry changed: identity row and column and an inverse
        # in every row survive, associativity does not
        n = 65
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        table[2, 3] = 6
        labels = [str(i) for i in range(n)]
        with pytest.raises(ValidationError, match="associative"):
            GroupSpec.from_table(labels=labels, mul_table=table)
        with pytest.raises(ValidationError, match="associative"):
            FiniteGroupModel(labels, table)

    def test_large_groups_accepted(self):
        # Z/5 x S_3 x Z/3 (90 elements, non-abelian) as a table
        s3 = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
        elements = [(a, p, c) for a in range(5) for p in s3 for c in range(3)]
        index = {el: i for i, el in enumerate(elements)}
        table = [
            [index[((a + b) % 5, tuple(p[k] for k in q), (c + e) % 3)] for b, q, e in elements]
            for a, p, c in elements
        ]
        model = FiniteGroupModel(range(90), table)
        assert len(model.generators) <= 7
        assert (model.mul == model.identity).sum(axis=1).tolist() == [1] * 90  # one inverse each
        GroupSpec.from_table(labels=[str(i) for i in range(90)], mul_table=table)



def _reference_validate_table(mul, e):
    """The validator with its breadth-first right closure from e, one
    np.unique per frontier step: the reference for the product closure."""
    n = mul.shape[0]
    if not 0 <= e < n or (mul < 0).any() or (mul >= n).any():
        raise ValidationError("table entries out of range")
    if not ((mul[e, :] == np.arange(n)).all() and (mul[:, e] == np.arange(n)).all()):
        raise ValidationError("identity axiom fails")
    inv = np.full(n, -1, dtype=np.int64)
    rows, cols = np.nonzero(mul == e)
    inv[rows] = cols
    if (inv < 0).any():
        raise ValidationError("some element has no inverse")
    gens, reached = [], np.zeros(n, dtype=bool)
    reached[e] = True
    for g in range(n):
        if reached[g]:
            continue
        before = int(reached.sum())
        gens.append(g)
        reached = np.zeros(n, dtype=bool)
        reached[e] = True
        frontier = np.array([e])
        while frontier.size:
            nxt = mul[frontier[:, None], np.asarray(gens)].reshape(-1)
            frontier = np.unique(nxt[~reached[nxt]])
            reached[frontier] = True
        if reached.sum() < 2 * before:
            raise ValidationError("multiplication table is not associative")
    for g in gens:
        if not (mul[mul[:, g]] == mul[:, mul[g]]).all():
            raise ValidationError("multiplication table is not associative")
    return inv, tuple(gens)


@st.composite
def group_tables(draw):
    """The table of a random permutation group of degree <= 4 times Z/m,
    with its elements in a random order."""
    k = draw(st.integers(1, 4))
    perms = {tuple(range(k))} | {tuple(draw(st.permutations(range(k)))) for _ in range(draw(st.integers(0, 2)))}
    group = set(perms)
    while True:
        more = {tuple(a[i] for i in b) for a in group for b in perms} - group
        if not more:
            break
        group |= more
    m = draw(st.integers(1, 3))
    elements = draw(st.permutations(sorted((p, c) for p in group for c in range(m))))
    index = {el: i for i, el in enumerate(elements)}
    table = np.array(
        [[index[(tuple(a[i] for i in b), (c + d) % m)] for b, d in elements] for a, c in elements],
        dtype=np.int64,
    )
    return table, index[(tuple(range(k)), 0)]


class TestTableValidator:
    @settings(max_examples=80, deadline=None)
    @given(group_tables())
    def test_same_generators_as_the_right_closure(self, case):
        table, e = case
        _, found, inv, gens = _validate_table(table, len(table))
        ref_inv, ref_gens = _reference_validate_table(table, e)
        assert found == e
        assert gens == ref_gens and inv.tolist() == ref_inv.tolist()

    @settings(max_examples=80, deadline=None)
    @given(group_tables(), st.data())
    def test_same_refusal_of_a_changed_entry(self, case, data):
        # an entry off the identity row and column changed: never a group
        table, e = case
        n = table.shape[0]
        others = [i for i in range(n) if i != e]
        if not others:
            return
        a, b = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
        table[a, b] = data.draw(st.sampled_from([v for v in range(n) if v != table[a, b]]))
        with pytest.raises(ValidationError) as got:
            _validate_table(table, len(table))
        with pytest.raises(ValidationError) as ref:
            _reference_validate_table(table, e)
        assert type(got.value) is type(ref.value)


class TestWords:
    def test_word_pairs(self, Z):
        Z2 = GroupSpec.integers2()
        assert Z2.word(Z2.parse("s*t^-2")) == ((0, 1), (1, -2))
        F2 = GroupSpec.free(2)
        assert F2.word(F2.parse("a*b^-1*a^2")) == ((0, 1), (1, -1), (0, 2))

    def test_element_of_another_group_is_refused(self, Z):
        for other in (GroupSpec.integers2().parse("s*t^2"), GroupSpec.cyclic(3).generator(0)):
            with pytest.raises(UnsupportedElementError):
                Z.word(other)

    def test_table_elements_are_not_words(self):
        z3 = GroupSpec.from_table(labels=["e", "g", "g2"], mul_table=[[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        with pytest.raises(UnsupportedElementError):
            z3.word(z3.generator(0))


def one_factor_at_a_time(word, images, invert, compose, start):
    """The reference word product: |e| compositions per letter."""
    out = start
    for gen, exp in word:
        step = images[gen] if exp >= 0 else invert(images[gen])
        for _ in range(abs(exp)):
            out = compose(out, step)
    return out


F2, Z_Z5, TORUS = GroupSpec.free(2), GroupSpec.abelian(("s", "u"), (0, 5)), TorusGridModel(5, 2)
# (images, invert, compose, start) for each kind of factor the word product
# composes; each pair of images fails to commute where the kind allows it
WORD_DOMAINS = {
    "permutations": (
        [np.array([1, 2, 0, 4, 3]), np.array([0, 2, 4, 1, 3])], np.argsort, np.take, np.array([4, 3, 2, 1, 0])
    ),
    "free": ([F2.parse("a*b"), F2.parse("b^-1")], F2.inverse, F2.multiply, F2.parse("b^2")),
    "abelian": ([Z_Z5.parse("s*u^2"), Z_Z5.parse("u")], Z_Z5.inverse, Z_Z5.multiply, Z_Z5.parse("s^-3")),
    "torus": ([np.array([[1, 1], [0, 1]]), np.array([[2, 1], [1, 1]])], TORUS.invert_map, TORUS.compose,
              np.array([[1, 0], [3, 1]])),
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(WORD_DOMAINS)),
    st.lists(st.tuples(st.integers(0, 1), st.integers(-64, 64)), max_size=4),
)
def test_word_image_equals_the_product_one_factor_at_a_time(domain, word):
    args = WORD_DOMAINS[domain]
    got, want = _word_image(word, *args), one_factor_at_a_time(word, *args)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


class TestQuotientSofic:
    def test_z8_shift(self, Z):
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [8]}, support_range(Z, -2, 2)
        )
        one = Z.generator(0)
        # sigma(1) is the 8-cycle j -> j+1 mod 8
        assert (sigma.perm(one) == (np.arange(8) + 1) % 8).all()
        report = sofic_defects(sigma, [Z.identity(), one])
        assert report.pair_defects[(one, one)] == 0
        assert report.fixed_fractions[one] == 0

    def test_z8_wraparound_fixed_fraction(self, Z):
        support = support_range(Z, -1, 1) + [Z.parse("t^8")]
        sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [8]}, support)
        # the approximation is only asymptotically free: sigma(8) = identity
        eight = Z.parse("t^8")
        report = sofic_defects(sigma, [Z.identity(), eight])
        assert report.fixed_fractions[eight] == 1

    def test_all_defects_zero_for_quotient(self, Z):
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [12]}, support_range(Z, -3, 3)
        )
        report = sofic_defects(sigma, support_range(Z, -1, 1))
        assert max(report.pair_defects.values()) == 0

    def test_support_must_contain_identity(self, Z):
        with pytest.raises(ValidationError):
            quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [8]}, [Z.generator(0)])

    def test_unknown_quotient_rejected(self, Z):
        with pytest.raises(ValidationError):
            quotient_sofic(Z, {"kind": "regular"}, [Z.identity()])

    def test_unsupported_element_named(self, Z):
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [8]}, support_range(Z, -1, 1)
        )
        with pytest.raises(UnsupportedElementError) as err:
            sofic_defects(sigma, [Z.parse("t^5"), Z.identity()])
        assert "t" in str(err.value) or "g0" in str(err.value)

    def test_abelian_element_of_another_group_refused(self, Z):
        # a Z^2 element on a Z quotient used to act as its first exponent
        Z2 = GroupSpec.integers2()
        with pytest.raises(UnsupportedElementError):
            quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [5]}, [Z.identity(), Z2.parse("s*t^2")])

    def test_table_element_of_another_table_group_refused(self):
        z3 = GroupSpec.from_table(labels=["e", "g", "g2"], mul_table=[[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        z2 = GroupSpec.from_table(labels=["1", "x"], mul_table=[[0, 1], [1, 0]])
        with pytest.raises(UnsupportedElementError):
            quotient_sofic(z3, {"kind": "regular"}, [z3.identity(), z2.generator(1)])

    def test_free_element_of_another_rank_refused(self):
        F2, F3 = GroupSpec.free(2), GroupSpec.free(3)
        with pytest.raises(UnsupportedElementError):
            quotient_sofic(F2, {"kind": "random-permutations", "degree": 4}, [F2.identity(), F3.parse("a")])

    def test_block_copies(self, Z2_group):
        sigma = quotient_sofic(
            Z2_group, {"kind": "regular", "copies": 3}, list(Z2_group.elements())
        )
        assert sigma.d == 6
        t = Z2_group.generator(0)
        # three disjoint swaps
        assert (sigma.perm(t) == np.array([1, 0, 3, 2, 5, 4])).all()
        report = sofic_defects(sigma, list(Z2_group.elements()))
        assert max(report.pair_defects.values()) == 0

    def test_trivial_abelian_group_regular_quotient(self):
        # no generators: the strides sum used to be the int 0, with no reshape
        trivial = GroupSpec.abelian([], [])
        sigma = quotient_sofic(trivial, {"kind": "regular", "copies": 2}, [trivial.identity()])
        assert sigma.d == 2
        assert sigma.perm(trivial.identity()).tolist() == [0, 1]

    def test_table_regular_rep(self):
        z3 = GroupSpec.from_table(
            labels=["e", "g", "g2"],
            mul_table=[[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        )
        sigma = quotient_sofic(z3, {"kind": "regular"}, list(z3.elements()))
        report = sofic_defects(sigma, list(z3.elements()))
        assert max(report.pair_defects.values()) == 0
        assert all(f == 0 for f in report.fixed_fractions.values())

    def test_free_group_random_model_defects(self):
        # evaluation homomorphism: pair defects are exactly zero; freeness is
        # approximate.  20 seeds, d=256, F = ball of radius 2.
        free = GroupSpec.free(2)

        def ball(radius):
            steps = ("a", "a^-1", "b", "b^-1")
            words = (" ".join(w) for k in range(radius + 1) for w in itertools.product(steps, repeat=k))
            return list(dict.fromkeys(map(free.parse, words)))

        support = ball(4)  # closed under products of ball elements
        max_fixed = []
        for seed in range(20):
            sigma = quotient_sofic(
                free,
                {"kind": "random-permutations", "degree": 256, "seed": seed},
                support,
            )
            report = sofic_defects(sigma, ball(2))
            assert max(report.pair_defects.values()) == 0  # empirical mean 0.0 <= 0.05
            max_fixed.append(float(max(report.fixed_fractions.values())))
        # random permutations are almost free: a few fixed points out of 256
        assert np.mean(max_fixed) < 0.10

    def test_identity_perm_normalization(self, Z):
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [4]}, support_range(Z, -1, 1)
        )
        assert (sigma.perm(Z.identity()) == np.arange(4)).all()

    def test_entry_composed_with_inverse_is_identity(self, Z):
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [16]}, support_range(Z, -2, 2)
        )
        for g, perm in sigma.table.items():
            inv = np.argsort(perm)
            assert (perm[inv] == np.arange(sigma.d)).all()

    def test_degree_is_read_from_the_table(self, Z):
        t = Z.generator(0)
        sigma = SoficApproximation(Z, {Z.identity(): [0, 1, 2], t: [1, 2, 0]}, "custom")
        assert sigma.d == 3
        # no permutation to read d from, permutations of two lengths, and
        # permutations of no points
        for table in ({}, {Z.identity(): [0, 1], t: [1, 2, 0]}, {t: []}):
            with pytest.raises(ValidationError):
                SoficApproximation(Z, table, "custom")

    def test_permutations_must_hold_integers(self, Z):
        # the int64 cast used to truncate [1.7, 0.2] to the permutation [1, 0]
        t = Z.generator(0)
        for perm in ([1.7, 0.2], [1.0, 0.0]):
            with pytest.raises(ValidationError, match="integers"):
                SoficApproximation(Z, {Z.identity(): [0, 1], t: perm}, "custom")
        ints = {Z.identity(): np.arange(2, dtype=np.int32), t: np.array([1, 0], dtype=np.uint8)}
        sigma = SoficApproximation(Z, ints, "custom")
        assert sigma.perm(t).dtype == np.int64 and sigma.perm(t).tolist() == [1, 0]


class TestPerturb:
    def make_sigma(self, d=64):
        Z = GroupSpec.integers()
        return Z, quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [d]}, support_range(Z, -2, 2)
        )

    def test_rate_zero_is_identity_op(self):
        _, sigma = self.make_sigma()
        out = perturb(sigma, 0.0, seed=9)
        for g in sigma.table:
            assert (out.table[g] == sigma.table[g]).all()

    def test_determinism(self):
        _, sigma = self.make_sigma()
        a = perturb(sigma, 0.3, seed=5)
        b = perturb(sigma, 0.3, seed=5)
        for g in sigma.table:
            assert (a.table[g] == b.table[g]).all()
        assert a.provenance == "perturbed"

    def test_defect_monotone_in_rate(self):
        Z, sigma = self.make_sigma(64)
        one = Z.generator(0)
        window = [Z.identity(), one]
        light = sofic_defects(perturb(sigma, 0.1, seed=3), window)
        heavy = sofic_defects(perturb(sigma, 0.5, seed=3), window)
        assert heavy.pair_defects[(one, one)] > light.pair_defects[(one, one)]

    def test_rate_out_of_range(self):
        _, sigma = self.make_sigma()
        with pytest.raises(ValidationError):
            perturb(sigma, 1.5, seed=0)


class TestDefectInvariance:
    def test_conjugation_invariance(self):
        Z = GroupSpec.integers()
        sigma = quotient_sofic(
            Z, {"kind": "cyclic-powers", "orders": [10]}, support_range(Z, -2, 2)
        )
        sigma = perturb(sigma, 0.2, seed=1)
        rng = np.random.default_rng(7)
        relabel = rng.permutation(sigma.d)
        inv = np.argsort(relabel)
        conj_table = {g: relabel[perm[inv]] for g, perm in sigma.table.items()}
        conj = SoficApproximation(group=Z, table=conj_table, provenance="custom")
        window = support_range(Z, -1, 1)
        a = sofic_defects(sigma, window)
        b = sofic_defects(conj, window)
        assert a.pair_defects == b.pair_defects
        assert a.fixed_fractions == b.fixed_fractions
