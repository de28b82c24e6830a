"""The lazy doubled model, doubled metric and diagonal action, and the
vectorized dual-model tables, against materialized reference constructions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import s3_spec
from soficlab.actions import (
    AutomorphismAction,
    IntegerGroupMatrix,
    PairModel,
    continuous_kernel,
    cyclic_model,
    diagonal_action,
    dual_model,
    pair_candidates,
    product_model,
    unit_automorphism,
)
from soficlab.errors import SingularMatrixError, ValidationError
from soficlab.groups import GroupSpec, quotient_sofic
from soficlab.microstates import (
    Pseudometric,
    discrete_metric,
    doubled_metric,
    rho2_sq,
    top_microstate_mask,
)

PROPERTY = settings(max_examples=40, deadline=None)


def small_dual(order, c, sign):
    """The dual model of c + sign*t over Z/order, with its action."""
    group = GroupSpec.cyclic(order)
    return dual_model(IntegerGroupMatrix.single(group, [(c, "e"), (sign, "t")]))


def cyclic_with_units(n):
    """Z/n under Z/2 acting by negation."""
    group = GroupSpec.cyclic(2)
    model = cyclic_model(n)
    return model, AutomorphismAction(group, model, generator_maps={"t": unit_automorphism(model, -1)})


# every finite model here has n <= 9 points
SMALL_MODELS = [cyclic_with_units(n) for n in range(1, 10)] + [
    small_dual(1, 5, -1),  # Z/4
    small_dual(2, 2, -1),  # 3 points
    small_dual(2, 3, -1),  # 8 points
    small_dual(3, 2, -1),  # 7 points
    small_dual(2, 2, 1),  # 3 points, trivial action
]
models = st.sampled_from(SMALL_MODELS)


# -- materialized references (the n^2 x n^2 constructions the lazy ones replace)


def materialized_product(model):
    n = model.n_points
    left, right = np.divmod(np.arange(n * n), n)
    return model.mul[left[:, None], left[None, :]] * n + model.mul[right[:, None], right[None, :]]


def materialized_doubled_table(t):
    n = t.shape[0]
    return (
        t[:, None, :, None].repeat(n, 1).repeat(n, 3) + t[None, :, None, :].repeat(n, 0).repeat(n, 2)
    ).reshape(n * n, n * n)


def fraction_loop_dual_tables(f):
    """The dual-model labels, table, identity and element maps, built by
    summing and permuting Fraction tuples one pair at a time."""
    spec = f.group
    els = list(spec.elements())
    pos = {g: i for i, g in enumerate(els)}
    N = len(els)
    rt = np.zeros((N * f.m, N * f.n), dtype=np.int64)
    for l in range(f.m):
        for j in range(f.n):
            for w, c in f.entries[l][j].items():
                for g in els:
                    rt[pos[g] * f.m + l, pos[spec.multiply(g, w)] * f.n + j] += c
    points = continuous_kernel(rt)
    index = {p: i for i, p in enumerate(points)}
    K = len(points)
    mul = np.zeros((K, K), dtype=np.int64)
    for a in range(K):
        for b in range(K):
            mul[a, b] = index[tuple((x + y) % 1 for x, y in zip(points[a], points[b]))]
    ident = index[tuple(Fraction(0) for _ in range(N * f.n))]
    maps = {}
    for g in els:
        coord_perm = [pos[spec.multiply(spec.inverse(g), h)] for h in els]
        maps[g] = np.array(
            [
                index[tuple(p[coord_perm[hi] * f.n + j] for hi in range(N) for j in range(f.n))]
                for p in points
            ]
        )
    return points, mul, ident, maps


# -- pair model ---------------------------------------------------------------------


@PROPERTY
@given(models, st.data())
def test_pair_model_matches_componentwise_formulas(model_action, data):
    model, _ = model_action
    pair = product_model(model)
    n = model.n_points
    mul = materialized_product(model)
    assert isinstance(pair, PairModel) and pair.n_points == n * n
    assert pair.identity == model.identity * n + model.identity
    idx = st.integers(0, n * n - 1)
    a = np.array(data.draw(st.lists(idx, min_size=1, max_size=12)))
    b = np.array(data.draw(st.lists(idx, min_size=len(a), max_size=len(a))))
    assert (pair.candidate_mul(a, b) == mul[a, b]).all()
    assert pair.candidate_mul(int(a[0]), int(b[0])) == mul[a[0], b[0]]
    # the pair encoding is the one pair_candidates builds
    assert (pair_candidates(model, a // n, a % n) == a).all()


def test_pair_model_generators_generate():
    model, _ = small_dual(2, 3, -1)
    pair = product_model(model)
    reached = {pair.identity}
    frontier = [pair.identity]
    while frontier:
        frontier = [int(pair.candidate_mul(x, s)) for x in frontier for s in pair.generators]
        frontier = [x for x in dict.fromkeys(frontier) if x not in reached]
        reached.update(frontier)
    assert len(reached) == pair.n_points


# -- doubled metric -------------------------------------------------------------------


@PROPERTY
@given(models, st.data())
def test_doubled_metric_matches_averaged_factor_distances(model_action, data):
    model, _ = model_action
    n = model.n_points
    # a pseudometric table: symmetric, with a zero diagonal
    pairs = n * (n - 1) // 2
    table = np.zeros((n, n), dtype=np.int64)
    table[np.triu_indices(n, 1)] = data.draw(st.lists(st.integers(0, 50), min_size=pairs, max_size=pairs))
    table += table.T
    den = data.draw(st.integers(1, 7))
    metric = Pseudometric(name="t", model=model, table_num=table, den=den)
    for base in (metric, discrete_metric(model)):
        dm = doubled_metric(base)
        ref = materialized_doubled_table(base.table_num)
        assert dm.den == 2 * base.den
        assert dm.table_num.shape == ref.shape == (n * n, n * n)
        assert dm.table_num.nbytes == base.table_num.nbytes
        i = np.array(data.draw(st.lists(st.integers(0, n * n - 1), min_size=1, max_size=10)))
        j = np.array(data.draw(st.lists(st.integers(0, n * n - 1), min_size=len(i), max_size=len(i))))
        assert (dm.table_num[i, j] == ref[i, j]).all()
        assert (dm.table_num[i[:, None], j[None, :]] == ref[i[:, None], j[None, :]]).all()
        a, b = int(i[0]), int(j[0])
        want = (
            Fraction(int(base.table_num[a // n, b // n]), base.den)
            + Fraction(int(base.table_num[a % n, b % n]), base.den)
        ) / 2
        assert rho2_sq(dm, [a], [b]) == want
        # the least positive distance, the largest and whether distinct
        # points are apart, read from the factor table, and from a pair
        # table's pair table
        for doubled, full in ((dm, ref), (doubled_metric(dm), materialized_doubled_table(ref) if n <= 3 else None)):
            if full is not None:
                positive = full[full > 0]
                want = Fraction(int(positive.min()), doubled.den) if positive.size else None
                assert doubled.min_positive_sq == want
                assert doubled.largest == int(full.max())
                assert doubled.separates == (positive.size == full.size - len(full))


# -- diagonal action ------------------------------------------------------------------


@PROPERTY
@given(models)
def test_diagonal_action_lifts_factor_maps(model_action):
    model, action = model_action
    n = model.n_points
    diag = diagonal_action(action)
    assert isinstance(diag.model, PairModel)
    i = np.arange(n * n)
    for g in action.group.elements():
        m = action.point_map(g)
        assert (diag.point_map(g) == m[i // n] * n + m[i % n]).all()


def test_pair_model_automorphism_check_is_complete():
    # the pair model's generator check agrees with the full n^4 check
    model = cyclic_model(5)
    pair = product_model(model)
    mul = materialized_product(model)
    x, y = np.divmod(np.arange(25), 5)
    psi = np.array([0, 1, 3, 2, 4])  # a bijection of Z/5 that is no automorphism
    maps = [
        y * 5 + x,  # swap
        (2 * x % 5) * 5 + (x + 3 * y) % 5,
        x * 5 + psi[y],  # breaks multiplicativity in the second factor only
        psi[x] * 5 + y,
        ((x + y) % 5) * 5 + psi[y],
    ]
    Z = GroupSpec.integers()
    for m in maps:
        if (m[mul] == mul[m[:, None], m[None, :]]).all():
            AutomorphismAction(Z, pair, generator_maps={"t": m})
        else:
            with pytest.raises(ValidationError, match="multiplicative"):
                AutomorphismAction(Z, pair, generator_maps={"t": m})


# -- dual model tables ----------------------------------------------------------------


S3 = s3_spec()
# 2 + (1 2 0) + (2 1 0) over S3: 32 points, Smith moduli 2, 2, 8
S3_DUAL = IntegerGroupMatrix.single(S3, [(2, S3.elements()[0]), (1, S3.elements()[3]), (1, S3.elements()[5])])
# a 2 x 2 matrix over Z/2 x Z/2: 48 points, Smith moduli 2, 2, 2, 6
V4_DUAL = IntegerGroupMatrix.from_pairs(
    GroupSpec.abelian(("a", "b"), (2, 2)),
    [[[(2, "e"), (-2, "b")], [(2, "e"), (-1, "b")]], [[(2, "a")], [(-1, "e"), (-1, "a*b")]]],
)


@settings(max_examples=30, deadline=None)
@given(
    st.builds(
        lambda order, c0, c1: IntegerGroupMatrix.single(GroupSpec.cyclic(order), [(c0, "e"), (c1, "t")]),
        st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4),
    )
)
@example(S3_DUAL)
@example(V4_DUAL)
def test_dual_model_tables_match_fraction_loop(f):
    try:
        points, mul, ident, maps = fraction_loop_dual_tables(f)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            dual_model(f)
        return
    model, action = dual_model(f)
    assert model.labels == tuple(points)
    assert (model.mul == mul).all()
    assert model.identity == ident
    for g, m in maps.items():
        assert (action.point_map(g) == m).all()


# -- the 242-point doubling -----------------------------------------------------------


def test_doubling_the_242_point_dual():
    """3 - t over Z/5: a 242-point dual whose materialized doubling would hold
    two 58564 x 58564 int64 tables (about 27 GB each)."""
    C5 = GroupSpec.cyclic(5)
    model, action = dual_model(IntegerGroupMatrix.single(C5, [(3, "e"), (-1, "t")]))
    K = model.n_points
    assert K == 242
    dm = doubled_metric(discrete_metric(model))
    da = diagonal_action(action)
    assert dm.table_num.shape == (K * K, K * K) and dm.table_num.nbytes < 10**6
    sigma = quotient_sofic(C5, {"kind": "regular"}, C5.elements())
    F = C5.elements()
    t = C5.generator(0)
    p, m = sigma.perm(t), action.point_map(t)

    def equivariant(root):
        x = np.empty(5, dtype=np.int64)
        j, v = 0, root
        for _ in range(5):
            x[j] = v
            j, v = int(p[j]), int(m[v])
        return x

    rng = np.random.default_rng(7)
    good = np.array([equivariant(int(r)) for r in rng.integers(0, K, size=6)])
    noise = rng.integers(0, K, size=(6, 5))
    x1 = np.concatenate([good, good, noise])
    x2 = np.concatenate([good[::-1], noise, good])
    xs = pair_candidates(model, x1, x2)
    # delta^2 = 1/16 <= (1/2)/5 forces exact equivariance of both halves
    mask = top_microstate_mask(xs, sigma, F, Fraction(1, 4), dm, da)

    def equivariant_rows(x):
        return np.all([(action.point_map(g)[x] == x[:, sigma.perm(g)]).all(axis=1) for g in F], axis=0)

    want = equivariant_rows(x1) & equivariant_rows(x2)
    assert want[:6].all() and not want[6:].any()
    assert (mask == want).all()
