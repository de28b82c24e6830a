"""Exact integer linear algebra: determinants, Smith form, lattice solves."""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from conftest import invariant_factors, time_cap
from soficlab import intlin
from soficlab.actions import IntegerGroupMatrix, sigma_matrix
from soficlab.errors import BudgetExceededError
from soficlab.groups import GroupSpec, perturb, quotient_sofic


def random_matrix(rng, rows, cols, bound=5):
    return rng.integers(-bound, bound + 1, size=(rows, cols)).tolist()


def test_det_known_values():
    assert intlin.det_bareiss([[2, 1], [1, 2]]) == 3
    assert intlin.det_bareiss([[1]]) == 1
    assert intlin.det_bareiss([[0, 1], [1, 0]]) == -1
    assert intlin.det_bareiss([[2, 0], [0, 0]]) == 0


def test_det_matches_fraction_free_reference():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = random_matrix(rng, n, n)
        expected = int(sympy.Matrix(m).det())
        assert intlin.det_bareiss(m) == expected


def test_det_big_integer_circulant():
    # shift-minus-2 circulant of size 40: |det| = 2^40 - 1, needs big ints
    d = 40
    mat = [[0] * d for _ in range(d)]
    for j in range(d):
        mat[j][j] = -2
        mat[(j + 1) % d][j] += 1
    assert abs(intlin.det_bareiss(mat)) == 2**d - 1


def test_smith_form_properties():
    rng = np.random.default_rng(2)
    for _ in range(25):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        m = random_matrix(rng, rows, cols)
        s, u, v = intlin.smith_normal_form(m)
        um = sympy.Matrix(u)
        vm = sympy.Matrix(v)
        assert abs(um.det()) == 1
        assert abs(vm.det()) == 1
        prod = um * sympy.Matrix(m) * vm
        assert prod.tolist() == s
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_invariant_factors_match_sympy():
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = random_matrix(rng, n, n)
        ours = invariant_factors(m)
        snf = sympy_snf(sympy.Matrix(m))
        theirs = [int(snf[i, i]) for i in range(n) if snf[i, i] != 0]
        assert sorted(ours) == sorted(abs(x) for x in theirs)


def test_kernel_count_mod_formula():
    # one-dimensional check from the spec: gcd(2, 4) = 2
    assert intlin.kernel_count_mod([[2]], 4) == 2
    # identity matrix: only 0
    assert intlin.kernel_count_mod([[1, 0], [0, 1]], 12) == 1
    # zero matrix: everything
    assert intlin.kernel_count_mod([[0, 0], [0, 0]], 5) == 25


def test_kernel_count_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 7))
        m = random_matrix(rng, n, n, bound=3)
        arr = np.array(m)
        count = 0
        for flat in range(q**n):
            x = np.array([(flat // q**k) % q for k in range(n)])
            if ((arr @ x) % q == 0).all():
                count += 1
        assert intlin.kernel_count_mod(m, q) == count


def test_solve_mod_enumerates_exactly():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 7))
        m = random_matrix(rng, n, n, bound=3)
        t = [int(x) for x in rng.integers(0, q, size=n)]
        arr = np.array(m)
        expected = set()
        for flat in range(q**n):
            x = tuple((flat // q**k) % q for k in range(n))
            if ((arr @ np.array(x)) % q == [v % q for v in t]).all():
                expected.add(x)
        got = set(map(tuple, intlin.solve_mod_batch(intlin.smith_normal_form(m), [t], q).tolist()))
        assert got == expected


def test_solve_mod_budget():
    with pytest.raises(BudgetExceededError):
        intlin.solve_mod_batch(intlin.smith_normal_form([[0, 0], [0, 0]]), [[0, 0]], 10, budget=50)


# -- the multi-modular determinant --------------------------------------------

ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


def square_matrices(max_n, entries=ENTRIES):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def with_dependent_row(m):
    """m with its last row replaced by a combination of the others: singular."""
    if len(m) < 2:
        return [[0] * len(m) for _ in m]
    other = m[1] if len(m) > 2 else [0] * len(m)
    return m[:-1] + [[2 * a - b for a, b in zip(m[0], other)]]


@settings(max_examples=150, deadline=None)
@given(m=square_matrices(9), singular=st.booleans())
@example(m=[], singular=False)
@example(m=[[2**64 + 1]], singular=False)
@example(m=[[1, 0], [0, 2**63]], singular=False)  # numpy reads this list as float64
def test_det_multimodular_matches_bareiss(m, singular):
    if singular:
        m = with_dependent_row(m)
    assert intlin.det_multimodular(m) == intlin.det_bareiss(m)


@settings(max_examples=60, deadline=None)
@given(m=square_matrices(6, st.integers(-50, 50)).filter(len))
def test_det_multimodular_matches_sympy(m):
    assert intlin.det_multimodular(m) == int(sympy.Matrix(m).det())


def test_det_multimodular_edge_sizes():
    assert intlin.det_multimodular([]) == 1
    for x in (0, 1, -1, 7, 2**63, -(2**100) - 3):
        assert intlin.det_multimodular([[x]]) == x
    with pytest.raises(ValueError):
        intlin.det_multimodular([[1, 2]])


def test_det_multimodular_singular():
    rng = np.random.default_rng(6)
    for n in (2, 5, 12, 40):
        m = with_dependent_row(random_matrix(rng, n, n))
        assert intlin.det_multimodular(m) == 0
    assert intlin.det_multimodular([[0] * 30 for _ in range(30)]) == 0


def test_det_multimodular_entries_beyond_int64():
    rng = np.random.default_rng(7)
    for n in (2, 4, 7):
        high, low = (np.array(random_matrix(rng, n, n), dtype=object) for _ in range(2))
        m = (high * 2**70 + low).tolist()
        assert intlin.det_multimodular(m) == intlin.det_bareiss(m)
    m = [[2**63, 1], [1, -(2**63) - 1]]
    assert intlin.det_multimodular(m) == -(2**126) - 2**63 - 1


def test_det_multimodular_zero_mod_its_own_primes():
    # diag(q_1, ..., q_k) of the first k primes the routine takes at size k:
    # the residue is 0 mod each of them, and only the further primes the
    # Hadamard bound calls for carry the determinant
    k = 6
    qs = intlin._primes(k, 2 ** (30 * k))[:k]
    mat = [[qs[i] if i == j else 0 for j in range(k)] for i in range(k)]
    chosen = intlin._primes(k, intlin._hadamard_bound(np.array(mat)))
    assert chosen[:k] == qs and len(chosen) > k
    assert intlin._det_residues(np.array(mat), qs) == [0] * k
    assert intlin.det_multimodular(mat) == math.prod(qs)


def test_det_multimodular_sylvester_hadamard_meets_the_bound():
    h = np.array([[1]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    m = h.tolist()
    assert intlin._hadamard_bound(np.array(m)) == 8**4 + 1
    assert abs(intlin.det_multimodular(m)) == 8**4
    assert intlin.det_multimodular(m) == intlin.det_bareiss(m)


def test_det_multimodular_across_batches(monkeypatch):
    # an LU stack of two primes at a time: the residues of several batches
    # are combined by one CRT (the full CRT, as when the lift falls back)
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 20, 20, bound=40)
    monkeypatch.setattr(intlin, "_LU_BYTES", 2 * 8 * 20 * 20)
    monkeypatch.setattr(intlin, "_lifted_denominator", lambda a, bound: None)
    assert len(intlin._primes(20, intlin._hadamard_bound(np.array(m)))) > 4
    assert intlin.det_multimodular(m) == intlin.det_bareiss(m)


def test_det_multimodular_big_circulant():
    d = 90
    mat = [[0] * d for _ in range(d)]
    for j in range(d):
        mat[j][j] = -2
        mat[(j + 1) % d][j] += 1
    assert abs(intlin.det_multimodular(mat)) == 2**d - 1


# -- the lifted denominator ------------------------------------------------------


@contextmanager
def spying(name):
    """Record (arguments, result) of every call to ``intlin.<name>``."""
    real, calls = getattr(intlin, name), []

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    setattr(intlin, name, spy)
    try:
        yield calls
    finally:
        setattr(intlin, name, real)


def lifted(m):
    """det_multimodular(m), with the lift's results and the primes handed
    to ``_det_residues``."""
    with spying("_lifted_denominator") as lifts, spying("_det_residues") as batches:
        det = intlin.det_multimodular(m)
    return det, [s for _, s in lifts], [p for (_, primes), _ in batches for p in primes]


@st.composite
def lift_matrices(draw):
    """(kind, m): an n x n matrix, n <= 8, with entries near 2^20, so that
    twice the Hadamard bound calls for three primes or more."""
    kind = draw(st.sampled_from(["dominant", "dense", "singular", "small-s"]))
    n = draw(st.integers(2, 8))
    cells = st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n)
    m = draw(st.lists(cells, min_size=n, max_size=n))
    if kind == "dominant":
        m = [[x // 8 if i != j else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
        for i, row in enumerate(m):
            row[i] = draw(st.sampled_from([-1, 1])) * (sum(map(abs, row)) + draw(st.integers(1, 2**17)))
    elif kind == "singular":
        m = with_dependent_row(m)
    elif kind == "small-s":
        # diag(e) (I + N), N strictly lower triangular: the denominators of
        # m^-1 b divide lcm(e), far below det m = prod(e)
        e = draw(st.sampled_from([[2**19 - 1] * n, [2**16 * q for q in (2, 3, 5, 7, 11, 13, 17, 19)[:n]]]))
        low = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
        w = np.eye(n, dtype=np.int64) + np.tril(np.array(draw(low), dtype=np.int64), -1)
        m = (np.diag(e) @ w).tolist()
    return kind, m


@settings(max_examples=120, deadline=None)
@given(case=lift_matrices())
def test_the_lift_agrees_with_sympy(case):
    kind, m = case
    assume(len(intlin._primes(len(m), intlin._hadamard_bound(np.array(m)))) >= 3)
    want = int(sympy.Matrix(m).det())
    det, lifts, primes = lifted(m)
    assert det == want and len(lifts) == 1
    s = lifts[0]
    if s is not None:
        assert want % s == 0 and not any(s % p == 0 for p in primes)
    if kind in ("dominant", "small-s"):
        assert s is not None
    if kind == "small-s":
        assert math.lcm(*(m[i][i] for i in range(len(m)))) % s == 0


def wilkinson_ramp(n):
    """1 on the diagonal, -1 below it and a last column (1, ..., 7, 1, ...):
    well conditioned, but partial pivoting doubles the last column n - 1
    times, so the float64 inverse is too coarse for the refinement."""
    a = np.eye(n, dtype=np.int64) - np.tril(np.ones((n, n), dtype=np.int64), -1)
    a[:, -1] = np.arange(n) % 7 + 1
    return a


def n_cond(a):
    """n cond(a) in the infinity norm, read from the float64 inverse as the
    lift reads it; inf when the float LU meets a zero pivot."""
    try:
        inv = np.linalg.inv(a.astype(float))
    except np.linalg.LinAlgError:
        return math.inf
    return len(a) * np.abs(a).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()


def test_the_lift_falls_back_when_the_residual_grows():
    a = wilkinson_ramp(30)
    assert n_cond(a) < 2**40 and np.abs(np.eye(30) - a @ np.linalg.inv(a.astype(float))).max() > 1e-10
    with spying("_denominator") as cfs, spying("_is_product") as checks:
        det, lifts, primes = lifted(a)
    # none of the other ways out applies, and nothing was reconstructed
    assert lifts == [None] and cfs == [] and checks == []
    assert primes == intlin._primes(30, intlin._hadamard_bound(a))
    assert det == int(sympy.Matrix(a.tolist()).det())


@pytest.mark.parametrize(
    "m, why",
    [
        # a repeated row: the float LU meets an exact zero pivot
        (
            [[3, 2**20, -5, 7], [11, -13, 2**19, 17], [3, 2**20, -5, 7], [19, 23, -29, 2**20]],
            lambda a: n_cond(a) == math.inf,
        ),
        # row sums past float64's exact range
        ([[2**51, 1, 0], [1, 2**51 + 1, 3], [5, 0, 2**51 - 7]], lambda a: len(a) * np.abs(a).max() >= 2**52),
        # cond(a) near 2^54: no room for even one bit per step
        ([[2**26, 2**26 + 1], [2**26 - 1, 2**26]], lambda a: 2**49 <= n_cond(a) < math.inf),
    ],
    ids=["singular-float-inverse", "entries-too-large", "no-room-for-a-bit"],
)
def test_the_lift_falls_back_before_refining(m, why):
    a = np.array(m, dtype=np.int64)
    assert why(a) and len(intlin._primes(len(a), intlin._hadamard_bound(a))) >= 3
    with spying("_denominator") as cfs:
        det, lifts, primes = lifted(a)
    assert lifts == [None] and cfs == []
    assert primes == intlin._primes(len(a), intlin._hadamard_bound(a))
    assert det == int(sympy.Matrix(m).det())


@pytest.mark.parametrize("wrong", [lambda q: 2 * q, lambda q: 1], ids=["twice-the-denominator", "no-denominator"])
def test_a_failed_certificate_falls_back(monkeypatch, wrong):
    # 2 s gives a y = 2 s b with gcd(2 s, y) = 2; s = 1 leaves a y != b
    real = intlin._denominator
    monkeypatch.setattr(intlin, "_denominator", lambda num, den, limit: wrong(real(num, den, limit)))
    rng = np.random.default_rng(10)
    m = random_matrix(rng, 8, 8, bound=2**20)
    det, lifts, primes = lifted(m)
    assert lifts == [None]
    assert primes == intlin._primes(8, intlin._hadamard_bound(np.array(m)))
    assert det == int(sympy.Matrix(m).det())


def test_is_product_is_exact_on_large_entries():
    a = np.array([[2, -1], [-1, 2]], dtype=np.int64)
    b = np.array([1, -1], dtype=np.int64)
    s = 3 * 2**200 + 12345
    y = [s, -s]  # a y = 3 s b
    assert intlin._is_product(a, y, 3 * s, b)
    assert not intlin._is_product(a, y, 3 * s + 1, b)
    assert not intlin._is_product(a, [s, -s + 2**150], 3 * s, b)
    assert not intlin._is_product(a, [s, s], 3 * s, b)


def test_an_object_matrix_skips_the_lift():
    # strictly diagonally dominant, so only its object entries keep it off
    # the certificate
    m = [[2**70 + 1, 3, 0], [5, 2**66, 7], [0, 11, -(2**65)]]
    with spying("_lifted_denominator") as lifts, spying("_pinned_cofactor") as pins:
        assert intlin.det_multimodular(m) == int(sympy.Matrix(m).det())
    assert lifts == [] and pins == []


# -- the dominance certificate ---------------------------------------------------


def pinned(m):
    """det_multimodular(m), with the certificate's results, the lift's and
    the primes handed to ``_det_residues``."""
    with spying("_pinned_cofactor") as pins:
        det, lifts, primes = lifted(m)
    return det, [t for _, t in pins], lifts, primes


@st.composite
def dominant_matrices(draw):
    """A strictly diagonally dominant n x n matrix, 3 <= n <= 10: random
    off-diagonal entries, a diagonal of mixed signs past each row's absolute
    sum, rows scaled by small integers, which as a rule make det / s exceed
    1, and half the time transposed to column dominance.  The entries grow
    as n falls, so that twice the Hadamard bound calls for three primes or
    more."""
    n = draw(st.integers(3, 10))
    w = 2 ** max(2, -(-52 // n) - n.bit_length() + 2)
    cells = st.lists(st.integers(-w, w), min_size=n, max_size=n)
    m = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(draw(st.lists(cells, min_size=n, max_size=n)))]
    for i, row in enumerate(m):
        row[i] = draw(st.sampled_from([-1, 1])) * (sum(map(abs, row)) + draw(st.integers(1, w)))
    scale = draw(st.lists(st.sampled_from([1, 1, 2, 3, 6]), min_size=n, max_size=n))
    m = [[c * x for x in row] for c, row in zip(scale, m)]
    return [list(col) for col in zip(*m)] if draw(st.booleans()) else m


def shifted_dominant(c):
    """diag(2, 3, 6, 6, 2, 3, 6, 6) diag(+-1) (c I - P + 2 P^-2), for P the
    8-cycle: non-symmetric, diagonal signs mixed, and det / s = 5,458,752
    at c = 101."""
    p = np.roll(np.eye(8, dtype=np.int64), 1, axis=0)
    b = c * np.eye(8, dtype=np.int64) - p + 2 * p.T @ p.T
    return np.diag([2, -3, 6, 6, -2, 3, 6, -6]) @ b


@settings(max_examples=150, deadline=None)
@given(m=dominant_matrices())
@example(m=shifted_dominant(101).tolist())
def test_the_certificate_agrees_with_sympy(m):
    assume(len(intlin._primes(len(m), intlin._hadamard_bound(np.array(m)))) >= 3)
    want = int(sympy.Matrix(m).det())
    det, pins, lifts, primes = pinned(m)
    assert det == want
    # the lift certifies s on every dominant matrix, and the certificate runs
    assert len(lifts) == 1 and lifts[0] is not None and len(pins) == 1
    if pins[0] is not None:
        assert lifts[0] * pins[0] == abs(want) and primes == []


def test_the_certificate_pins_a_cofactor_above_one():
    a = shifted_dominant(101)
    det, pins, lifts, primes = pinned(a)
    assert det == int(sympy.Matrix(a.tolist()).det()) < 0
    assert pins == [5458752] and primes == []


def test_a_matrix_that_is_not_dominant_never_reaches_the_certificate():
    rng = np.random.default_rng(10)
    m = random_matrix(rng, 8, 8, bound=2**20)
    assert not intlin._dominant(np.array(m))
    det, pins, lifts, primes = pinned(m)
    assert pins == [] and lifts[0] is not None
    assert det == int(sympy.Matrix(m).det())


def test_too_wide_an_interval_falls_back(monkeypatch):
    # with G = round(2^11 L^-1) on this F_2 matrix, beta is about 0.02, so
    # the interval around (det / s)^2 = 93^2 also holds 94^2
    F2 = GroupSpec.free(2)
    f = IntegerGroupMatrix.single(F2, [(5, "e"), (-1, "a"), (-1, "a^-1"), (-1, "b"), (-1, "b^-1")])
    sigma = quotient_sofic(F2, {"kind": "random-permutations", "degree": 256, "seed": 3}, f.support())
    a = np.asarray(sigma_matrix(f, perturb(sigma, 1 / 16, 3)))
    det, pins, lifts, primes = pinned(a)
    assert pins == [93] and primes == []
    monkeypatch.setattr(intlin, "_PIN_BITS", 11)
    with spying("_tri_inverse") as inverses:
        again, pins, lifts, primes = pinned(a)
    # past the estimate, through the exact products, and no pin
    assert inverses and pins == [None]
    assert primes == intlin._primes(256, -(-intlin._hadamard_bound(a) // lifts[0]), lifts[0])
    assert again == det


def dense_dominant(n, w, seed):
    """A dense n x n matrix, strictly diagonally dominant by rows: entries of
    random sign with |x| in [7w/8, w) off the diagonal, and each diagonal
    entry one past its row's absolute sum."""
    rng = np.random.default_rng(seed)
    off = rng.integers(w - w // 8, w, size=(n, n)) * rng.choice([-1, 1], size=(n, n))
    np.fill_diagonal(off, 0)
    return off + np.diag(np.abs(off).sum(axis=1) + 1)


@pytest.mark.parametrize("n, w", [(40, 2**17), (200, 2**12)], ids=["n40", "n200"])
def test_a_coarse_preconditioner_bails_before_the_inverse(monkeypatch, n, w):
    # the diagonal, near n w, puts L_ii so high that G = round(2^25 L^-1)
    # keeps too few bits to pin det / s, whatever det / s is
    a = dense_dominant(n, w, 1)
    with spying("_tri_inverse") as inverses:
        det, pins, lifts, primes = pinned(a)
    assert inverses == [] and pins == [None] and lifts[0] is not None and primes
    if n <= 40:
        assert det == int(sympy.Matrix(a.tolist()).det())
    else:  # sympy takes minutes here: the full CRT, with the lift off
        monkeypatch.setattr(intlin, "_lifted_denominator", lambda a, bound: None)
        assert det == intlin.det_multimodular(a)


def cycle_dominant(*shifts):
    """3 I plus the powers ``shifts`` of the 32-cycle's permutation matrix:
    strictly dominant for one or two shifts, with a Hadamard bound that
    calls for three primes."""
    cycle = [np.roll(np.eye(32, dtype=np.int64), k, axis=0) for k in shifts]
    return 3 * np.eye(32, dtype=np.int64) + sum(cycle)


def refuse(*args):
    raise np.linalg.LinAlgError("forced")


# one case per bail of _pinned_cofactor between the estimate and the pin,
# in its order: (matrix shifts, patched name, replacement).  With
# _tri_inverse = 2^-25 I, G = I and M = a^T a; for 3 I + P its rows hold
# 10 and two 3s, so eta = 0.6 and beta = 32 * 0.18 / 0.8 > 1, and for
# 3 I + P + P^2 they hold 11 and 14 off the diagonal, so eta > 1
BAILS = {
    "cholesky-fails": ((1,), "cholesky", refuse),
    "preconditioner-too-large": ((1,), "_tri_inverse", lambda low: 2.0**30 * np.eye(len(low))),
    "zero-diagonal": ((1,), "_tri_inverse", np.zeros_like),
    "eta-past-1": ((1, 2), "_tri_inverse", lambda low: 2.0**-25 * np.eye(len(low))),
    "beta-past-1": ((1,), "_tri_inverse", lambda low: 2.0**-25 * np.eye(len(low))),
}


@pytest.mark.parametrize("shifts, name, replacement", BAILS.values(), ids=BAILS)
def test_each_bail_of_the_certificate_leaves_the_determinant_to_the_crt(monkeypatch, shifts, name, replacement):
    a = cycle_dominant(*shifts)
    det, pins, lifts, primes = pinned(a)
    assert pins[0] and primes == []  # unpatched, the certificate pins det / s
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg if name == "cholesky" else intlin, name, replacement)
        again, pins, lifts, primes = pinned(a)
    assert pins == [None] and lifts[0] and primes
    monkeypatch.setattr(intlin, "_lifted_denominator", lambda a, bound: None)
    assert again == det == intlin.det_multimodular(a)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**5), bits=st.integers(0, 3000))
@example(n=1, bits=3000)
@example(n=10**5, bits=3000)
def test_primes_keep_float64_dot_products_exact(n, bits):
    bound = 2**bits
    primes = intlin._primes(n, bound)
    assert all(n * (p - 1) ** 2 < 2**53 for p in primes)
    assert all(sympy.isprime(p) for p in primes)
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == len(primes)
    # largest first: the next prime up is too large
    assert n * (sympy.nextprime(primes[0]) - 1) ** 2 >= 2**53
    # consecutive primes, and only as many as 2 * bound calls for
    assert all(sympy.prevprime(p) == q for p, q in zip(primes, primes[1:]))
    assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])


@settings(max_examples=100, deadline=None)
@given(step=st.integers(1, 4096), bits=st.integers(0, 2000))
@example(step=1, bits=2000)
def test_primes_one_mod_a_step(step, bits):
    # the character path's search: primes = 1 (mod step), largest first and
    # consecutive among those, only as many as 2 * bound calls for
    limit, bound = intlin._CHARACTER_LIMIT, 2**bits
    primes = intlin._crt_primes(limit, bound, step)
    assert all((p - 1) % step == 0 and sympy.isprime(p) for p in primes)
    for hi, lo in zip([limit + step - (limit - 1) % step, *primes], primes):
        assert not any(sympy.isprime(m) for m in range(lo + step, min(hi, limit + 1), step))
    assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])
    # the primitive step-th root of unity cached with each prime
    for p in primes[:3]:
        w = intlin._root(p, step)
        assert pow(w, step, p) == 1
        assert all(pow(w, step // r, p) != 1 for r in sympy.primefactors(step))


def test_det_circulant_without_enough_primes(monkeypatch):
    # 13 and 37 are the primes = 1 (mod 12) up to 40, and 13 * 37 = 481 does
    # not exceed twice the Hadamard bound of 3I - P on Z/12, 10^6 + 1
    monkeypatch.setattr(intlin, "_CHARACTER_LIMIT", 40)
    assert intlin.det_circulant([3, -1], [[0], [1]], [12], 10**6 + 1) is None
    monkeypatch.setattr(intlin, "_CHARACTER_LIMIT", 100)
    assert intlin.det_circulant([3, -1], [[0], [1]], [12], 10**6 + 1) == 3**12 - 1


def test_is_prime_matches_sympy():
    # 25326001 is a strong pseudoprime to bases 2, 3 and 5
    special = [2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 94906249, 94906263]
    rng = np.random.default_rng(9)
    for m in list(range(-2, 5000)) + special + rng.integers(2**20, 2**27, size=2000).tolist():
        assert intlin._is_prime(m) == sympy.isprime(m)


def test_is_prime_matches_a_sieve():
    # every m below 10^5: the primes below 212, whose product pre-filters
    # candidates, and the composites on both sides of 211
    n = 10**5
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    assert [m for m in range(-3, n) if intlin._is_prime(m)] == np.flatnonzero(sieve).tolist()
    assert intlin._SMALL_PRIMES == math.prod(np.flatnonzero(sieve[:212]).tolist())


# -- the Smith form at random sizes ----------------------------------------------


def low_rank(draw, rows, cols):
    """A product B C through an inner size r below min(rows, cols), so of
    rank at most r, with entries up to +-1000."""
    r = draw(st.integers(0, min(rows, cols) - 1))
    top = 1000 // (3 * max(r, 1))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=rows, max_size=rows))
    c = draw(st.lists(st.lists(st.integers(-top, top), min_size=cols, max_size=cols), min_size=r, max_size=r))
    return [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(cols)] for i in range(rows)]


def matrices(draw, rows, cols, entries=st.integers(-1000, 1000)):
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def smith_inputs(draw):
    """Matrices up to 7 x 7 with entries up to +-1000.  About a third are
    rank-deficient products B C."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return matrices(draw, rows, cols) if draw(st.integers(0, 2)) else low_rank(draw, rows, cols)


@settings(max_examples=100, deadline=None)
@given(m=smith_inputs())
@example(m=[
    [-20, 13, -1, 1, 5, -9, 20],
    [-18, -9, -5, 3, -4, -15, -19],
    [-20, -19, -14, 20, -13, 6, 10],
    [-11, -9, -3, -10, 19, -13, 16],
    [12, 14, -16, -4, 5, 0, 7],
    [7, 7, -18, 19, 2, 17, -9],
    [-6, 16, -13, -18, -5, 7, -15],
])  # s_7 = |det| = 10594015796; a Smith form that grows its transforms stalls here
def test_smith_form_random_sizes(m):
    with time_cap(1):
        s, u, v = intlin.smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    uu, mm, vv = (np.array(x, dtype=object) for x in (u, m, v))
    assert (uu @ mm @ vv).tolist() == s
    assert abs(intlin.det_bareiss(u)) == abs(intlin.det_bareiss(v)) == 1
    assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [s[i][i] for i in range(min(rows, cols))]
    nonzero = [x for x in diag if x]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(x > 0 for x in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert diag == [abs(int(x)) for x in sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]


# -- grid-exact counts ---------------------------------------------------------------

PRIMES = [2, 3, 5, 7, 11, 101, 2**31 - 1]
PRIME_POWERS = [4, 8, 9, 25, 27, 49, 2**10, 3**7]
COMPOSITES = [6, 12, 30, 360, 1000]


@st.composite
def count_inputs(draw):
    """(m, q) with m up to 7 x 7 and q a prime, a prime power or a composite.
    A third of the matrices are rank-deficient products B C, and a third have
    every entry a multiple of one divisor g > 1 of q, so that no entry is a
    unit mod q and the block left after elimination is large."""
    q = draw(st.sampled_from(PRIMES + PRIME_POWERS + COMPOSITES))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return matrices(draw, rows, cols), q
    if kind == 1:
        return low_rank(draw, rows, cols), q
    g = draw(st.sampled_from([g for g in sympy.divisors(q) if g > 1]))
    return [[g * x for x in row] for row in matrices(draw, rows, cols, st.integers(-50, 50))], q


def count_by_sympy(m, q):
    """prod gcd(s_i, q) * q^(cols - rank) over sympy's invariant factors;
    sympy lists min(rows, cols) of them, zeros included, and gcd(0, q) = q."""
    s = sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
    cols = len(m[0])
    return math.prod(math.gcd(int(x), q) for x in s) * q ** (cols - len(s))


@settings(max_examples=200, deadline=None)
@given(inputs=count_inputs())
@example(inputs=([[2**31, 6, 0], [4, 2**32 + 2, 8]], 2**32))  # q >= 2^31: the whole matrix is left over
@example(inputs=([[1, 2**60 + 5], [2**59 + 7, (2**60 + 5) * (2**59 + 7) % (2**61 - 1)]], 2**61 - 1))  # rank 1 mod q
@example(inputs=([[2**100 + 3, 5, 2**99], [7, -(2**100), 1], [2**100 + 10, 2**100 + 5, 2**99 + 1]], 360))
@example(inputs=([[-(2**100) * 6, 12], [2**101 * 3, 6 * (2**100 + 1)]], 360))
def test_kernel_count_mod_matches_sympy(inputs):
    m, q = inputs
    with time_cap(1):
        count = intlin.kernel_count_mod(m, q)
    assert count == count_by_sympy(m, q)


def test_kernel_count_mod_keeps_the_columns_of_an_empty_array():
    # no equations: every x in (Z/5)^3 solves them
    assert intlin.kernel_count_mod(np.zeros((0, 3), dtype=np.int64), 5) == 125
    assert intlin.kernel_count_mod(np.zeros((2, 0), dtype=np.int64), 5) == 1


def test_solve_mod_on_an_empty_array():
    def solve(mat, target):
        return list(map(tuple, intlin.solve_mod_batch(intlin.smith_normal_form(mat), [target], 3).tolist()))

    assert solve(np.zeros((0, 2), dtype=np.int64), []) == list(itertools.product(range(3), repeat=2))
    no_cols = np.zeros((2, 0), dtype=np.int64)
    assert solve(no_cols, [0, 0]) == [()]
    assert solve(no_cols, [0, 1]) == []
