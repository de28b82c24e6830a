"""Exact integer linear algebra: determinants, Smith form, lattice solves."""

import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from conftest import time_cap
from soficlab import intlin
from soficlab.errors import BudgetExceededError


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
        ours = intlin.invariant_factors(m)
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
    # are combined by one CRT
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 20, 20, bound=40)
    monkeypatch.setattr(intlin, "_LU_BYTES", 2 * 8 * 20 * 20)
    assert len(intlin._primes(20, intlin._hadamard_bound(np.array(m)))) > 4
    assert intlin.det_multimodular(m) == intlin.det_bareiss(m)


def test_det_multimodular_big_circulant():
    d = 90
    mat = [[0] * d for _ in range(d)]
    for j in range(d):
        mat[j][j] = -2
        mat[(j + 1) % d][j] += 1
    assert abs(intlin.det_multimodular(mat)) == 2**d - 1


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
