"""The one Smith-form lattice solver and the mixed-radix decoder, and the
solve paths built on them, against brute force."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import invariant_factors
from soficlab import intlin
from soficlab.actions import _solve_residue_box, continuous_kernel
from soficlab.errors import BudgetExceededError

PROPERTY = settings(max_examples=60, deadline=None)


def all_points(q, cols):
    return np.array(list(itertools.product(range(q), repeat=cols)), dtype=np.int64).reshape(-1, cols)


def brute_solutions(mat, targets, q):
    """Sorted rows x of (Z/q)^cols with mat x mod q a row of ``targets``."""
    mat = np.asarray(mat, dtype=np.int64)
    xs = all_points(q, mat.shape[1])
    images = (xs @ mat.T) % q
    wanted = {tuple(int(v) % q for v in t) for t in targets}
    return sorted(tuple(int(v) for v in x) for x, y in zip(xs, images) if tuple(y) in wanted)


@st.composite
def systems(draw):
    """(mat, targets, q): rows < cols, rows = cols and rows > cols all occur;
    targets are a batch of distinct residue rows."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    q = draw(st.integers(1, 7))
    mat = draw(st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    residues = st.lists(st.integers(0, q - 1), min_size=rows, max_size=rows).map(tuple)
    targets = draw(st.lists(residues, min_size=1, max_size=5, unique=True))
    return mat, targets, q


@PROPERTY
@given(systems())
def test_batch_solve_matches_brute_force(system):
    mat, targets, q = system
    got = intlin.solve_mod_batch(intlin.smith_normal_form(mat), np.array(targets), q)
    assert got.dtype == np.int64 and got.shape[1] == len(mat[0])
    # sorted, hence duplicate-free when it equals the brute-force list
    assert [tuple(x) for x in got.tolist()] == brute_solutions(mat, targets, q)


@PROPERTY
@given(systems())
def test_solve_mod_is_the_one_target_solve(system):
    mat, targets, q = system
    target = [t + q * k for k, t in enumerate(targets[0])]  # unreduced residues
    got = intlin.solve_mod_batch(intlin.smith_normal_form(mat), [target], q)
    assert list(map(tuple, got.tolist())) == brute_solutions(mat, [targets[0]], q)


@PROPERTY
@given(
    st.integers(1, 3).flatmap(
        lambda rows: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=rows, max_size=rows),
            st.integers(2, 6),
            st.integers(0, 3),
        )
    )
)
def test_residue_box_matches_its_definition(case):
    mat, q, bound = case
    mat = np.array(mat, dtype=np.int64)
    xs = all_points(q, mat.shape[1])
    res = (xs @ mat.T) % q
    inside = (np.minimum(res, q - res) <= bound).all(axis=1)
    got = _solve_residue_box(mat, q, bound, budget=10**6)
    assert got.tolist() == xs[inside].tolist()  # all_points is lexicographic


@st.composite
def full_rank_matrices(draw):
    """Full-column-rank integer matrices (rows >= cols) with a small kernel,
    and D, the kernel order from sympy's Smith form."""
    cols = draw(st.integers(1, 3))
    rows = draw(st.integers(cols, cols + 1))
    mat = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    snf = sympy_snf(sympy.Matrix(mat))
    diag = [abs(int(snf[i, i])) for i in range(cols)]
    D = int(np.prod(diag))
    assume(0 not in diag and D**cols <= 20000)
    return mat, D


@PROPERTY
@given(full_rank_matrices())
def test_continuous_kernel_matches_brute_force_on_its_grid(case):
    mat, D = case
    # every kernel point has denominator dividing D = prod s_i, so the
    # (1/D)-grid holds the whole kernel
    ks = all_points(D, len(mat[0]))
    on_grid = ((ks @ np.array(mat, dtype=np.int64).T) % D == 0).all(axis=1)
    want = sorted(tuple(Fraction(int(k), D) for k in row) for row in ks[on_grid])
    got = continuous_kernel(np.array(mat, dtype=np.int64))
    assert got == want
    # the denominators' lcm is the largest invariant factor s_r
    assert math.lcm(*(v.denominator for p in got for v in p)) == invariant_factors(mat)[-1]


def test_budget_refuses_the_exact_count():
    snf = intlin.smith_normal_form([[2, 0], [0, 0]])
    targets = np.array([[0, 0], [1, 0], [2, 0]])  # the target (1, 0) is infeasible mod 4
    assert len(intlin.solve_mod_batch(snf, targets, 4, budget=16)) == 16
    with pytest.raises(BudgetExceededError) as err:
        intlin.solve_mod_batch(snf, targets, 4, budget=15)
    assert err.value.required == 16


def test_residue_box_refuses_too_many_targets_first():
    # 3 admissible residues on 4 rows: 81 targets, refused at budget 80 even
    # though only x = 0, 4, 5 solve the box
    mat = np.full((4, 1), 2, dtype=np.int64)
    assert _solve_residue_box(mat, 9, 1, budget=81).tolist() == [[0], [4], [5]]
    with pytest.raises(BudgetExceededError) as err:
        _solve_residue_box(mat, 9, 1, budget=80)
    assert err.value.required == 81


def test_modulus_of_2_pow_31_is_refused():
    with pytest.raises(OverflowError, match=str(2**31)):
        intlin.solve_mod_batch(intlin.smith_normal_form([[3]]), [[1]], 2**31)
    q = 2**31 - 1
    # the largest accepted modulus: products of residues stay exact
    mat = [[3, q - 2, 5], [q - 5, 7, -1], [2, -9, q - 4]]
    target = [q - 1, q - 2, q - 3]
    sols = intlin.solve_mod_batch(intlin.smith_normal_form(mat), [target], q).tolist()
    assert sols
    for x in sols:
        assert [sum(a * b for a, b in zip(row, x)) % q for row in mat] == target


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=4))
def test_mixed_radix_runs_in_product_order(widths):
    total = int(np.prod(widths, dtype=np.int64))
    digits = intlin.mixed_radix(np.arange(total), widths)
    assert digits.shape == (total, len(widths))
    assert [tuple(r) for r in digits.tolist()] == list(itertools.product(*map(range, widths)))
    grid = intlin.mixed_radix(np.arange(total).reshape(1, total), widths)
    assert grid.shape == (1, total, len(widths))
