"""Integer input: every table, map, permutation, weight vector, matrix and
count is read as integers or refused, never truncated; kept tables are
read-only copies; int64 sums that could wrap are refused or taken over
Python ints; and points are read by their model, which refuses anything but
its own points, and combined only with points of the same group law."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from soficlab.actions import (
    AutomorphismAction,
    FiniteGroupModel,
    IntegerGroupMatrix,
    TorusGridModel,
    count_kernel_points,
    cyclic_model,
    instantiate_Xf,
    sigma_matrix,
    trivial_action,
    unit_automorphism,
)
from soficlab.errors import ValidationError
from soficlab.groups import GroupSpec, perturb, quotient_sofic
from soficlab.intlin import (
    det_bareiss,
    det_multimodular,
    kernel_count_mod,
    mixed_radix,
    smith_normal_form,
    solve_mod_batch,
)
from soficlab.measures import SampleBased, SiteMeasure
from soficlab.microstates import (
    MapWindow,
    Pseudometric,
    TestFunction as PanelFunction,  # aliased so pytest does not collect it
    discrete_metric,
    empirical_pushforward,
    enumerate_top_microstates,
    indicator_panel,
    meas_microstate_mask,
    psi_window,
    rho2_sq,
    sample_microstates,
    shift_lift,
    top_microstate_mask,
    torus_metric,
)

BIG = 2**62


def _far_metric(model):
    """A metric on ``model`` with every distinct pair at squared distance 2^62."""
    n = model.n_points
    return Pseudometric("far", model, table_num=BIG * (1 - np.eye(n, dtype=np.int64)))


def _shift_window():
    """Z by its order-4 quotient, acting trivially on Z/3, with F = {t}."""
    Z = GroupSpec.integers()
    t = Z.generator(0)
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [4]}, [Z.identity(), t])
    return Z, t, sigma


def _input_cases():
    """(label, call, error) for input each of which was accepted, truncated or
    wrapped, or raised a bare numpy error, before it went through the readers
    in ``intlin`` and the models' ``read_points``; and for a non-square
    determinant, which the reference ``det_bareiss`` refuses itself."""
    Z, t, sigma = _shift_window()
    F2 = GroupSpec.free(2)
    z3, z4, z5 = cyclic_model(3), cyclic_model(4), cyclic_model(5)
    half = [[0, 1], [1, 0.7]]
    wrapping = [BIG] * 3 + [BIG + 1]  # sums to 2^64 + 1, which wraps int64 to 1
    Z2 = GroupSpec.cyclic(2)
    regular = quotient_sofic(Z2, {"kind": "regular"}, list(Z2.elements()))
    three_minus_t = instantiate_Xf(IntegerGroupMatrix.single(Z2, [(3, "e"), (-1, "t")]), regular, q=8, tol=0)
    torus = TorusGridModel(4, 1)

    def z3_mask(xs):
        return top_microstate_mask(xs, sigma, [t], Fraction(1, 2), discrete_metric(z3), trivial_action(Z, z3))

    def torus_mask(xs):
        return top_microstate_mask(xs, sigma, [t], Fraction(1, 2), torus_metric(torus), trivial_action(Z, torus))

    neg3 = AutomorphismAction(Z, z3, {"t": unit_automorphism(z3, -1)})
    neg5 = AutomorphismAction(Z, z5, {"t": unit_automorphism(z5, -1)})
    half_delta = Fraction(1, 2)

    def neg3_window(L, target):
        xs = np.zeros((1, 4), dtype=np.int64)
        window = MapWindow(F=(t,), delta=half_delta, L=L, target=target)
        return meas_microstate_mask(xs, sigma, window, discrete_metric(z3), neg3)

    # 1 - t on Z/3 with two codomain copies: a 3 x 2 candidate at d = 3
    sigma3 = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [3]}, [Z.identity(), t])
    pair = instantiate_Xf(IntegerGroupMatrix.from_pairs(Z, [[[(1, "e")], [(-1, "t")]]]), sigma3, q=4, tol=0)
    big_panel = MapWindow(
        F=(), delta=Fraction(1, 2), L=(PanelFunction("f", [BIG, 0, 0]),), target=SiteMeasure.uniform(z3)
    )
    return [
        ("group-table-float", lambda: GroupSpec.from_table(["a", "b"], half), ValidationError),
        ("model-table-float", lambda: FiniteGroupModel(["a", "b"], half), ValidationError),
        ("model-table-uint64", lambda: FiniteGroupModel(["a", "b"], np.array([[0, 1], [1, 0]], dtype=np.uint64)),
         ValidationError),
        ("action-map-float", lambda: AutomorphismAction(Z, z5, {"t": [0, 2.9, 4.2, 1.5, 3.1]}), ValidationError),
        ("torus-map-float", lambda: AutomorphismAction(Z, TorusGridModel(5, 2), {"t": [[1.5, 0], [0, 1]]}),
         ValidationError),
        ("cyclic-order-bool", lambda: GroupSpec.cyclic(True), ValidationError),
        # a float exponent raised a bare TypeError, and True returned t
        ("power-float", lambda: Z.power(t, 2.0), ValidationError),
        ("power-bool", lambda: Z.power(t, True), ValidationError),
        ("site-weights-float", lambda: SiteMeasure(z4, [1.7, 0.2, 0.1, 0], 1), ValidationError),
        ("site-weights-wrap", lambda: SiteMeasure(z4, wrapping, 1), ValidationError),
        ("atom-weights-wrap", lambda: SampleBased(z4, [[0], [1], [2], [3]], wrapping, 1), ValidationError),
        ("site-den-float", lambda: SiteMeasure(z4, [1, 0, 0, 0], 1.0), ValidationError),
        ("atoms-float", lambda: SampleBased(z4, [[0.5], [1]], [1, 0], 1), ValidationError),
        ("atom-below-0", lambda: SampleBased(z4, [[-1], [1]], [1, 1], 2), ValidationError),
        ("atom-past-n", lambda: SampleBased(z4, [[7], [1]], [1, 1], 2), ValidationError),
        ("torus-atom-residue", lambda: SampleBased(TorusGridModel(3, 2), [[[0, 3]]], [1], 1), ValidationError),
        ("point-mass-below-0", lambda: SiteMeasure.point_mass(z4, -1), ValidationError),
        ("point-mass-float", lambda: SiteMeasure.point_mass(z4, 1.5), ValidationError),
        ("metric-table-float", lambda: Pseudometric(
            "half", cyclic_model(2), table_num=np.array([[0, 0.5], [0.5, 0]])), ValidationError),
        ("metric-den-0", lambda: Pseudometric("d", z3, table_num=discrete_metric(z3).table_num, den=0),
         ValidationError),
        ("perturb-seed-float", lambda: perturb(sigma, 0.5, 1.5), ValidationError),
        ("free-seed-float", lambda: quotient_sofic(
            F2, {"kind": "random-permutations", "degree": 4, "seed": 1.5}, [F2.identity()]), ValidationError),
        ("det-float", lambda: det_multimodular([[2.5, 0], [0, 1]]), ValidationError),
        ("det-bareiss-float", lambda: det_bareiss([[2.5, 0], [0, 1]]), ValidationError),
        ("det-bareiss-bool", lambda: det_bareiss([[True]]), ValidationError),
        ("kernel-count-float", lambda: kernel_count_mod([[2.5]], 6), ValidationError),
        ("kernel-count-bool", lambda: kernel_count_mod(np.array([[True]]), 6), ValidationError),
        ("smith-float", lambda: smith_normal_form([[2.5]]), ValidationError),
        ("smith-object-float", lambda: smith_normal_form(np.array([[2**70, 2.5]], dtype=object)), ValidationError),
        # a ragged matrix raised numpy's bare ValueError, a flat row past
        # uint64 a bare TypeError, and a flat int row a bare ValueError or
        # IndexError where its two axes were read
        ("det-ragged", lambda: det_multimodular([[1, 2], [3]]), ValidationError),
        ("det-bareiss-ragged", lambda: det_bareiss([[1, 2], [3]]), ValidationError),
        ("det-bareiss-not-square", lambda: det_bareiss([[1, 2]]), ValueError),
        ("smith-ragged", lambda: smith_normal_form([[1, 2], [3]]), ValidationError),
        ("det-flat-past-uint64", lambda: det_multimodular([2**64, 1]), ValidationError),
        ("smith-flat", lambda: smith_normal_form([1, 2]), ValidationError),
        ("kernel-count-flat", lambda: kernel_count_mod([1, 2], 5), ValidationError),
        ("panel-sum-wrap", lambda: meas_microstate_mask(
            np.zeros((1, 4), dtype=np.int64), sigma, big_panel, discrete_metric(z3), trivial_action(Z, z3)),
         OverflowError),
        # candidates: float points were truncated, and points out of range
        # were read through a negative table index or a wrong circle distance
        ("point-indices-float", lambda: z3.point_indices(1.7), ValidationError),
        ("points-from-indices-float", lambda: z3.points_from_indices([0.5]), ValidationError),
        ("torus-point-indices-float", lambda: torus.point_indices([[0.5]]), ValidationError),
        ("kernel-point-float", lambda: three_minus_t.is_kernel_point([[0.9], [0.9]]), ValidationError),
        ("lattice-target-float", lambda: solve_mod_batch(smith_normal_form([[1, 0], [0, 1]]), [[1.5, 0.2]], 5),
         ValidationError),
        ("mask-float", lambda: z3_mask(np.array([[0, 1.5, 0, 1]])), ValidationError),
        ("mask-point-below-0", lambda: z3_mask(np.array([[0, 1, -1, 1]])), ValidationError),
        ("mask-point-past-n", lambda: z3_mask(np.array([[0, 1, 3, 1]])), ValidationError),
        ("mask-wrong-d", lambda: z3_mask(np.array([[0, 1, 0, 1, 0]])), ValidationError),
        ("mask-torus-residue-past-q", lambda: torus_mask(np.array([[[7], [0], [0], [0]]])), ValidationError),
        ("mask-torus-float", lambda: torus_mask(np.array([[[0.5], [0], [0], [0]]])), ValidationError),
        ("mask-torus-no-sites-axis", lambda: torus_mask(np.array([[0, 0, 0, 0]])), ValidationError),
        ("metric-sum-wrap", lambda: top_microstate_mask(
            np.array([[0, 1, 0, 1]]), sigma, [t], Fraction(1, 2), _far_metric(z3), trivial_action(Z, z3)),
         OverflowError),
        # past forces_exact_equivariance, so the prefix search sums these
        # distances too
        ("enumerate-top-sum-wrap", lambda: enumerate_top_microstates(
            z3, sigma, (t,), 2**31, _far_metric(z3), trivial_action(Z, z3)), OverflowError),
        # points out of range were read through a negative table index, a
        # wrapped residue or a wrapped index, and a float index was truncated
        ("rho2-point-below-0", lambda: rho2_sq(discrete_metric(z3), [-1], [2]), ValidationError),
        ("rho2-torus-residue-past-q", lambda: rho2_sq(torus_metric(torus), [[7]], [[0]]), ValidationError),
        ("mixed-radix-float", lambda: mixed_radix(2.9, [3, 3]), ValidationError),
        ("torus-points-from-indices-float", lambda: TorusGridModel(3, 2).points_from_indices(4.7), ValidationError),
        ("torus-index-n", lambda: TorusGridModel(3, 2).points_from_indices(9), ValidationError),
        ("torus-index-past-n", lambda: TorusGridModel(3, 2).points_from_indices(10), ValidationError),
        ("torus-index-below-0", lambda: TorusGridModel(3, 2).points_from_indices(-1), ValidationError),
        ("torus-point-indices-residue-past-q", lambda: torus.point_indices([[7]]), ValidationError),
        ("torus-point-indices-wrong-sites", lambda: TorusGridModel(3, 2).point_indices([0, 1, 2]), ValidationError),
        ("point-indices-past-n", lambda: z3.point_indices(5), ValidationError),
        ("points-from-indices-past-n", lambda: z3.points_from_indices(5), ValidationError),
        ("psi-window-point-below-0", lambda: psi_window(-1, (t,), neg3), ValidationError),
        ("pushforward-point-below-0", lambda: empirical_pushforward([-1, 0], z3), ValidationError),
        # models of different group laws were combined
        ("enumerate-model-not-metric", lambda: enumerate_top_microstates(
            cyclic_model(2), sigma, (t,), half_delta, discrete_metric(z3), neg3), ValidationError),
        ("enumerate-model-not-metric-alone", lambda: enumerate_top_microstates(
            cyclic_model(2), sigma, (t,), half_delta, discrete_metric(z3), trivial_action(Z, cyclic_model(2))),
         ValidationError),
        ("enumerate-model-not-action", lambda: enumerate_top_microstates(
            z3, sigma, (t,), half_delta, discrete_metric(z3), neg5), ValidationError),
        ("sample-model-not-metric", lambda: sample_microstates(
            cyclic_model(2), sigma, MapWindow(F=(t,), delta=half_delta, L=(), target=SiteMeasure.uniform(z3)),
            discrete_metric(z3), neg3, 1, 0), ValidationError),
        ("mask-metric-not-action", lambda: top_microstate_mask(
            np.array([[1, 2, 1, 2]]), sigma, (t,), half_delta, discrete_metric(z5), neg3), ValidationError),
        ("mask-metric-not-action-past-n", lambda: top_microstate_mask(
            np.array([[4, 4, 4, 4]]), sigma, (t,), half_delta, discrete_metric(z5), neg3), ValidationError),
        ("panel-on-another-model", lambda: neg3_window(indicator_panel(z5), SiteMeasure.uniform(z5)),
         ValidationError),
        ("panel-target-on-another-model", lambda: neg3_window(
            (PanelFunction("f", [1, 0, 0]),), SiteMeasure.uniform(z5)), ValidationError),
        ("panel-two-values", lambda: neg3_window((PanelFunction("f", [1, 0]),), SiteMeasure.uniform(z3)),
         ValidationError),
        ("panel-five-values", lambda: neg3_window(
            (PanelFunction("f", [1, 0, 0, 0, 0]),), SiteMeasure.uniform(z3)), ValidationError),
        # a kernel candidate is a (d, n) array of residues 0..q-1
        ("kernel-point-wrong-size", lambda: pair.is_kernel_point([0, 0, 0, 0, 0]), ValidationError),
        ("kernel-point-transposed", lambda: pair.is_kernel_point(np.zeros((2, 3), dtype=np.int64)),
         ValidationError),
        ("kernel-point-residue-past-q", lambda: pair.is_kernel_point([[4, 0], [0, 0], [0, 0]]), ValidationError),
        ("shift-lift-wrong-length", lambda: shift_lift(np.arange(5), sigma3, (t,)), ValidationError),
    ]


@pytest.mark.parametrize("case", _input_cases(), ids=lambda c: c[0])
def test_bad_integer_input_is_refused(case):
    _, call, error = case
    with pytest.raises(error):
        call()


def test_metric_table_is_a_frozen_copy():
    # the metric kept the caller's table: after t[0, 1] = -5, rho2_sq was -5
    z3 = cyclic_model(3)
    t = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    metric = Pseudometric("discrete", z3, table_num=t)
    t[0, 1] = t[1, 0] = -5
    assert rho2_sq(metric, [0], [1]) == 1
    assert not metric.table_num.flags.writeable


def test_rho2_sums_over_python_ints():
    # four squared distances of 2^62 summed to 2^64, which wrapped int64 to 0
    metric = _far_metric(cyclic_model(3))
    assert rho2_sq(metric, [0, 1, 0, 1], [1, 0, 1, 0]) == BIG


def test_kernel_point_sums_over_python_ints():
    # 4x = 3q = 0 mod q for x = 3q/4, but 4x = 9 * 2^61 wrapped int64 to 2^61
    Z = GroupSpec.integers()
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [1]}, [Z.identity()])
    q = 3 * 2**61
    model = instantiate_Xf(IntegerGroupMatrix.single(Z, [(4, "e")]), sigma, q=q, tol=0)
    assert model.is_kernel_point([[3 * q // 4]]) and not model.is_kernel_point([[q // 4 + 1]])
    assert count_kernel_points(model, "grid-exact") == 4


def test_sigma_matrix_refuses_entries_past_int64():
    # t and t^4 meet in one entry on Z/3, where 2^62 + 2^62 wrapped to -2^63,
    # so continuous-exact counted |1 - 2^189| in place of 1 + 2^189; a single
    # coefficient 2^63 raised numpy's bare "Python int too large"
    Z = GroupSpec.integers()
    t = Z.generator(0)
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [3]}, [Z.identity(), t, Z.power(t, 4)])
    for pairs in ([(1, "e"), (2**62, "t"), (2**62, "t^4")], [(2**63, "e")], [(-(2**63), "t")]):
        with pytest.raises(OverflowError, match=r"block \(0, 0\)"):
            sigma_matrix(IntegerGroupMatrix.single(Z, pairs), sigma)
    # coefficients whose absolute sum is 2^63 - 1 still fit every entry
    f = IntegerGroupMatrix.single(Z, [(1, "e"), (2**62 - 2, "t"), (2**62, "t^4")])
    assert count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact") == 1 + (2**63 - 2) ** 3


def test_sigma_matrix_takes_coefficients_that_fill_separate_entries():
    # e and t fill separate entries on Z/3, each 2^62, but the block's
    # absolute sum 2^63 was refused; continuous-exact is |det 2^62 (I + P)|
    Z = GroupSpec.integers()
    t = Z.generator(0)
    sigma = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [3]}, [Z.identity(), t])
    f = IntegerGroupMatrix.single(Z, [(BIG, "e"), (BIG, "t")])
    mat = sigma_matrix(f, sigma)
    shift = np.eye(3, dtype=np.int64)[sigma.perm(t)].T
    assert mat.dtype == np.int64 and mat.tolist() == (BIG * (np.eye(3, dtype=np.int64) + shift)).tolist()
    assert abs(sympy.Matrix(mat.tolist()).det()) == 2**187
    assert count_kernel_points(instantiate_Xf(f, sigma, q=2, tol=0), "continuous-exact") == 2**187


def test_integer_input_of_every_integer_dtype_is_read():
    # numpy integers, narrow dtypes and Python ints past int64 are read exactly
    z4 = cyclic_model(4)
    mu = SiteMeasure(z4, np.array([2, 0, 2, 0], dtype=np.uint8), np.int32(4))
    assert mu.den == 2 and mu.num.tolist() == [1, 0, 1, 0] and not mu.num.flags.writeable
    huge = SiteMeasure(z4, [BIG] * 4, 2**64)
    assert huge.den == 4 and huge.num.tolist() == [1, 1, 1, 1]
    assert det_multimodular(np.array([[2**70, 0], [0, 1]], dtype=object)) == 2**70
    assert det_multimodular(np.array([[3, 1], [1, 2]], dtype=np.uint64)) == 5
    assert SiteMeasure.point_mass(TorusGridModel(3, 2), [2, 1]).num.tolist() == [0] * 7 + [1, 0]


def test_integer_candidates_are_read_without_a_copy():
    # an int64 batch is read in place; a narrower integer dtype is cast
    z3, torus = cyclic_model(3), TorusGridModel(4, 2)
    xs = np.array([[0, 2, 1]], dtype=np.int64)
    assert z3.point_indices(xs) is xs and z3.points_from_indices(xs) is xs
    assert z3.point_indices(xs.astype(np.uint8)).dtype == np.int64
    assert torus.point_indices(np.array([[3, 1], [0, 2]], dtype=np.int16)).tolist() == [13, 2]


def test_kernel_candidates_are_d_by_n_residue_arrays():
    # 1 - t on Z/3 with two codomain copies: candidates are 3 x 2, and every
    # listed kernel point is read back as one
    Z = GroupSpec.integers()
    sigma3 = quotient_sofic(Z, {"kind": "cyclic-powers", "orders": [3]}, [Z.identity(), Z.generator(0)])
    pair = instantiate_Xf(IntegerGroupMatrix.from_pairs(Z, [[[(1, "e")], [(-1, "t")]]]), sigma3, q=4, tol=0)
    pts = pair.enumerate_kernel()
    assert pts.shape[1:] == (3, 2) and all(pair.is_kernel_point(x) for x in pts)
    assert not pair.is_kernel_point([[1, 0], [0, 0], [0, 0]])
