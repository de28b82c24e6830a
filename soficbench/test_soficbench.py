"""Self-tests of the benchmark: declared metrics, oracles, seeding, recorder.

Run with ``python -m pytest soficbench`` from the repository root.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from soficbench import layers, oracles, workloads  # noqa: E402
from soficbench.recorder import Recorder  # noqa: E402


def _built(cls, seed=None):
    """A workload built on the package as already imported (tests must not
    re-import it under other tests' feet)."""
    wl = cls()
    wl.build(workloads.import_soficlab(fresh=False))
    if seed is not None:
        wl.make_inputs(seed)
    return wl


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- declared metrics ---------------------------------------------------------------


def test_end_to_end_names_match_benchmark_json():
    declared = {(m["name"], m["unit"]) for m in _declared()["end_to_end"]}
    assert declared == set(layers.END_TO_END)


def test_per_layer_names_match_benchmark_json():
    declared = {(m["name"], m["unit"]) for m in _declared()["per_layer"]}
    assert declared == set(layers.PER_LAYER)


def test_layer_metrics_plus_run_level_metrics_cover_per_layer():
    computed = set(layers.layer_metrics([], []))
    added_by_run = {f"reach_d.{mode}" for mode in workloads.REACH_FAMILIES} | {"trace.overhead_s"}
    assert computed | added_by_run == {n for n, _ in layers.PER_LAYER}
    assert not computed & added_by_run


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.WORKLOADS)


# -- oracles reject wrong answers ----------------------------------------------------


@pytest.fixture(scope="module")
def ladder():
    return _built(workloads.SoficLadder, 1)


@pytest.mark.parametrize(
    "fam,size,mode",
    [
        ("Z", 6, "continuous-exact"),
        ("Z", 6, "grid-exact"),
        ("Z", 6, "grid-tolerance"),
        ("Z2", 2, "continuous-exact"),
        ("Z2", 2, "grid-exact"),
        ("Z2", 2, "grid-tolerance"),
        ("F2", 4, "continuous-exact"),
        ("F2", 4, "grid-exact"),
        ("F2", 4, "grid-tolerance"),
    ],
)
def test_count_oracles_accept_right_and_reject_wrong(ladder, fam, size, mode):
    sl = ladder.sl
    spec, f = ladder.fam[fam]
    sigma = sl.groups.quotient_sofic(spec, ladder.quotient(fam, size), f.support())
    q, tol = workloads.MODE_GRID[mode]
    count = sl.actions.count_kernel_points(sl.actions.instantiate_Xf(f, sigma, q, tol), mode)
    assert ladder.check_count(fam, size, sigma, mode, count) is None
    assert ladder.check_count(fam, size, sigma, mode, count + 1) is not None
    assert ladder.check_count(fam, size, sigma, mode, 2 * count) is not None


def test_transfer_matrix_matches_brute_force():
    for d in (2, 3, 5):
        perm = (np.arange(d) + 1) % d
        mat = oracles.dense_matrix([(np.arange(d), 3), (perm, -1)], d)
        assert oracles.z_tolerance_count(d, 9, 1) == oracles.brute_tolerance_count(mat, 9, 1)


def test_rank_mod_p_matches_sympy():
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.integers(-3, 4, size=(6, 6))
        m[5] = m[0] + 2 * m[1]
        want = DomainMatrix.from_list_sympy(6, 6, m.tolist()).convert_to(GF(7)).rank()
        assert oracles.rank_mod_p(m, 7) == want
        assert oracles.kernel_count_prime(m, 7) == 7 ** (6 - want)


def test_microstate_mask_oracle_rejects_a_flipped_entry():
    wl = _built(workloads.Microstates, 3)
    sl = wl.sl
    sigma = sl.groups.quotient_sofic(wl.Z, {"kind": "cyclic-powers", "orders": [workloads.MASK_D]}, wl.support)
    xs = np.concatenate([wl.batch[:1000], wl.batch[-1000:]])  # uniform and near-solutions
    got = sl.microstates.top_microstate_mask(xs, sigma, wl.F, workloads.MASK_DELTA, wl.metric, wl.neg)
    want = oracles.top_mask_discrete(xs, wl.maps(sigma, wl.neg, wl.F), workloads.MASK_D, workloads.MASK_DELTA)
    assert np.array_equal(got, want)
    assert 0 < want.sum() < want.size  # the batch has members and non-members
    flipped = want.copy()
    flipped[0] = not flipped[0]
    assert not np.array_equal(got, flipped)
    rows = sl.microstates.enumerate_top_microstates(wl.model, sigma, wl.F, workloads.EQUIV_DELTA, wl.metric, wl.neg)
    assert oracles.check_same_rows(rows, rows) is None
    assert oracles.check_same_rows(rows[:-1], rows) is not None
    assert oracles.check_block_constant(np.zeros((3, 4), dtype=np.int64), 2, 2, 3) is not None


def test_measure_oracles_reject_wrong_weights():
    mul = (np.arange(5)[:, None] + np.arange(5)[None, :]) % 5
    wa, wb = np.array([1, 2, 0, 0, 1]), np.array([0, 1, 1, 3, 0])
    want = oracles.pushforward(wa, wb, mul)
    den = sum(want)
    assert oracles.check_site_weights(np.array(want), den, want) is None
    wrong = list(want)
    wrong[0] += 1
    wrong[1] -= 1
    assert oracles.check_site_weights(np.array(wrong), den, want) is not None
    pa, pb = np.array([[0, 1], [2, 3]]), np.array([[1, 1]])
    law = oracles.atoms_pushforward(pa, pb, mul)
    pts = np.array([[1, 2], [3, 4]])
    assert oracles.check_atoms(pts, [1, 1], 2, law) is None
    assert oracles.check_atoms(pts, [2, 0], 2, law) is not None
    assert oracles.check_mc(0.25, Fraction(1, 4), 4096) is None
    assert oracles.check_mc(0.35, Fraction(1, 4), 4096) is not None


def test_dual_model_oracle_rejects_a_wrong_table():
    wl = _built(workloads.FiniteDual)
    model, action = wl.sl.actions.dual_model(wl.f3)
    assert wl.check_dual((model, action), 4, 3) is None

    class Swapped:
        labels = model.labels
        n_points = model.n_points
        mul = model.mul[::-1]

    assert wl.check_dual((Swapped, action), 4, 3) is not None


def test_log_det_oracles():
    assert oracles.check_z_det(3**5 - 1, 5) is None
    assert oracles.check_z_det(3**5, 5) is not None
    log_want = oracles.torus_log_mahler_sum(3, 3)
    count = round(np.exp(log_want))
    assert oracles.check_log_det(count, log_want, 9) is None
    assert oracles.check_log_det(count + 1, log_want, 9) is not None


# -- seeding ----------------------------------------------------------------------------


def _inputs(seed):
    ms, fd, lad = (_built(cls, seed) for cls in (workloads.Microstates, workloads.FiniteDual, workloads.SoficLadder))
    spec, f = lad.fam["F2"]
    sigma = lad.sl.groups.quotient_sofic(spec, lad.quotient("F2", 16), f.support())
    return ms, fd, lad, sigma


def test_same_seed_same_inputs_different_seed_different_batches():
    a, b, c = _inputs(7), _inputs(7), _inputs(8)
    assert np.array_equal(a[0].batch, b[0].batch)
    assert all(np.array_equal(x, y) for x, y in zip(a[1].weights, b[1].weights))
    assert all(np.array_equal(a[3].perm(g), b[3].perm(g)) for g in a[3].table)
    assert not np.array_equal(a[0].batch, c[0].batch)
    assert not all(np.array_equal(x, y) for x, y in zip(a[1].weights, c[1].weights))
    assert not all(np.array_equal(a[3].perm(g), c[3].perm(g)) for g in a[3].table)


def test_different_seed_keeps_the_checked_results():
    counts = []
    for seed in (7, 8):
        lad = _built(workloads.SoficLadder, seed)
        ops = workloads.Ops()
        for fam, size in (("Z", 16), ("Z2", 3), ("F2", 6)):
            lad.level(ops, fam, size, ("continuous-exact", "grid-exact"))
        assert ops.failures == [] and ops.attempted == 15
        spec, f = lad.fam["Z2"]
        sigma = lad.sl.groups.quotient_sofic(spec, lad.quotient("Z2", 3), f.support())
        model = lad.sl.actions.instantiate_Xf(f, sigma, 2, 0)
        counts.append(lad.sl.actions.count_kernel_points(model, "continuous-exact"))
    assert counts[0] == counts[1]


# -- recorder ---------------------------------------------------------------------------


def test_recorder_traces_intra_module_calls_and_restores():
    sl = workloads.import_soficlab(fresh=False)
    original = sl.intlin.smith_normal_form
    rec = Recorder()
    rec.install(vars(sl), layers.extra_targets(sl), layers.ANNOTATORS)
    try:
        assert sl.intlin.kernel_count_mod([[2, 0], [0, 3]], 6) == 6
    finally:
        rec.uninstall()
    assert sl.intlin.smith_normal_form is original
    names = [s.name for s in rec.spans]
    assert names[0] == "intlin.kernel_count_mod"
    assert "intlin.smith_normal_form" in names  # reached through invariant_factors
    top = rec.spans[0]
    assert 0 <= top.self_s <= top.duration
    assert rec.self_s("intlin.kernel_count_mod") == pytest.approx(
        top.duration - sum(s.duration for s in rec.spans if s.parent == 0)
    )
    assert rec.info_max("intlin.smith_normal_form", "bits") >= 1


def test_recorder_pause_records_nothing():
    sl = workloads.import_soficlab(fresh=False)
    rec = Recorder()
    rec.install(vars(sl))
    try:
        with rec.paused():
            sl.intlin.det_bareiss([[1, 2], [3, 4]])
    finally:
        rec.uninstall()
    assert rec.spans == []
