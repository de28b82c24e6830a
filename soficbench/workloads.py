"""The three soficlab workloads: fixed operation lists, their oracles, the
sofic-ladder reach probes and the known-defect probes.

Each workload object is built in three steps:

* ``setup()`` imports ``soficlab`` afresh and ``build``s the fixed objects
  (group specs, integer group matrices, models, actions); this is what
  ``setup_s`` times;
* ``make_inputs(seed)`` draws every seeded input (F2 permutation seeds,
  candidate batches, measure weights) once, untimed;
* ``run_pass(ops)`` runs the fixed operation list once.  Every call into the
  package goes through ``ops.op``, which times it and then checks the result
  against an oracle from ``oracles.py`` (the check is not timed).

Calls into the package are written as ``self.sl.<module>.<function>`` so that
the traced run, which replaces module attributes, sees every one of them.
"""

from __future__ import annotations

import functools
import importlib
import math
import signal
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import oracles

LAYERS = ("groups", "actions", "intlin", "microstates", "measures")


def import_soficlab(fresh: bool = True) -> SimpleNamespace:
    """The package's layer modules; ``fresh`` drops any earlier import first,
    so that set-up pays for the import every time."""
    if fresh:
        for name in [m for m in sys.modules if m == "soficlab" or m.startswith("soficlab.")]:
            del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"soficlab.{m}") for m in LAYERS})


# On a shared 2-vCPU x86-64 VM the core's speed and the memory bandwidth
# were measured to change by up to 1.7x for seconds to minutes at a time,
# with no steal time reported and CPU time slowing as much as wall time.
# Every timed region is therefore bracketed by a fixed reference kernel and
# reported in reference-speed seconds: measured seconds times the kernel's
# nominal time over its mean time around the region.  The kernel does
# core-bound work, plus memory-bound work for workloads whose operations are
# memory-bound too; there this cut the 10-run spread of the pass time from
# 22-30% to 4-5%.
REF_CORE_S = 1e-3  # nominal time of the core-bound part
REF_MEMORY_S = 1e-3  # nominal time of the memory-bound part


@functools.cache
def _stream() -> np.ndarray:
    return np.ones(1 << 20)  # 8 MiB, past the per-core L2


def reference_kernel(memory_bound: bool) -> float:
    """Seconds taken by fixed core-bound work (interpreter loop, big
    integers), followed when ``memory_bound`` by two passes over an 8 MiB
    array."""
    buf = _stream() if memory_bound else None
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i
    x = 7**1500
    for i in range(40):
        acc ^= (x * (x + i)) & 0xFF
    if memory_bound:
        float(buf.sum())
        float((buf[::8] * 2.0).sum())
    return time.perf_counter() - t0


def reference_seconds(secs: float, r0: float, r1: float, memory_bound: bool) -> float:
    """Measured seconds scaled to the reference kernel's nominal speed."""
    nominal = REF_CORE_S + (REF_MEMORY_S if memory_bound else 0.0)
    return secs * nominal * 2 / (r0 + r1)


def timed(call, memory_bound: bool):
    """(result, measured seconds, reference-speed seconds) of ``call()``."""
    r0 = reference_kernel(memory_bound)
    t0 = time.perf_counter()
    out = call()
    secs = time.perf_counter() - t0
    return out, secs, reference_seconds(secs, r0, reference_kernel(memory_bound), memory_bound)


class Ops:
    """Runs and checks the operations of one pass.

    ``wall`` sums the reference-speed time spent inside operations only, and
    ``raw_wall`` the measured time.  A failure is an exception out of an
    operation or a result its oracle rejects; each one is kept with its module
    and message.  ``pause`` is a context-manager factory that stops the traced
    run from recording the oracle's own calls.
    """

    def __init__(self, pause=None, memory_bound: bool = False):
        self.memory_bound = memory_bound
        self.wall = 0.0
        self.raw_wall = 0.0
        self.times: list[tuple[str, float]] = []  # (operation, measured seconds) in call order
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self._pause = pause

    def op(self, name: str, call, check=None):
        self.attempted += 1
        r0 = reference_kernel(self.memory_bound)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:
            self._spent(name, time.perf_counter() - t0, r0)
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None
        self._spent(name, time.perf_counter() - t0, r0)
        if check is not None:
            if self._pause is not None:
                with self._pause():
                    why = check(out)
            else:
                why = check(out)
            if why:
                self.fail(name, f"oracle: {why}")
        return out

    def _spent(self, name: str, secs: float, r0: float) -> None:
        self.raw_wall += secs
        self.wall += reference_seconds(secs, r0, reference_kernel(self.memory_bound), self.memory_bound)
        self.times.append((name, secs))

    def fail(self, name: str, message: str) -> None:
        self.failures.append((name.split(".")[0], f"{name}: {message}"))


class ProbeTimeout(BaseException):
    """Raised by the interval timer when a probe level exceeds its cap.
    A BaseException, so no ``except Exception`` in the package can swallow it."""


def _on_alarm(signum, frame):
    raise ProbeTimeout()


def run_capped(call, cap_s: float):
    """(result, seconds) of ``call`` or (ProbeTimeout, cap) past ``cap_s``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            out = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ProbeTimeout:
        return ProbeTimeout, time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    return out, time.perf_counter() - t0


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


# ---------------------------------------------------------------------------
# sofic-ladder
# ---------------------------------------------------------------------------

# q and tolerance of each counting mode; grid-exact uses a prime q so that the
# oracle can be a rank over Z/q.
MODE_GRID = {
    "continuous-exact": (2, Fraction(0)),
    "grid-exact": (7, Fraction(0)),
    "grid-tolerance": (9, Fraction(1, 9)),
}
TOL_BOUND = 1  # residues within 1 of 0 mod 9 (tol = 1/9)

# The fixed operation list: (family, size, modes).  Size is d for Z and F2 and
# the side n of the n x n torus for Z2.  The modes at each level are those
# that finished there when the benchmark was defined; the reach probes go
# further.
LEVELS = (
    ("Z", 8, ("continuous-exact", "grid-exact", "grid-tolerance")),
    ("Z", 64, ("continuous-exact", "grid-exact")),
    ("Z", 128, ("continuous-exact", "grid-exact")),
    ("Z2", 2, ("continuous-exact", "grid-exact", "grid-tolerance")),
    ("Z2", 3, ("continuous-exact", "grid-exact")),
    ("Z2", 8, ("continuous-exact",)),
    ("Z2", 12, ("continuous-exact",)),
    ("F2", 6, ("continuous-exact", "grid-exact", "grid-tolerance")),
    ("F2", 8, ("continuous-exact", "grid-exact")),
    ("F2", 64, ("continuous-exact",)),
    ("F2", 128, ("continuous-exact",)),
)
PERTURB_LEVEL = ("F2", 128, Fraction(1, 16))

# Reach probes: a geometric ladder per family, one cap per level.
LADDER = {
    "Z": tuple(2**k for k in range(1, 11)),
    "Z2": (2, 4, 8, 16, 32),
    "F2": tuple(2**k for k in range(1, 11)),
}
# grid-tolerance climbs Z only: Z is the one family with an oracle (a
# transfer-matrix trace) at every d; Z2 and F2 are brute-forced in LEVELS.
REACH_FAMILIES = {
    "continuous-exact": ("Z", "Z2", "F2"),
    "grid-exact": ("Z", "Z2", "F2"),
    "grid-tolerance": ("Z",),
}
CAP_S = 4.0  # about midway (geometrically) between the slowest level reached and the first one missed


class SoficLadder:
    name = "sofic-ladder"
    memory_bound = False  # big-integer elimination on small matrices

    def setup(self) -> None:
        self.build(import_soficlab())

    def build(self, sl) -> None:
        self.sl = sl
        G, IGM = sl.groups.GroupSpec, sl.actions.IntegerGroupMatrix
        Z, Z2, F2 = G.integers(), G.integers2(), G.free(2)
        self.fam = {
            "Z": (Z, IGM.single(Z, [(3, "e"), (-1, "t")])),
            "Z2": (Z2, IGM.single(Z2, [(5, "e"), (-1, "s"), (-1, "s^-1"), (-1, "t"), (-1, "t^-1")])),
            "F2": (F2, IGM.single(F2, [(5, "e"), (-1, "a"), (-1, "a^-1"), (-1, "b"), (-1, "b^-1")])),
        }

    def make_inputs(self, seed: int) -> None:
        rng = _rng(seed, 0x1ADD)
        self.f2_seed = int(rng.integers(0, 2**31))
        self.perturb_seed = int(rng.integers(0, 2**31))

    def quotient(self, fam: str, size: int) -> dict:
        if fam == "Z":
            return {"kind": "cyclic-powers", "orders": [size]}
        if fam == "Z2":
            return {"kind": "cyclic-powers", "orders": [size, size]}
        return {"kind": "random-permutations", "degree": size, "seed": self.f2_seed}

    # -- oracles --------------------------------------------------------------

    def own_matrix(self, fam: str, sigma) -> np.ndarray:
        f = self.fam[fam][1]
        return oracles.dense_matrix([(sigma.perm(g), c) for g, c in f.entries[0][0].items()], sigma.d)

    def check_sigma(self, fam: str, sigma) -> str | None:
        spec = self.fam[fam][0]
        table = sigma.table
        if not (table[spec.identity()] == np.arange(sigma.d)).all():
            return "sigma(e) is not the identity"
        for g in table:
            for h in table:
                gh = spec.multiply(g, h)
                if gh in table and not (table[g][table[h]] == table[gh]).all():
                    return f"sigma({g})sigma({h}) != sigma({gh})"
        return None

    def check_matrix(self, fam: str, sigma, model) -> str | None:
        own = self.own_matrix(fam, sigma)
        return None if np.array_equal(model.matrix, own) else "f^(sigma) differs from sum_g c_g P_g"

    def check_count(self, fam: str, size: int, sigma, mode: str, count: int) -> str | None:
        d = sigma.d
        if mode == "continuous-exact":
            if fam == "Z":
                return oracles.check_z_det(count, d)
            if fam == "Z2":
                return oracles.check_log_det(count, oracles.torus_log_mahler_sum(size, size), d)
            return oracles.check_log_det(count, oracles.slogdet_abs(self.own_matrix(fam, sigma)), d)
        q = MODE_GRID[mode][0]
        if mode == "grid-exact":
            want = oracles.z_grid_count(d, q) if fam == "Z" else oracles.kernel_count_prime(
                self.own_matrix(fam, sigma), q
            )
        elif fam == "Z":
            want = oracles.z_tolerance_count(d, q, TOL_BOUND)
        else:
            want = oracles.brute_tolerance_count(self.own_matrix(fam, sigma), q, TOL_BOUND)
        return None if count == want else f"count {count} != oracle {want}"

    # -- the operation list ---------------------------------------------------

    def level(self, ops: Ops, fam: str, size: int, modes) -> object:
        sl = self.sl
        spec, f = self.fam[fam]
        sigma = ops.op(
            "groups.quotient_sofic",
            lambda: sl.groups.quotient_sofic(spec, self.quotient(fam, size), f.support()),
            lambda s: self.check_sigma(fam, s),
        )
        if sigma is not None:
            self.count_modes(ops, fam, size, sigma, modes)
        return sigma

    def count_modes(self, ops: Ops, fam: str, size: int, sigma, modes) -> None:
        sl = self.sl
        f = self.fam[fam][1]
        for mode in modes:
            q, tol = MODE_GRID[mode]
            model = ops.op(
                "actions.instantiate_Xf",
                lambda: sl.actions.instantiate_Xf(f, sigma, q, tol),
                lambda m: self.check_matrix(fam, sigma, m),
            )
            if model is None:
                continue
            ops.op(
                "actions.count_kernel_points",
                lambda: sl.actions.count_kernel_points(model, mode),
                lambda c: self.check_count(fam, size, sigma, mode, c),
            )

    def run_pass(self, ops: Ops) -> None:
        base = None
        for fam, size, modes in LEVELS:
            sigma = self.level(ops, fam, size, modes)
            if (fam, size) == PERTURB_LEVEL[:2]:
                base = sigma
        if base is None:
            return
        sl = self.sl
        fam, size, rate = PERTURB_LEVEL
        support = self.fam[fam][1].support()
        moved = ops.op(
            "groups.perturb",
            lambda: sl.groups.perturb(base, float(rate), self.perturb_seed),
            lambda s: self.check_perturbed(base, s, rate),
        )
        if moved is None:
            return
        ops.op(
            "groups.sofic_defects",
            lambda: sl.groups.sofic_defects(moved, support),
            lambda rep: self.check_defects(fam, moved, support, rep),
        )
        self.count_modes(ops, fam, size, moved, ("continuous-exact",))

    def check_perturbed(self, base, moved, rate) -> str | None:
        swaps = math.ceil(rate * base.d)
        for g, perm in base.table.items():
            changed = int((moved.perm(g) != perm).sum())
            if changed > 2 * swaps:
                return f"{changed} entries of sigma({g}) moved by {swaps} transpositions"
        return None

    def check_defects(self, fam, sigma, support, report) -> str | None:
        spec = self.fam[fam][0]
        table = sigma.table
        want_pairs = {}
        for g in support:
            for h in support:
                gh = spec.multiply(g, h)
                if gh in table:
                    bad = int((table[g][table[h]] != table[gh]).sum())
                    want_pairs[(g, h)] = Fraction(bad, sigma.d)
        idx = np.arange(sigma.d)
        want_fixed = {
            g: Fraction(int((table[g] == idx).sum()), sigma.d)
            for g in support
            if g != spec.identity()
        }
        if dict(report.pair_defects) != want_pairs:
            return "pair defects differ"
        if dict(report.fixed_fractions) != want_fixed:
            return "fixed-point fractions differ"
        return None

    # -- reach probes -----------------------------------------------------------

    def reach(self, ops: Ops, log) -> dict[str, float]:
        """reach_d.<mode>: geometric mean over the probed families of the
        largest ladder d whose count finishes inside CAP_S and matches its
        oracle.  A timeout or a refusal (budget error) ends the climb; a wrong
        count ends it and is a failure."""
        sl = self.sl
        out = {}
        for mode, fams in REACH_FAMILIES.items():
            q, tol = MODE_GRID[mode]
            reached = []
            for fam in fams:
                spec, f = self.fam[fam]
                best = 0
                for size in LADDER[fam]:
                    sigma = sl.groups.quotient_sofic(spec, self.quotient(fam, size), f.support())
                    model = sl.actions.instantiate_Xf(f, sigma, q, tol)
                    try:
                        count, secs = run_capped(lambda: sl.actions.count_kernel_points(model, mode), CAP_S)
                    except Exception as exc:
                        log(f"reach {mode} {fam} d={sigma.d}: refused ({type(exc).__name__}: {exc})")
                        break
                    if count is ProbeTimeout:
                        log(f"reach {mode} {fam} d={sigma.d}: over the {CAP_S:g} s cap")
                        break
                    ops.attempted += 1
                    why = self.check_count(fam, size, sigma, mode, count)
                    if why:
                        ops.fail("actions.count_kernel_points", f"reach {mode} {fam} d={sigma.d}: oracle: {why}")
                        break
                    log(f"reach {mode} {fam} d={sigma.d}: ok in {secs:.3f} s")
                    best = sigma.d
                reached.append(best)
            out[f"reach_d.{mode}"] = float(math.prod(reached) ** (1 / len(reached)))
        return out


# ---------------------------------------------------------------------------
# microstates
# ---------------------------------------------------------------------------

MASK_D, MASK_N = 20, 200_000
MASK_DELTA = Fraction(1, 2)
BRUTE_D = 12  # 3^12 candidates
EQUIV_DELTA = Fraction(1, 8)  # delta^2 <= 1/d: forces exact equivariance at d <= 64
TRIVIAL_CYCLE, TRIVIAL_COPIES = 4, 11  # 3^11 equivariant solutions
SAMPLE_DELTA = Fraction(1, 4)
# The topological window finds every sample; 32 of them keep the seed's share
# of the sampling time small.  The measure window (indicator panel) finds none
# at d = 30: the ROADMAP's empty-result defect, kept as found.
SAMPLE_TOP_D, SAMPLE_TOP_N = 16, 32
SAMPLE_MEAS_D, SAMPLE_MEAS_N = 30, 4


class Microstates:
    name = "microstates"
    memory_bound = True  # masks over 32 MB candidate batches

    def setup(self) -> None:
        self.build(import_soficlab())

    def build(self, sl) -> None:
        self.sl = sl
        A, M = sl.actions, sl.microstates
        self.Z = Z = sl.groups.GroupSpec.integers()
        self.model = model = A.cyclic_model(3)
        self.neg = A.AutomorphismAction(Z, model, generator_maps={"t": A.unit_automorphism(model, -1)})
        self.triv = A.trivial_action(Z, model)
        self.metric = M.discrete_metric(model)
        self.e, self.t = Z.identity(), Z.generator(0)
        self.support = (self.e, self.t, Z.inverse(self.t))
        self.F = (self.e, self.t)
        uniform = sl.measures.SiteMeasure.uniform(model)
        self.window_mask = M.MapWindow(F=self.F, delta=MASK_DELTA, L=M.indicator_panel(model), target=uniform)
        self.window_top = M.MapWindow(F=(self.t,), delta=SAMPLE_DELTA, L=(), target=uniform)
        self.window_meas = M.MapWindow(
            F=(self.t,), delta=SAMPLE_DELTA, L=M.indicator_panel(model), target=uniform
        )

    def make_inputs(self, seed: int) -> None:
        """Half uniform candidates, half exact solutions x_j = (-1)^j c with up
        to three coordinates redrawn, so the masks see both outcomes."""
        rng = _rng(seed, 0x3A5C)
        half = MASK_N // 2
        uniform = rng.integers(0, 3, size=(half, MASK_D))
        c = rng.integers(0, 3, size=(MASK_N - half, 1))
        near = (c * (-1) ** np.arange(MASK_D)[None, :]) % 3
        for _ in range(3):
            rows = np.nonzero(rng.random(near.shape[0]) < 0.5)[0]
            near[rows, rng.integers(0, MASK_D, size=rows.size)] = rng.integers(0, 3, size=rows.size)
        self.batch = np.concatenate([uniform, near]).astype(np.int64)
        self.sample_seed = int(rng.integers(0, 2**31))

    def sigma(self, ops: Ops, d: int, copies: int = 1):
        sl = self.sl
        q = {"kind": "cyclic-powers", "orders": [d], "copies": copies}
        return ops.op(
            "groups.quotient_sofic",
            lambda: sl.groups.quotient_sofic(self.Z, q, self.support),
            lambda s: None if (s.perm(self.t) == (np.arange(s.d) // d) * d + (np.arange(s.d) % d + 1) % d).all()
            else "sigma(t) is not the shift on each block",
        )

    def maps(self, sigma, action, F) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(sigma.perm(g), action.point_map(g)) for g in F]

    def run_pass(self, ops: Ops) -> None:
        sl, M = self.sl, self.sl.microstates
        model, neg, metric = self.model, self.neg, self.metric

        s20 = self.sigma(ops, MASK_D)
        if s20 is not None:
            maps = self.maps(s20, neg, self.F)
            top = oracles.top_mask_discrete(self.batch, maps, MASK_D, MASK_DELTA)
            ops.op(
                "microstates.top_microstate_mask",
                lambda: M.top_microstate_mask(self.batch, s20, self.F, MASK_DELTA, metric, neg),
                lambda got: None if np.array_equal(got, top) else f"{int((got != top).sum())} mask entries differ",
            )
            meas = top & oracles.panel_mask_uniform(self.batch, 3, MASK_DELTA)
            ops.op(
                "microstates.meas_microstate_mask",
                lambda: M.meas_microstate_mask(self.batch, s20, self.window_mask, metric, neg),
                lambda got: None if np.array_equal(got, meas) else f"{int((got != meas).sum())} mask entries differ",
            )

        s12 = self.sigma(ops, BRUTE_D)
        if s12 is not None:
            every = oracles.all_candidates(3, BRUTE_D)
            maps = self.maps(s12, neg, self.F)
            ops.op(
                "microstates.enumerate_top_microstates",
                lambda: M.enumerate_top_microstates(model, s12, self.F, MASK_DELTA, metric, neg),
                lambda got: oracles.check_same_rows(
                    got, every[oracles.top_mask_discrete(every, maps, BRUTE_D, MASK_DELTA)]
                ),
            )
            # delta forces exact equivariance: the equivariant solver must agree
            # with brute force over all 3^12 candidates
            ops.op(
                "microstates.enumerate_top_microstates",
                lambda: M.enumerate_top_microstates(model, s12, self.F, EQUIV_DELTA, metric, neg),
                lambda got: oracles.check_same_rows(
                    got, every[oracles.top_mask_discrete(every, maps, BRUTE_D, EQUIV_DELTA)]
                ),
            )
            del every

        blocks = self.sigma(ops, TRIVIAL_CYCLE, TRIVIAL_COPIES)
        if blocks is not None:
            ops.op(
                "microstates.enumerate_top_microstates",
                lambda: M.enumerate_top_microstates(model, blocks, self.F, EQUIV_DELTA, metric, self.triv),
                lambda got: oracles.check_block_constant(got, TRIVIAL_CYCLE, TRIVIAL_COPIES, 3),
            )

        for d, n, window in (
            (SAMPLE_TOP_D, SAMPLE_TOP_N, self.window_top),
            (SAMPLE_MEAS_D, SAMPLE_MEAS_N, self.window_meas),
        ):
            sigma = self.sigma(ops, d)
            if sigma is not None:
                ops.op(
                    "microstates.sample_microstates",
                    lambda: M.sample_microstates(model, sigma, window, metric, neg, n, self.sample_seed),
                    lambda got: self.check_samples(got, sigma, window, n),
                )

    def check_samples(self, got, sigma, window, requested: int) -> str | None:
        M = self.sl.microstates
        if got.shape[0] > requested:
            return f"{got.shape[0]} samples for {requested} requested"
        if got.shape[0] == 0:
            return None
        for row in got:
            if not M.is_meas_microstate(row, sigma, window, self.metric, self.neg):
                return "a sample fails is_meas_microstate"
        ok = oracles.top_mask_discrete(got, self.maps(sigma, self.neg, window.F), sigma.d, window.delta)
        if window.L:
            ok &= oracles.panel_mask_uniform(got, 3, window.delta)
        return None if ok.all() else "a sample fails the oracle's membership test"


# ---------------------------------------------------------------------------
# finite-dual
# ---------------------------------------------------------------------------

SET_D, SET_N = 3, 8  # candidates of length 3 on the 63-point dual model
CHAIN = 4  # measures in the SiteMeasure.convolve chain
MC_SAMPLES = 4096
PAIR_DELTA = Fraction(1, 4)  # forces exact equivariance for the doubled discrete metric at d = 3


class FiniteDual:
    name = "finite-dual"
    memory_bound = True  # 126 MB doubled tables

    def setup(self) -> None:
        self.build(import_soficlab())

    def build(self, sl) -> None:
        self.sl = sl
        G, IGM = sl.groups.GroupSpec, sl.actions.IntegerGroupMatrix
        self.C3, self.C5 = G.cyclic(3), G.cyclic(5)
        self.f3 = IGM.single(self.C3, [(4, "e"), (-1, "t")])  # K = 4^3 - 1 = 63
        self.f5 = IGM.single(self.C5, [(3, "e"), (-1, "t")])  # K = 3^5 - 1 = 242

    def make_inputs(self, seed: int) -> None:
        rng = _rng(seed, 0xD0A1)
        self.weights = [rng.integers(1, 10, size=63) for _ in range(CHAIN)]
        self.set_a = rng.integers(0, 63, size=(SET_N, SET_D))
        self.set_b = rng.integers(0, 63, size=(SET_N, SET_D))
        self.roots = rng.integers(0, 63, size=SET_N // 2)
        self.others = rng.integers(0, 63, size=(SET_N // 2, SET_D))
        self.mc_seed = int(rng.integers(0, 2**31))
        # ~10^6 denominator: the ROADMAP's reproduction of the convolve overflow
        self.big_weights = rng.integers(1, 2 * 10**6 // 63, size=63)

    # -- oracles --------------------------------------------------------------

    def check_dual(self, out, c: int, order: int) -> str | None:
        """The model has |det(cI - P)| = c^N - 1 points, every point x solves
        c x_g - x_{g+1} = 0 mod 1, and the table adds points coordinatewise."""
        model, action = out
        K = c**order - 1
        if model.n_points != K:
            return f"{model.n_points} points, want {K}"
        scaled = [[v * K for v in p] for p in model.labels]
        if any(v.denominator != 1 for row in scaled for v in row):
            return "a coordinate is not a multiple of 1/K"
        pts = np.array(scaled, dtype=np.int64)
        if not ((c * pts - np.roll(pts, -1, axis=1)) % K == 0).all():
            return "a point is not in the kernel"
        if len({tuple(r) for r in pts.tolist()}) != K:
            return "points repeat"
        summed = (pts[:, None, :] + pts[None, :, :]) % K
        if not (pts[model.mul] == summed).all():
            return "multiplication table is not coordinatewise addition"
        return None

    def check_verdicts(self, report) -> str | None:
        # det(cI - P) = c^N - 1 != 0, so lambda(f) is injective with dense image
        if report.lambda_injective.value is not True or report.lambda_dense_image.value is not True:
            return f"verdicts {report}"
        return None

    def equivariant_set(self, sigma, action) -> np.ndarray:
        """SET_N/2 exact solutions (x(sigma(t) j) = t.x(j)) and SET_N/2 seeded
        candidates that are not."""
        p, m = sigma.perm(self.C3.generator(0)), action.point_map(self.C3.generator(0))
        rows = []
        for r in self.roots:
            x = np.empty(SET_D, dtype=np.int64)
            j, v = 0, int(r)
            for _ in range(SET_D):
                x[j] = v
                j, v = int(p[j]), int(m[v])
            rows.append(x)
        for x in self.others:
            x = x.copy()
            x[p[0]] = (m[x[0]] + 1) % len(m)  # breaks x(sigma(t) 0) = t.x(0)
            rows.append(x)
        return np.array(rows, dtype=np.int64)

    def pair_ok(self, xs, sigma, action) -> np.ndarray:
        """Own pair-microstate test at PAIR_DELTA: both halves exactly equivariant."""
        K = action.model.n_points
        maps = [(sigma.perm(g), action.point_map(g)) for g in self.C3.elements()]
        a, b = np.divmod(xs, K)
        return (oracles.mismatch_counts(a, maps) == 0).all(axis=1) & (
            oracles.mismatch_counts(b, maps) == 0
        ).all(axis=1)

    # -- the operation list ---------------------------------------------------

    def run_pass(self, ops: Ops) -> None:
        sl = self.sl
        A, Me, M = sl.actions, sl.measures, sl.microstates
        dual3 = ops.op("actions.dual_model", lambda: A.dual_model(self.f3), lambda o: self.check_dual(o, 4, 3))
        ops.op("actions.verify_hypotheses", lambda: A.verify_hypotheses(self.f3), self.check_verdicts)
        ops.op("actions.dual_model", lambda: A.dual_model(self.f5), lambda o: self.check_dual(o, 3, 5))
        ops.op("actions.verify_hypotheses", lambda: A.verify_hypotheses(self.f5), self.check_verdicts)
        if dual3 is None:
            return
        model, action = dual3
        K = model.n_points
        mul = model.mul

        want = [int(v) for v in self.weights[0]]
        for w in self.weights[1:]:
            want = oracles.pushforward(np.array(want, dtype=object), w, mul)

        def chain():
            mu = Me.SiteMeasure(model, self.weights[0], int(self.weights[0].sum()))
            for w in self.weights[1:]:
                mu = mu.convolve(Me.SiteMeasure(model, w, int(w.sum())))
            return mu

        ops.op("measures.SiteMeasure.convolve", chain, lambda mu: oracles.check_site_weights(mu.num, mu.den, want))

        w1, w2 = self.weights[0], self.weights[1]
        site1 = Me.SiteMeasure(model, w1, int(w1.sum()))
        site2 = Me.SiteMeasure(model, w2, int(w2.sum()))
        prod_want = oracles.pushforward(w1, w2, mul)
        ops.op(
            "measures.convolve",
            lambda: Me.convolve(Me.ProductMeasure(site1, SET_D), Me.ProductMeasure(site2, SET_D)),
            lambda mu: oracles.check_site_weights(mu.site.num, mu.site.den, prod_want)
            if isinstance(mu, Me.ProductMeasure) else f"got {type(mu).__name__}",
        )
        ua, ub = Me.UniformOnSet(model, self.set_a), Me.UniformOnSet(model, self.set_b)
        conv = ops.op(
            "measures.convolve",
            lambda: Me.convolve(ua, ub),
            lambda mu: oracles.check_atoms(
                mu.points, mu.weights_num, mu.weights_den, oracles.atoms_pushforward(self.set_a, self.set_b, mul)
            ),
        )
        if conv is not None:
            col = [0] * K
            for x in self.set_a[:, 1]:
                for y in self.set_b[:, 1]:
                    col[int(mul[x, y])] += 1
            ops.op(
                "measures.marginal",
                lambda: Me.marginal(conv, 1),
                lambda out: oracles.check_site_weights(out[0].num, out[0].den, col),
            )

        pair_want = np.outer(w1, w1).reshape(-1).tolist()
        ops.op(
            "measures.doubled",
            lambda: Me.doubled(Me.ProductMeasure(site1, SET_D)),
            lambda mu: oracles.check_site_weights(mu.site.num, mu.site.den, pair_want)
            if isinstance(mu, Me.ProductMeasure) and mu.model.n_points == K * K else "not a doubled product",
        )

        sigma = ops.op(
            "groups.quotient_sofic",
            lambda: sl.groups.quotient_sofic(self.C3, {"kind": "regular"}, self.C3.elements()),
        )
        if sigma is None:
            return
        S = self.equivariant_set(sigma, action)
        uS = Me.UniformOnSet(model, S)
        dU = ops.op(
            "measures.doubled",
            lambda: Me.doubled(uS),
            lambda mu: None if mu.d == SET_D and mu.model.n_points == K * K else "wrong doubled space",
        )
        if dU is None:
            return
        counts = np.bincount(S[:, 0], minlength=K)
        ops.op(
            "measures.marginal",
            lambda: Me.marginal(dU, 0),
            lambda out: oracles.check_site_weights(out[0].num, out[0].den, np.outer(counts, counts).reshape(-1).tolist()),
        )
        pairs = {}
        for x in S:
            for y in S:
                key = np.ascontiguousarray(x * K + y, dtype=np.int64).tobytes()
                pairs[key] = pairs.get(key, Fraction(0)) + Fraction(1, SET_N * SET_N)
        ops.op(
            "measures.exact_support",
            lambda: Me.exact_support(dU),
            lambda sup: oracles.check_atoms(sup.points, sup.weights_num, sup.weights_den, pairs),
        )

        sample_idx = _rng(self.mc_seed, 1).integers(0, K * K, size=(2, 4096))
        dm = ops.op(
            "microstates.doubled_metric",
            lambda: M.doubled_metric(M.discrete_metric(model)),
            lambda m: self.check_doubled_metric(m, K, sample_idx),
        )
        da = ops.op(
            "actions.diagonal_action",
            lambda: A.diagonal_action(action),
            lambda a: self.check_diagonal(a, action, K),
        )
        if dm is None or da is None:
            return
        F = tuple(self.C3.elements())

        def predicate(xs):
            return M.top_microstate_mask(xs, sigma, F, PAIR_DELTA, dm, da)

        ok = self.pair_ok(S, sigma, action)
        exact = Fraction(int(ok.sum()) ** 2, SET_N * SET_N)
        ops.op(
            "measures.mass",
            lambda: Me.mass(dU, predicate),
            lambda est: None if est.exact and est.fraction == exact else f"mass {est} != {exact}",
        )
        ops.op(
            "measures.mass",
            lambda: Me.mass(dU, predicate, budget=16, n_samples=MC_SAMPLES, rng=_rng(self.mc_seed, 2)),
            lambda est: "took the exact path" if est.n_samples is None else oracles.check_mc(est.value, exact, MC_SAMPLES),
        )

    def check_doubled_metric(self, metric, K, idx) -> str | None:
        if metric.table_num.shape != (K * K, K * K) or metric.den != 2:
            return "wrong table shape or denominator"
        (a, b), (c, e) = np.divmod(idx[0], K), np.divmod(idx[1], K)
        want = (a != c).astype(np.int64) + (b != e)
        return None if (metric.table_num[idx[0], idx[1]] == want).all() else "table entries differ"

    def check_diagonal(self, diag, action, K) -> str | None:
        for g in self.C3.elements():
            m = action.point_map(g)
            a, b = np.divmod(np.arange(K * K), K)
            if not (diag.point_map(g) == m[a] * K + m[b]).all():
                return f"diagonal map of {g} differs"
        return None

    def defect_probes(self, ops: Ops) -> None:
        """Three self-convolutions of a measure with denominator ~10^6 (the
        ROADMAP's int64 overflow reproduction), checked against exact weights."""
        sl = self.sl
        model, _ = sl.actions.dual_model(self.f3)
        w = self.big_weights
        want = [int(v) for v in w]
        for _ in range(3):
            want = oracles.pushforward(np.array(want, dtype=object), w, model.mul)

        def chain():
            mu = sl.measures.SiteMeasure(model, w, int(w.sum()))
            out = mu
            for _ in range(3):
                out = out.convolve(mu)
            return out

        ops.op("measures.SiteMeasure.convolve", chain, lambda mu: oracles.check_site_weights(mu.num, mu.den, want))


WORKLOADS = {w.name: w for w in (SoficLadder, Microstates, FiniteDual)}
