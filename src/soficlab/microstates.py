"""Microstate spaces: the normalized l2 pseudometric rho2, topological and
measure-theoretic membership tests, enumeration, and randomized search.

A microstate candidate is an array of d model points: shape (d,) of point
indices for finite models, (d, sites) of residues for torus-grid models.
Batches stack candidates along a leading axis.

Thresholds are exact: built-in metrics carry squared distances as integers
over a common denominator, and each rational threshold is turned once into an
inclusive integer range for those numerators, which int64 arrays are then
compared against.  The membership rule is strict inequality with the
zero-distance case admitted (so exactly equivariant candidates pass at every
delta, including 0).  ``_band`` is that one rule, for the top test and for
the panel functions, whose values are integers over a denominator too.

Membership streams: a batch is tested one row block of ``_BLOCK_COORDS``
coordinates at a time, and each block is copied once coordinates first, so
that sigma(g) moves whole rows of the copy and every integer sum over the d
coordinates adds d contiguous rows.  Brute-force enumeration searches
lexicographic prefixes depth first: the squared distances are >= 0, so a
prefix whose partial distance sum for some edge is already past the band is
dropped with all its completions.  The complete candidates left go through
the membership test in blocks of no more rows, and the search holds at
most d pending chunks of prefixes plus the survivors.

Randomized search draws from one generator per requested sample, through a
buffer of 32-bit words that gives numpy's own bounded draws, so the samples
do not depend on the buffering.  The samples' searches run in lockstep, and
each round of repaired candidates goes through one membership call.
Candidates are read by the model, which refuses floats and entries out of
range; the metric, the action and every model must share one group law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .actions import (
    AutomorphismAction,
    CompactGroupModel,
    FiniteModel,
    PairModel,
    TorusGridModel,
    _check_same_model,
    product_model,
)
from .errors import BudgetExceededError, ValidationError, _Record
from .groups import GroupElement, SoficApproximation
from .intlin import _int_table, _integer, _read_fraction
from .measures import SiteMeasure


# ---------------------------------------------------------------------------
# pseudometrics
# ---------------------------------------------------------------------------


class Pseudometric(_Record, eq=False, hidden=("table_num", "largest", "min_positive_sq", "separates")):
    """A pseudometric on model points via squared distances.

    Squared distances are exact, ``num/den`` with ``den`` an integer >= 1:
    finite models tabulate the numerators in ``table_num`` (an n x n array,
    or a ``PairTable`` over a ``PairModel`` for a doubled metric); torus
    metrics have no table and compute them from residues.  ``_read_table``
    reads the table once, and the metric keeps what it derives: the largest
    numerator, the least positive squared distance (None when every
    distance is 0) and whether distinct points are at positive distance.
    """

    name: str
    model: CompactGroupModel
    table_num: np.ndarray | PairTable | None
    den: int
    largest: int
    min_positive_sq: Fraction | None
    separates: bool

    def __init__(
        self, name: str, model: CompactGroupModel, table_num: np.ndarray | PairTable | None = None, den: int = 1
    ):
        den = _integer(den, "a metric's denominator", least=1)
        table, largest, least, separates = _read_table(table_num, model)
        least = None if least is None else Fraction(least, den)
        super().__init__(name, model, table, den, largest, least, separates)


def _read_table(table, model: CompactGroupModel) -> tuple:
    """(table, largest, least positive, separates) for a metric's table on
    ``model``.  An array must be an integer, nonnegative, symmetric n x n
    table with a zero diagonal, and is kept as a read-only copy.  A
    ``PairTable`` needs a ``PairModel``, and its factor is read against the
    factor model: its entries add two factor entries, so its largest is
    twice the factor's and the rest are the factor's.  A torus has no table:
    a site is at most q // 2 from another around the circle, and 1 at the
    least."""
    if isinstance(table, PairTable):
        if not isinstance(model, PairModel):
            raise ValidationError(f"a PairTable table_num needs a doubled PairModel, not {model!r}")
        factor, largest, least, separates = _read_table(table.factor, model.factor)
        return PairTable(factor), 2 * largest, least, separates
    # a table reads point indices, which only a finite model's points are
    if (table is not None) != isinstance(model, FiniteModel):
        raise ValidationError("a finite model needs a table_num, a torus model none")
    if table is None:
        return None, model.sites * (model.q // 2) ** 2, 1, True
    t, n = _int_table(table, "table_num"), model.n_points
    if t.shape != (n, n) or (t < 0).any() or np.diagonal(t).any() or not np.array_equal(t, t.T):
        raise ValidationError(f"table_num must be a nonnegative symmetric {n} x {n} table with a zero diagonal")
    positive = t[t > 0]
    return t, int(t.max()), int(positive.min()) if positive.size else None, positive.size == n * n - n


def discrete_metric(model: FiniteModel) -> Pseudometric:
    """0/1 metric on a finite model; bi-invariant, diameter 1."""
    n = model.n_points
    table = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return Pseudometric(name="discrete", model=model, table_num=table, den=1)


def torus_metric(model: TorusGridModel) -> Pseudometric:
    """Flat quotient metric, squared and averaged over sites:
    sq(x, y) = (1/sites) * sum_s (circle distance of (x_s - y_s)/q)^2."""
    return Pseudometric(name="torus-l2", model=model, den=model.sites * model.q**2)


class PairTable:
    """The n^2 x n^2 table of a doubled table metric, computed on demand.

    Entry [i, j] for pair indices i, j is t[i // n, j // n] + t[i % n, j % n],
    with t the n x n factor table; only t is stored.  t is a PairTable (the
    table of a metric doubled twice) or a square integer table, kept as a
    read-only int64 copy.  Indexing takes integer arrays of any matching
    shape, like ``ndarray[i, j]``.
    """

    def __init__(self, factor):
        if not isinstance(factor, PairTable):
            factor = _int_table(factor, "a PairTable factor")
            if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
                raise ValidationError(f"a PairTable factor must be a square table, not of shape {factor.shape}")
        self.factor = factor
        n = factor.shape[0]
        self.shape = (n * n, n * n)
        self.nbytes = factor.nbytes

    def __getitem__(self, key):
        i, j = key
        n = self.factor.shape[0]
        i1, i2 = np.divmod(i, n)
        j1, j2 = np.divmod(j, n)
        return self.factor[i1, j1] + self.factor[i2, j2]


def doubled_metric(metric: Pseudometric) -> Pseudometric:
    """The metric on X x X averaging the squared per-factor distances: the
    numerators of the two factors add, and the denominator doubles.

    A table metric keeps its factor table behind a lazy ``PairTable``, so no
    n^2 x n^2 table is built.  A torus metric has no table: its doubled
    model has twice the sites, and their squared circle distances add.
    """
    table = None if metric.table_num is None else PairTable(metric.table_num)
    return Pseudometric(f"{metric.name}^2", product_model(metric.model), table_num=table, den=2 * metric.den)


# -- rho2 ---------------------------------------------------------------------


def _sq_nums(metric: Pseudometric, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise squared distances (numerators over metric.den).

    x, y are int64 arrays of points of matching shape: indices (...) for a
    table metric, residue rows (..., sites) for a torus metric, whose sites
    axis is summed.  The result has the leading point shape (...), which
    membership gives as (d, rows) for a coordinates-first block.  An n x n
    table is read by one gather from its flat view, at x * n + y.
    """
    table = metric.table_num
    if isinstance(table, PairTable):
        return table[x, y]
    if table is not None:
        return table.ravel().take(x * table.shape[0] + y)
    q = metric.model.q
    dx = np.abs(x - y)
    m = np.minimum(dx, q - dx)
    return (m * m).sum(axis=-1)


def rho2_sq(metric: Pseudometric, x: np.ndarray, y: np.ndarray) -> Fraction:
    """Exact squared rho2: the mean of squared point distances, summed over
    Python ints so that no int64 sum can wrap.  x and y are two candidates of
    one length d >= 1."""
    x, y = metric.model.read_points(x, "a candidate"), metric.model.read_points(y, "a candidate")
    if x.shape != y.shape or x.ndim != 1 + np.ndim(metric.model.identity) or not len(x):
        raise ValidationError(f"rho2 needs two candidates of length d >= 1 of one shape, not {x.shape} and {y.shape}")
    return Fraction(sum(_sq_nums(metric, x, y).tolist()), x.shape[0] * metric.den)


_INT64 = np.iinfo(np.int64)


def _in_range(nums: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mask of lo <= nums <= hi for int64 nums, exact for any Python-int bounds."""
    if lo > hi or lo > _INT64.max or hi < _INT64.min:
        return np.zeros(np.shape(nums), dtype=bool)
    return (nums >= max(lo, _INT64.min)) & (nums <= min(hi, _INT64.max))


def _band(c, r) -> tuple[int, int]:
    """The inclusive range (lo, hi) of the integers n with |n - c| < r, plus
    c itself when c is an integer; c and r are rationals."""
    lo, hi = math.floor(c - r) + 1, math.ceil(c + r) - 1
    if c.denominator == 1:
        lo, hi = min(lo, int(c)), max(hi, int(c))
    return lo, hi


# Membership tests a batch, and brute-force enumeration extends its
# prefixes and hands complete candidates to membership, this many
# coordinates at a time (d * sites per candidate), so the temporaries of
# each block stay in cache.
_BLOCK_COORDS = 2**15


# ---------------------------------------------------------------------------
# test functions and map windows
# ---------------------------------------------------------------------------


class TestFunction(_Record, eq=False, hidden=("values",)):
    """A bounded test function given by its values on model points, indexed
    by point index: the value at point i is values[i] / den, with integer
    values and den >= 1.  The table is read as a read-only int64 copy.
    """

    name: str
    values: np.ndarray
    den: int

    def __init__(self, name: str, values: np.ndarray, den: int = 1):
        values = _int_table(values, f"test function {name!r}")
        if values.ndim != 1:
            raise ValidationError(f"test function {name!r} needs a 1-d table, not one of shape {values.shape}")
        den = _integer(den, f"the denominator of test function {name!r}")
        if den < 1:
            raise ValidationError(f"test function {name!r} needs a denominator >= 1")
        super().__init__(name, values, den)

    def integral(self, mu: SiteMeasure) -> Fraction:
        """The exact integral against a site measure on as many points."""
        if mu.num.shape != self.values.shape:
            raise ValidationError(f"test function {self.name!r} has {len(self.values)} values for {len(mu.num)} points")
        return Fraction(sum(w * v for w, v in zip(mu.num.tolist(), self.values.tolist())), mu.den * self.den)


def indicator_panel(model: CompactGroupModel, scale: Fraction = Fraction(1)) -> tuple[TestFunction, ...]:
    """Scaled indicator of every model point (finite and small-torus models).
    Raises OverflowError when the scale's numerator does not fit int64."""
    n, scale = model.n_points, _read_fraction(scale, "the scale of an indicator panel")
    if not _INT64.min <= scale.numerator <= _INT64.max:
        raise OverflowError(f"the scale's numerator {scale.numerator} does not fit int64")
    out = []
    for i in range(n):
        num = np.zeros(n, dtype=np.int64)
        num[i] = scale.numerator
        out.append(TestFunction(name=f"ind[{i}]", values=num, den=scale.denominator))
    return tuple(out)


def _read_delta(delta) -> Fraction:
    """A threshold delta as a Fraction; a negative one is refused, since the
    tests square it."""
    delta = _read_fraction(delta, "delta")
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    return delta


class MapWindow(_Record):
    """The (F, delta, L, mu) data cutting out Map_mu inside X^d."""

    F: tuple[GroupElement, ...]
    delta: Fraction
    L: tuple[TestFunction, ...]
    target: SiteMeasure

    def __init__(self, F: tuple[GroupElement, ...], delta: Fraction, L: tuple[TestFunction, ...], target: SiteMeasure):
        delta = _read_delta(delta)
        if L and target is None:
            raise ValidationError("a window with test functions L needs a target SiteMeasure")
        super().__init__(F, delta, L, target)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _top_edges(sigma: SoficApproximation, F, delta: Fraction, metric: Pseudometric, action) -> tuple[list, tuple[int, int]]:
    """The edges (g, sigma(g)) that the top test checks, and the band of
    their squared distance sums: rho2^2 < delta^2 bands each sum around 0.
    An edge g with sigma(g) the identity permutation and g acting as the
    identity map has squared distance sum 0, which the band always admits,
    so it is dropped here.  The sums are int64 sums of d terms, so
    OverflowError is raised when d times the largest squared distance
    reaches 2^63."""
    d = sigma.d
    if F and d * metric.largest >= 2**63:
        raise OverflowError(f"{d} squared distances of up to {metric.largest} can wrap an int64 sum")
    still, fixed = np.arange(d), action.model.identity_map()
    edges = [(g, sigma.perm(g)) for g in F]
    edges = [(g, p) for g, p in edges if not (np.array_equal(p, still) and np.array_equal(action.point_map(g), fixed))]
    return edges, _band(0, delta * delta * d * metric.den)


def _membership(sigma: SoficApproximation, F, delta, L, target: SiteMeasure | None, metric: Pseudometric, action) -> Callable:
    """Map_mu membership (Map when L is empty) of candidate batches of length
    sigma.d, as a function of the batch.  delta is read (a negative one is
    refused), the window (by ``sigma.perm``), the models' group laws and the
    panel lengths are checked, and every band computed, once here: the top
    edges and band by ``_top_edges``, and a panel function bands its value
    sums around its integral.

    The function tests a batch ``_BLOCK_COORDS`` coordinates at a time, so
    every temporary is the size of one row block.  A batch must have shape
    (N, d) for a finite model or (N, d, sites) for a torus.  Each block is
    copied coordinates first, to shape (d, rows[, sites]), and read once by
    the model before any edge is tested, so anything but model points raises
    ValidationError.  sigma(g) then reindexes whole rows of the copy, and the
    squared distances and panel values are summed over its first axis.

    The sums are int64 sums of d terms, so OverflowError is raised when d
    times the largest squared distance (by ``_top_edges``), or d times a
    panel function's largest |value|, reaches 2^63."""
    delta, d = _read_delta(delta), sigma.d
    m = metric.model
    _check_same_model(m, action.model)
    if L:
        _check_same_model(m, target.model)
    edges, top = _top_edges(sigma, F, delta, metric, action)
    panel = []
    for f in L:
        if f.values.shape != (m.n_points,):
            raise ValidationError(f"test function {f.name!r} needs one value per point of {m!r}")
        if d * max(int(f.values.max()), -int(f.values.min())) >= 2**63:
            raise OverflowError(f"{d} values of test function {f.name!r} can wrap an int64 sum")
        panel.append((f.values, _band(f.integral(target) * d * f.den, delta * d * f.den)))
    shape = (d,) + np.shape(m.identity)
    rows = max(1, _BLOCK_COORDS // math.prod(shape))

    def test(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if xs.shape[1:] != shape:
            raise ValidationError(f"candidates of {m!r} at d = {d} need shape (N, {', '.join(map(str, shape))})")
        ok = np.ones(xs.shape[0], dtype=bool)
        for s in range(0, xs.shape[0], rows):
            cols, out = np.moveaxis(xs[s : s + rows], 1, 0).copy(), ok[s : s + rows]
            idx = m.point_indices(cols) if panel else m.read_points(cols, "candidates")
            for g, p in edges:
                nums = _sq_nums(metric, action.act_candidates(g, cols), cols[p]).sum(axis=0)
                out &= _in_range(nums, *top)
            for values, bound in panel:
                out &= _in_range(values.take(idx).sum(axis=0), *bound)
        return ok

    return test


def top_microstate_mask(
    xs: np.ndarray,
    sigma: SoficApproximation,
    F: Sequence[GroupElement],
    delta: Fraction,
    metric: Pseudometric,
    action: AutomorphismAction,
) -> np.ndarray:
    """Vectorized Map membership for a candidate batch of shape (N, d[, sites])."""
    return _membership(sigma, F, delta, (), None, metric, action)(xs)


def meas_microstate_mask(
    xs: np.ndarray,
    sigma: SoficApproximation,
    window: MapWindow,
    metric: Pseudometric,
    action: AutomorphismAction,
) -> np.ndarray:
    """Map_mu membership: topological membership plus the L-panel conditions."""
    return _membership(sigma, window.F, window.delta, window.L, window.target, metric, action)(xs)


def is_meas_microstate(
    x: np.ndarray,
    sigma: SoficApproximation,
    window: MapWindow,
    metric: Pseudometric,
    action: AutomorphismAction,
) -> bool:
    return bool(meas_microstate_mask(np.asarray(x)[None, ...], sigma, window, metric, action)[0])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def forces_exact_equivariance(metric: Pseudometric, delta: Fraction, d: int) -> bool:
    """Whether a single violated coordinate already exceeds delta.

    True when the metric separates points (``metric.separates``: distinct
    points are at positive distance) and delta^2 <= min_positive_sq / d, so
    Map(delta) is exactly the solution set of the equivariance equations.  A
    table with a zero off the diagonal lets an equation break at no cost.
    """
    least = metric.min_positive_sq
    return least is not None and metric.separates and Fraction(delta) ** 2 <= least / d


def enumerate_top_microstates(
    model: CompactGroupModel,
    sigma: SoficApproximation,
    F: Sequence[GroupElement],
    delta,
    metric: Pseudometric,
    action: AutomorphismAction,
    budget: int = 10**6,
) -> np.ndarray:
    """The full Map(rho, F, delta, sigma) in deterministic lexicographic order.

    Finite models with a threshold forcing exact equivariance (see
    ``forces_exact_equivariance``, which reads whether the metric separates
    points and its least positive distance) solve the constraint system
    orbit by orbit; otherwise a depth-first search over lexicographic
    prefixes within budget.  For each edge g, term j of its squared distance
    sum, sq(g.x_j, x_sigma(g)j), is fixed once coordinates j and sigma(g)j
    are, and every term is >= 0 while the band's low end is <= 0, so a
    prefix whose partial sum for some edge is past the band's high end has
    no member completion and is dropped.  The prefixes that reach length
    d - 1 are extended by every last value, and those candidates go to
    ``top_microstate_mask`` in blocks of at most ``_BLOCK_COORDS``
    coordinates (and at least one row), so every listed row passed the one
    membership rule.  Prefixes are extended a block's worth at a time, by
    the values in increasing order, and the unextended rest waits on a
    stack, so the listing is lexicographic and the search holds at most d
    pending chunks plus the survivors.  The budget counts all n^d
    candidates, and BudgetExceededError is raised before any is built.  The
    kernel of an algebraic action model is listed by its own
    ``enumerate_kernel``.
    """
    delta = _read_delta(delta)
    _check_same_model(model, metric.model)
    _check_same_model(model, action.model)
    if (
        isinstance(model, FiniteModel)
        and forces_exact_equivariance(metric, delta, sigma.d)
    ):
        return _enumerate_equivariant(model, sigma, F, action, budget)
    n, d = model.n_points, sigma.d
    total = n**d
    if total > budget:
        raise BudgetExceededError(total, budget, "candidate enumeration")
    edges, (lo, hi) = _top_edges(sigma, F, delta, metric, action)
    shape = np.shape(model.identity)
    rows = max(1, _BLOCK_COORDS // (d * math.prod(shape)))
    step = max(1, rows // n)  # prefixes extended at a time
    values = model.points_from_indices(np.arange(n))
    # term j of edge e is fixed once coordinate max(j, sigma(g)j) is set
    fixed_at = [[] for _ in range(d - 1)]
    for e, (g, p) in enumerate(edges):
        last = np.maximum(np.arange(d), p)
        for k in range(d - 1):
            js = np.flatnonzero(last == k)
            if js.size:
                fixed_at[k].append((e, g, js, p[js]))
    found = [np.empty((0, d) + shape, dtype=np.int64)]
    stack = [(np.empty((1, 0) + shape, dtype=np.int64), np.zeros((1, len(edges)), dtype=np.int64))]
    while stack:
        xs, sums = stack.pop()
        if len(xs) > step:
            stack.append((xs[step:], sums[step:]))
            xs, sums = xs[:step], sums[:step]
        k = xs.shape[1]
        ext = np.empty((len(xs), n, k + 1) + shape, dtype=np.int64)
        ext[:, :, :k] = xs[:, None]
        ext[:, :, k] = values
        ext = ext.reshape((-1, k + 1) + shape)
        if k + 1 == d:
            for s in range(0, len(ext), rows):
                block = ext[s : s + rows]
                found.append(block[top_microstate_mask(block, sigma, F, delta, metric, action)])
            continue
        sums = np.repeat(sums, n, axis=0)
        for e, g, js, ps in fixed_at[k]:
            sums[:, e] += _sq_nums(metric, action.act_candidates(g, ext[:, js]), ext[:, ps]).sum(axis=1)
        keep = _in_range(sums, lo, hi).all(axis=1)
        if keep.any():
            stack.append((ext[keep], sums[keep]))
    return np.concatenate(found)


def _enumerate_equivariant(
    model: FiniteModel,
    sigma: SoficApproximation,
    F: Sequence[GroupElement],
    action: AutomorphismAction,
    budget: int,
) -> np.ndarray:
    """Solutions of x(sigma(g) j) = g. x(j) for all g in F, by propagating
    transfer maps over the orbit graph and intersecting cycle constraints,
    in lexicographic order.

    Each component of the graph with edges j -> p(j) for p = sigma(g) is
    walked from its root, its least coordinate, along the edges forward
    only: a permutation has finite order, so p^-1(j) is some p^k(j) and the
    forward walk reaches the whole component, and each equation is the edge
    out of one coordinate, checked when that coordinate is reached.
    ``transfer[j]`` maps the root's value to x(j), and the root values that
    satisfy every edge are kept in increasing order.

    The components are split at the first h where the squared product of
    the value counts of components 0..h-1 reaches the total, so each half
    lists about sqrt(total) rows.  Each half is built one component at a
    time from one zero row: every row so far is repeated once for each valid
    value of the next component, in increasing order, and that component's
    columns take the value's transfer images.  Components own disjoint
    columns, so each half leaves the other's columns at 0, and the
    broadcast sum of every head row with every tail row, head major, writes
    the output once.  So the solutions run in mixed radix over the value
    lists, roots in increasing order and the last fastest.  This is
    lexicographic: two distinct solutions first differ at some coordinate j,
    and j is a root, since x(j) is a function of the value at the root of
    j's component, which is no later than j and where the two agree unless
    it is j itself.  So their order is that of their first differing root
    values, which is the mixed-radix order.
    """
    d = sigma.d
    n = model.n_points
    edges = [(sigma.perm(g), action.point_map(g)) for g in F]  # x(p[j]) = m[x(j)]
    transfer = np.empty((d, n), dtype=np.int64)  # x(j) = transfer[j, root value]
    comp = [-1] * d  # the component index of each coordinate
    valid: list[np.ndarray] = []
    for root in range(d):
        if comp[root] >= 0:
            continue
        k = comp[root] = len(valid)
        transfer[root] = np.arange(n)
        ok = np.ones(n, dtype=bool)
        stack = [root]
        while stack:
            j = stack.pop()
            for p, m in edges:
                i, t = int(p[j]), m[transfer[j]]
                if comp[i] < 0:
                    comp[i] = k
                    transfer[i] = t
                    stack.append(i)
                else:
                    ok &= transfer[i] == t
        valid.append(np.flatnonzero(ok))
    # automorphisms fix the identity, so its value is valid at every root
    # and total >= 1
    total = math.prod(len(v) for v in valid)
    if total > budget:
        raise BudgetExceededError(total, budget, "equivariant enumeration")
    comp = np.array(comp)

    def rows(ks: range) -> np.ndarray:
        out = np.zeros((1, d), dtype=np.int64)
        for k in ks:
            v, cols = valid[k], np.flatnonzero(comp == k)
            out = np.repeat(out, len(v), axis=0)
            out.reshape(-1, len(v), d)[:, :, cols] = transfer[cols][:, v].T
        return out

    h, head = 0, 1
    while head * head < total:
        head *= len(valid[h])
        h += 1
    return np.add(rows(range(h))[:, None], rows(range(h, len(valid)))[None]).reshape(total, d)


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------


# Repair walks started per requested sample before its slot is left empty.
_ATTEMPTS_PER_SAMPLE = 40
# Slots searched in lockstep; each live slot holds a generator and a buffer of
# 512 words, about 21 KiB.
_SLOTS_PER_GROUP = 64


def sample_microstates(
    model: CompactGroupModel,
    sigma: SoficApproximation,
    window: MapWindow,
    metric: Pseudometric,
    action: AutomorphismAction,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Randomized search for measure microstates: seed uniform candidates,
    greedily repair them against the F-equations x(sigma(g) j) = g.x(j), and
    keep the first of at most ``_ATTEMPTS_PER_SAMPLE`` candidates of each
    slot that passes the full membership test.  Repair lowers only the count
    of broken F-equations; the delta threshold and the L-panel conditions are
    checked at the end.

    Slot k draws from its own generator ``default_rng([seed, 0x5A3C, k])``
    through a ``_Words`` buffer, which takes the stream of numpy's scalar and
    vector draws unchanged.  Slots do not depend on each other, so up to
    ``_SLOTS_PER_GROUP`` of them run in lockstep: each round repairs one
    attempt of every slot still pending, and the round's candidates go
    through one membership call.

    Returns up to n_samples verified candidates (possibly fewer), in slot
    order; the result is a pure function of the arguments.  Finite models
    only.
    """
    if not isinstance(model, FiniteModel):
        raise ValidationError("randomized repair search needs a finite model")
    n_samples, seed = _integer(n_samples, "n_samples", least=1), _integer(seed, "seed", least=0)
    _check_same_model(model, metric.model)
    member = _membership(sigma, window.F, window.delta, window.L, window.target, metric, action)
    d = sigma.d
    n = model.n_points
    found = {}
    eqs = []
    for g in window.F:
        p = sigma.perm(g)
        eqs.append((p.tolist(), np.argsort(p).tolist(), action.point_map(g).tolist()))
    for first in range(0, n_samples, _SLOTS_PER_GROUP):
        slots = range(first, min(first + _SLOTS_PER_GROUP, n_samples))
        pending = {k: _Words(np.random.default_rng([seed, 0x5A3C, k])) for k in slots}
        for _ in range(_ATTEMPTS_PER_SAMPLE):
            if not pending:
                break
            xs = np.stack([
                _repair(np.array([w.below(n) for _ in range(d)], dtype=np.int64), eqs, n, w, rounds=4 * d)
                for w in pending.values()
            ])
            for k, x, ok in zip(list(pending), xs, member(xs)):
                if ok:
                    found[k] = x
                    del pending[k]
    if not found:
        return np.empty((0, d), dtype=np.int64)
    return np.stack([found[k] for k in sorted(found)])


class _Words:
    """Bounded draws from a generator's 32-bit words, read 512 at a time:
    ``below(b)`` is ``int(rng.integers(0, b))``, and d calls are
    ``rng.integers(0, b, size=d)``.  This is numpy's rule for int64 draws
    with b <= 2^32 (Lemire's): a word w gives m = w * b, which is drawn
    again while m mod 2^32 < (2^32 - b) mod b, and m >> 32 is returned; a
    bound of 1 takes no word.  Words read ahead are never handed back, so
    the generator must serve nothing else."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.words = rng, []

    def below(self, b: int) -> int:
        if not 1 <= b <= 2**32:
            raise ValidationError(f"a bound drawn from 32-bit words must be in 1..2^32, not {b}")
        if b == 1:
            return 0
        while True:
            if not self.words:
                self.words = self.rng.integers(0, 2**32, size=512, dtype=np.uint32).tolist()[::-1]
            m = self.words.pop() * b
            if m & 0xFFFFFFFF >= (2**32 - b) % b:
                return m >> 32


def _repair(x: np.ndarray, eqs, n: int, words: _Words, rounds: int) -> np.ndarray:
    """Greedy walk lowering the broken equations m(x_j) = x_{p(j)}, one for
    each (p, p^-1, m) in ``eqs`` and each coordinate j, over values 0..n-1.

    Each round takes the first coordinate j of most broken equations through
    it and moves it to the smallest value that breaks strictly fewer; when no
    value does, one random coordinate takes a random value (the value is drawn
    first, both by ``words.below``).  A move changes only the <= 2|eqs|
    equations through j, so the flags ``bad``, the per-coordinate counts
    ``viol`` (an equation counts at j and at p(j), so twice at a fixed point)
    and the total are updated in place, and each value is scored from those
    equations alone.
    """
    x = x.tolist()
    d = len(x)
    bad = [[m[x[j]] != x[p[j]] for j in range(d)] for p, _, m in eqs]
    viol = [0] * d
    total = 0
    for (p, _, _), broken in zip(eqs, bad):
        for j in range(d):
            if broken[j]:
                viol[j] += 1
                viol[p[j]] += 1
                total += 1

    def move(j: int, v: int) -> None:
        nonlocal total
        x[j] = v
        for (p, p_inv, m), broken in zip(eqs, bad):
            for i in (j,) if p[j] == j else (j, p_inv[j]):
                now = m[x[i]] != x[p[i]]
                if now != broken[i]:
                    step = 1 if now else -1
                    broken[i] = now
                    viol[i] += step
                    viol[p[i]] += step
                    total += step

    for _ in range(rounds):
        if total == 0:
            break
        j = viol.index(max(viol))
        # scores[v]: the broken equations through j once x_j = v
        scores = [0] * n
        for p, p_inv, m in eqs:
            if p[j] == j:
                scores = [s + (m[v] != v) for v, s in enumerate(scores)]
            else:
                a, b = x[p[j]], m[x[p_inv[j]]]
                scores = [s + (m[v] != a) + (v != b) for v, s in enumerate(scores)]
        best = min(scores)
        if best < scores[x[j]]:
            move(j, scores.index(best))
        else:
            v = words.below(n)
            move(words.below(d), v)
    return np.array(x, dtype=np.int64)


# ---------------------------------------------------------------------------
# empirical distributions, shift lifts, and orbit windows
# ---------------------------------------------------------------------------


def empirical_pushforward(x: np.ndarray, model: CompactGroupModel) -> SiteMeasure:
    """The empirical distribution of the coordinates of x (total mass 1).
    x is one candidate of length d >= 1."""
    idx = model.point_indices(x)
    if idx.ndim != 1 or not len(idx):
        raise ValidationError(f"a pushforward needs one candidate of length d >= 1, not shape {np.shape(x)}")
    counts = np.bincount(idx, minlength=model.n_points)
    return SiteMeasure(model, counts, int(counts.sum()))


def shift_lift(
    x: np.ndarray, sigma: SoficApproximation, W: Sequence[GroupElement]
) -> np.ndarray:
    """The finite-window lift: entry [j, w] = x(sigma(g_w)^{-1}(j)).

    Output shape (d, |W|) for finite models, (d, |W|, sites) for torus models.
    x must have length d.
    """
    x = np.asarray(x)
    if x.shape[:1] != (sigma.d,):
        raise ValidationError(f"a candidate at d = {sigma.d} needs length {sigma.d}, not shape {x.shape}")
    cols = []
    for g in W:
        inv = np.argsort(sigma.perm(g))
        cols.append(x[inv])
    return np.stack(cols, axis=1)


def psi_window(p, W: Sequence[GroupElement], action: AutomorphismAction) -> tuple:
    """The orbit window of one point: g^{-1}.p for g in W, each an int index,
    or a residue tuple on a torus."""
    x = action.model.read_points(p, "a point")
    out = [action.act_candidates(action.group.inverse(g), x).tolist() for g in W]
    return tuple(map(tuple, out)) if x.ndim else tuple(out)
