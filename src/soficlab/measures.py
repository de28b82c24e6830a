"""Representable probability measures on X_model and on X_model^d.

``SiteMeasure`` is an exact finitely-supported measure on the model points
(integer weights over a common denominator).  ``ModelMeasure`` is the union of
the four candidate-space variants: product measures (``ProductMeasure``),
lazy convolutions (``Convolution``), weighted atom lists (``SampleBased``)
and the lazy doubled measure mu (x) mu on the product model (``Doubled``).

``SampleBased`` is the one atom list.  ``PointMass`` and ``UniformOnSet``
build it, ``exact_support`` materializes every variant as one, and
``convolve`` returns one for small exact supports.  Atoms that a convolution
makes equal are merged, and the merged atoms come in lexicographic order of
their candidate rows.  ``doubled`` keeps two structural shortcuts, a product
of doubled sites and a convolution of doubled factors, and returns
``Doubled`` for every other variant.

Weights are exact rationals wherever the variant is exact; Monte Carlo paths
are reproducible from the generator handed in.  Total mass 1 is enforced at
construction, and the model's ``read_points`` reads atoms and point masses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .actions import CompactGroupModel, _check_same_model, _same_model, pair_candidates, product_model
from .errors import ValidationError, _Record
from .intlin import _int_table, _integer, _read_only, mixed_radix


# ---------------------------------------------------------------------------
# site measures
# ---------------------------------------------------------------------------


class SiteMeasure(_Record):
    """Exact probability measure on model points: weight(i) = num[i]/den,
    read by ``_weights`` and kept in lowest terms."""

    model: CompactGroupModel
    num: np.ndarray
    den: int

    def __init__(self, model: CompactGroupModel, num: np.ndarray, den: int):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        num, den = _weights(self.num, self.den)
        if num.shape != (self.model.n_points,):
            raise ValidationError("weight vector length must match the model")
        g = math.gcd(den, int(np.gcd.reduce(num)))
        object.__setattr__(self, "num", _read_only(num // g))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def uniform(cls, model: CompactGroupModel) -> "SiteMeasure":
        n = model.n_points
        return cls(model, np.ones(n, dtype=np.int64), n)

    @classmethod
    def point_mass(cls, model: CompactGroupModel, point) -> "SiteMeasure":
        i = model.point_indices(point)
        if i.ndim:
            raise ValidationError(f"a point mass needs one point, not a batch of shape {i.shape}")
        num = np.zeros(model.n_points, dtype=np.int64)
        num[i] = 1
        return cls(model, num, 1)

    def tv_distance(self, other: "SiteMeasure") -> Fraction:
        _check_same_model(self.model, other.model)
        l = math.lcm(self.den, other.den)
        a = self.num.astype(object) * (l // self.den)
        b = other.num.astype(object) * (l // other.den)
        return Fraction(int(np.abs(a - b).sum()), 2 * l)

    def convolve(self, other: "SiteMeasure") -> "SiteMeasure":
        """Group convolution: pushforward of the product under multiplication."""
        model = self.model
        _check_same_model(model, other.model)
        den = _product_den(self.den, other.den)
        ia = np.nonzero(self.num)[0]
        ib = np.nonzero(other.num)[0]
        pa = model.points_from_indices(ia)
        pb = model.points_from_indices(ib)
        targets = model.point_indices(model.candidate_mul(pa[:, None], pb[None, :]))
        out = np.zeros(model.n_points, dtype=np.int64)
        np.add.at(out, targets.reshape(-1), np.outer(self.num[ia], other.num[ib]).reshape(-1))
        return SiteMeasure(model, out, den)

    def tensor(self, other: "SiteMeasure") -> "SiteMeasure":
        """Product measure on the doubled model (pair points)."""
        den = _product_den(self.den, other.den)
        out = np.outer(self.num, other.num).reshape(-1)
        return SiteMeasure(product_model(self.model), out, den)

    def sample_indices(self, rng: np.random.Generator, k: int) -> np.ndarray:
        p = self.num / self.den
        return rng.choice(self.model.n_points, size=k, p=p)

    def __eq__(self, other):
        return (
            isinstance(other, SiteMeasure)
            and _same_model(self.model, other.model)
            and self.den == other.den
            and (self.num == other.num).all()
        )

    def __hash__(self):
        return hash((self.den, self.num.tobytes()))


def _weights(num, den) -> tuple[np.ndarray, int]:
    """Probability weights num[i]/den: den an integer >= 1 and num a read-only
    copy of nonnegative integers summing to den, in int64 only when
    len(num) * max(num) < 2^63 and over Python ints otherwise."""
    den = _integer(den, "a measure's denominator")
    if den < 1:
        raise ValidationError("a measure needs a positive denominator")
    num = _int_table(num, "measure weights")
    if num.ndim != 1:
        raise ValidationError("measure weights must be a 1-d table")
    if (num < 0).any():
        raise ValidationError("weights must be nonnegative")
    total = int(num.sum()) if len(num) * int(num.max(initial=0)) < 2**63 else sum(num.tolist())
    if total != den:
        raise ValidationError("weights must sum to 1")
    return num, den


def _product_den(a: int, b: int) -> int:
    """The denominator of a product of two measures with denominators a and b.

    Every weight product and every sum of them is at most this denominator,
    so int64 weights cannot wrap below 2^63; beyond it the product is refused.
    """
    den = a * b
    if den >= 2**63:
        raise OverflowError(f"product denominator {den} = {a} * {b} does not fit int64 weights")
    return den


# ---------------------------------------------------------------------------
# candidate-space measures
# ---------------------------------------------------------------------------


class ProductMeasure(_Record):
    """Independent identical site measure at every coordinate."""

    site: SiteMeasure
    d: int

    def __init__(self, site: SiteMeasure, d: int):
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "d", d)

    @property
    def model(self) -> CompactGroupModel:
        return self.site.model


class Convolution(_Record):
    """Lazy convolution: law of psi*phi with psi ~ left, phi ~ right."""

    left: "ModelMeasure"
    right: "ModelMeasure"

    def __init__(self, left: "ModelMeasure", right: "ModelMeasure"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if self.left.d != self.right.d:
            raise ValidationError("convolution needs equal d")
        _check_same_model(self.left.model, self.right.model)

    @property
    def model(self):
        return self.left.model

    @property
    def d(self) -> int:
        return self.left.d


class SampleBased(_Record, eq=False, hidden=("points", "weights_num")):
    """Finitely many weighted atoms: ``points[k]`` has weight
    ``weights_num[k] / weights_den``, read by ``_weights``; every entry of an
    atom must be a point of the model.

    ``exact=True`` marks an exactly computed weighted support (e.g. the result
    of convolving two explicit sets); ``exact=False`` marks a Monte Carlo
    draw.
    """

    model: CompactGroupModel
    points: np.ndarray
    weights_num: np.ndarray
    weights_den: int
    exact: bool

    def __init__(
        self, model: CompactGroupModel, points: np.ndarray, weights_num: np.ndarray, weights_den: int, exact: bool = False
    ):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights_num", weights_num)
        object.__setattr__(self, "weights_den", weights_den)
        object.__setattr__(self, "exact", exact)
        num, den = _weights(self.weights_num, self.weights_den)
        pts = _read_only(np.array(self.model.read_points(self.points, "atoms")))
        if pts.ndim != 2 + np.ndim(self.model.identity):
            raise ValidationError(f"atoms of shape (N, d[, sites]) are needed, not {pts.shape}")
        if num.shape[0] != pts.shape[0]:
            raise ValidationError("one weight per atom")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights_num", num)
        object.__setattr__(self, "weights_den", den)

    @property
    def d(self) -> int:
        return self.points.shape[1]


def PointMass(model: CompactGroupModel, point) -> SampleBased:
    """The point mass at one candidate: one exact atom of weight 1."""
    return SampleBased(model, np.asarray(point)[None, ...], [1], 1, exact=True)


def UniformOnSet(model: CompactGroupModel, points) -> SampleBased:
    """The uniform measure on a nonempty candidate set: n exact atoms of weight 1/n."""
    n = len(points)
    return SampleBased(model, points, np.ones(n, dtype=np.int64), n, exact=True)


class Doubled(_Record):
    """The product measure inner (x) inner on the doubled model."""

    inner: "ModelMeasure"

    def __init__(self, inner: "ModelMeasure"):
        object.__setattr__(self, "inner", inner)

    @property
    def model(self):
        return product_model(self.inner.model)

    @property
    def d(self) -> int:
        return self.inner.d


ModelMeasure = ProductMeasure | Convolution | SampleBased | Doubled


def is_exact(mu: ModelMeasure) -> bool:
    """Whether every statistic of mu is exactly representable."""
    if isinstance(mu, ProductMeasure):
        return True
    if isinstance(mu, SampleBased):
        return mu.exact
    if isinstance(mu, Convolution):
        return is_exact(mu.left) and is_exact(mu.right)
    return is_exact(mu.inner)


# -- marginals ---------------------------------------------------------------


def marginal(mu: ModelMeasure, j: int) -> tuple[SiteMeasure, bool]:
    """Coordinate-j marginal and whether it is exact.

    Exact for products, exact atom lists, and convolutions and doublings of
    exacts; sample-estimated (flagged) for Monte Carlo atoms.
    """
    if not 0 <= j < mu.d:
        raise ValidationError(f"coordinate {j} out of range")
    model = mu.model
    if isinstance(mu, ProductMeasure):
        return mu.site, True
    if isinstance(mu, SampleBased):
        idx = model.point_indices(mu.points[:, j])
        num = np.zeros(model.n_points, dtype=np.int64)
        np.add.at(num, idx, mu.weights_num)
        return SiteMeasure(model, num, mu.weights_den), mu.exact
    if isinstance(mu, Convolution):
        a, ea = marginal(mu.left, j)
        b, eb = marginal(mu.right, j)
        return a.convolve(b), ea and eb
    # Doubled
    inner, exact = marginal(mu.inner, j)
    return inner.tensor(inner), exact


# -- support enumeration -------------------------------------------------------


def exact_support(mu: ModelMeasure, budget: int = 10**6) -> SampleBased | None:
    """Materialize mu as weighted atoms when the representable support is
    within budget; None when it is too large.  ``exact`` echoes the variant.

    The atoms of a convolution are merged and lexicographically sorted; the
    other variants keep their atoms as listed."""
    model = mu.model
    if isinstance(mu, SampleBased):
        return None if mu.points.shape[0] > budget else mu
    if isinstance(mu, ProductMeasure):
        nz = np.nonzero(mu.site.num)[0]
        total = len(nz) ** mu.d
        if total > budget:
            return None
        den, top = mu.site.den**mu.d, int(mu.site.num.max()) ** mu.d  # top: the largest atom weight
        if top >= 2**63:
            raise OverflowError(f"atom weight {top} over product denominator {den} = {mu.site.den}^{mu.d} does not fit int64")
        idx = nz[mixed_radix(np.arange(total), [len(nz)] * mu.d)]
        pts = model.points_from_indices(idx)
        w = mu.site.num[idx].astype(object).prod(axis=-1)
        return SampleBased(model, pts, np.array(w, dtype=np.int64), den, exact=True)
    if isinstance(mu, Convolution):
        la = exact_support(mu.left, budget)
        lb = exact_support(mu.right, budget)
        if la is None or lb is None or la.points.shape[0] * lb.points.shape[0] > budget:
            return None
        return _merged(_cross(model, la, lb, model.candidate_mul))
    # Doubled
    sub = exact_support(mu.inner, budget)
    if sub is None or sub.points.shape[0] ** 2 > budget:
        return None
    return _cross(model, sub, sub, partial(pair_candidates, mu.inner.model))


def _cross(model, a: SampleBased, b: SampleBased, combine) -> SampleBased:
    """Every pair of atoms of a and b, as combine(x, y) on ``model``, with the
    product weight; a's atom varies slowest."""
    den = _product_den(a.weights_den, b.weights_den)
    ii, jj = np.divmod(np.arange(a.points.shape[0] * b.points.shape[0]), b.points.shape[0])
    w = a.weights_num[ii] * b.weights_num[jj]  # each at most den < 2^63
    return SampleBased(model, combine(a.points[ii], b.points[jj]), w, den, exact=a.exact and b.exact)


def _merged(atoms: SampleBased) -> SampleBased:
    """The atoms with equal candidates summed, in lexicographic row order."""
    n = atoms.points.shape[0]
    rows, inverse = np.unique(atoms.points.reshape(n, -1), axis=0, return_inverse=True)
    num = np.zeros(rows.shape[0], dtype=np.int64)
    np.add.at(num, inverse.reshape(-1), atoms.weights_num)
    points = rows.reshape((rows.shape[0],) + atoms.points.shape[1:])
    return SampleBased(atoms.model, points, num, atoms.weights_den, atoms.exact)


# -- sampling -----------------------------------------------------------------


def sample(mu: ModelMeasure, k: int, rng: np.random.Generator) -> np.ndarray:
    """k candidates drawn from mu; reproducible from the generator state."""
    model = mu.model
    if isinstance(mu, ProductMeasure):
        idx = mu.site.sample_indices(rng, k * mu.d).reshape(k, mu.d)
        return model.points_from_indices(idx)
    if isinstance(mu, SampleBased):
        p = mu.weights_num / mu.weights_den
        pick = rng.choice(mu.points.shape[0], size=k, p=p)
        return mu.points[pick]
    if isinstance(mu, Convolution):
        a = sample(mu.left, k, rng)
        b = sample(mu.right, k, rng)
        return model.candidate_mul(a, b)
    # Doubled
    a = sample(mu.inner, k, rng)
    b = sample(mu.inner, k, rng)
    return pair_candidates(mu.inner.model, a, b)


# -- mass of a set --------------------------------------------------------------


class MassEstimate(_Record):
    value: float
    exact: bool
    stderr: float | None
    n_samples: int | None
    fraction: Fraction | None

    def __init__(
        self, value: float, exact: bool, stderr: float | None, n_samples: int | None, fraction: Fraction | None = None
    ):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "stderr", stderr)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "fraction", fraction)


def mass(
    mu: ModelMeasure,
    predicate: Callable[[np.ndarray], np.ndarray],
    budget: int = 10**6,
    n_samples: int = 10**4,
    rng: np.random.Generator | None = None,
) -> MassEstimate:
    """mu(predicate): exact summation over the representable support when it
    fits the budget, Monte Carlo with recorded standard error otherwise.  The
    predicate maps a batch of N candidates to a bool array of shape (N,)."""
    sup = exact_support(mu, budget)
    if sup is None and rng is None:
        raise ValidationError("sampled mass needs a generator")
    xs = sample(mu, n_samples, rng) if sup is None else sup.points
    hits = np.asarray(predicate(xs))
    if hits.dtype != bool or hits.shape != xs.shape[:1]:
        raise ValidationError(f"a predicate must return one bool per candidate, not {hits.dtype} of shape {hits.shape}")
    if sup is not None:
        frac = Fraction(int(sup.weights_num[hits].astype(object).sum()), sup.weights_den)
        return MassEstimate(float(frac), sup.exact, None, None, frac)
    p = float(hits.mean())
    stderr = math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
    return MassEstimate(p, False, stderr, n_samples)


# -- convolution construction ---------------------------------------------------


def convolve(nu: ModelMeasure, mu: ModelMeasure, budget: int = 4096) -> ModelMeasure:
    """The measure of psi*phi (pointwise group product), psi ~ nu, phi ~ mu.

    Product (x) Product collapses to the product of site convolutions; an
    exact convolution whose support fits the budget is materialized by
    ``exact_support``; otherwise the lazy Convolution node (exact marginals,
    sampled masses).
    """
    lazy = Convolution(nu, mu)
    if isinstance(nu, ProductMeasure) and isinstance(mu, ProductMeasure):
        return ProductMeasure(nu.site.convolve(mu.site), nu.d)
    atoms = exact_support(lazy, budget) if is_exact(lazy) else None
    return lazy if atoms is None else atoms


def doubled(mu: ModelMeasure) -> ModelMeasure:
    """mu (x) mu on the doubled model: a product of doubled sites, a
    convolution of doubled factors, and the lazy ``Doubled`` otherwise."""
    if isinstance(mu, ProductMeasure):
        return ProductMeasure(mu.site.tensor(mu.site), mu.d)
    if isinstance(mu, Convolution):
        # (nu * mu) (x) (nu * mu) = (nu (x) nu) * (mu (x) mu)
        return Convolution(doubled(mu.left), doubled(mu.right))
    return Doubled(mu)
