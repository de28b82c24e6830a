"""Representable probability measures on X_model and on X_model^d.

``SiteMeasure`` is an exact finitely-supported measure on the model points
(integer weights over a common denominator).  ``ModelMeasure`` is the union of
the candidate-space variants: product measures, uniform measures on explicit
candidate sets, convolutions, point masses, sample-based atom lists, convex
mixtures, and the doubled measure mu (x) mu on the product model.

Weights are exact rationals wherever the variant is exact; Monte Carlo paths
are reproducible from the generator handed in.  Total mass 1 is enforced at
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .actions import CompactGroupModel, TorusGridModel, pair_candidates, product_model
from .errors import ValidationError
from .intlin import mixed_radix


# ---------------------------------------------------------------------------
# site measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteMeasure:
    """Exact probability measure on model points: weight(i) = num[i]/den."""

    model: CompactGroupModel
    num: np.ndarray
    den: int

    def __post_init__(self):
        num = np.asarray(self.num, dtype=np.int64).copy()
        if num.shape != (self.model.n_points,):
            raise ValidationError("weight vector length must match the model")
        if (num < 0).any():
            raise ValidationError("weights must be nonnegative")
        total = int(num.sum())
        if total != self.den:
            raise ValidationError("weights must sum to 1")
        g = int(np.gcd.reduce(np.append(num[num > 0], self.den))) if total else 1
        num //= g
        num.setflags(write=False)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def uniform(cls, model: CompactGroupModel) -> "SiteMeasure":
        n = model.n_points
        return cls(model, np.ones(n, dtype=np.int64), n)

    @classmethod
    def point_mass(cls, model: CompactGroupModel, point) -> "SiteMeasure":
        num = np.zeros(model.n_points, dtype=np.int64)
        num[int(model.point_indices(point))] = 1
        return cls(model, num, 1)

    def weight(self, i: int) -> Fraction:
        return Fraction(int(self.num[i]), self.den)

    def weights(self) -> list[Fraction]:
        return [Fraction(int(v), self.den) for v in self.num]

    def integral(self, values_num: np.ndarray, values_den: int) -> Fraction:
        """Exact integral of a rational-valued function given per point."""
        total = int(np.dot(self.num.astype(object), np.asarray(values_num).astype(object)))
        return Fraction(total, self.den * values_den)

    def integral_float(self, values: np.ndarray) -> float:
        return float(np.dot(self.num.astype(np.float64), values) / self.den)

    def tv_distance(self, other: "SiteMeasure") -> Fraction:
        if other.model.n_points != self.model.n_points:
            raise ValidationError("models differ")
        l = math.lcm(self.den, other.den)
        a = self.num.astype(object) * (l // self.den)
        b = other.num.astype(object) * (l // other.den)
        return Fraction(int(np.abs(a - b).sum()), 2 * l)

    def convolve(self, other: "SiteMeasure") -> "SiteMeasure":
        """Group convolution: pushforward of the product under multiplication."""
        model = self.model
        den = _product_den(self, other)
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
        den = _product_den(self, other)
        out = np.outer(self.num, other.num).reshape(-1)
        return SiteMeasure(product_model(self.model), out, den)

    def sample_indices(self, rng: np.random.Generator, k: int) -> np.ndarray:
        p = self.num / self.den
        return rng.choice(self.model.n_points, size=k, p=p)

    def __eq__(self, other):
        return (
            isinstance(other, SiteMeasure)
            and self.model.n_points == other.model.n_points
            and self.den == other.den
            and (self.num == other.num).all()
        )

    def __hash__(self):
        return hash((self.den, self.num.tobytes()))


def _product_den(a: SiteMeasure, b: SiteMeasure) -> int:
    """The denominator of a product of two site measures.

    Every weight product and every sum of them is at most this denominator,
    so int64 weights cannot wrap below 2^63; beyond it the product is refused.
    """
    den = a.den * b.den
    if den >= 2**63:
        raise OverflowError(
            f"product denominator {den} = {a.den} * {b.den} does not fit int64 weights"
        )
    return den


# ---------------------------------------------------------------------------
# candidate-space measures
# ---------------------------------------------------------------------------


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.int64).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProductMeasure:
    """Independent identical site measure at every coordinate."""

    site: SiteMeasure
    d: int

    @property
    def model(self) -> CompactGroupModel:
        return self.site.model


@dataclass(frozen=True)
class UniformOnSet:
    """Uniform measure on an explicit nonempty candidate set."""

    model: CompactGroupModel
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = _freeze(self.points)
        if pts.shape[0] == 0:
            raise ValidationError("UniformOnSet needs a nonempty set")
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PointMass:
    model: CompactGroupModel
    point: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "point", _freeze(self.point))

    @property
    def d(self) -> int:
        return self.point.shape[0]


@dataclass(frozen=True)
class Convolution:
    """Lazy convolution: law of psi*phi with psi ~ left, phi ~ right."""

    left: "ModelMeasure"
    right: "ModelMeasure"

    def __post_init__(self):
        if measure_d(self.left) != measure_d(self.right):
            raise ValidationError("convolution needs equal d")
        if isinstance(measure_model(self.left), TorusGridModel) != isinstance(
            measure_model(self.right), TorusGridModel
        ):
            raise ValidationError("convolution factors live on different models")

    @property
    def model(self):
        return measure_model(self.left)

    @property
    def d(self) -> int:
        return measure_d(self.left)


@dataclass(frozen=True)
class SampleBased:
    """Finitely many weighted atoms.

    ``exact=True`` marks an exactly computed weighted support (e.g. the result
    of convolving two explicit sets); ``exact=False`` marks a Monte Carlo
    draw, with ``seed`` recording its provenance.
    """

    model: CompactGroupModel
    points: np.ndarray = field(repr=False)
    weights_num: np.ndarray = field(repr=False)
    weights_den: int
    seed: int | None = None
    exact: bool = False

    def __post_init__(self):
        pts = _freeze(self.points)
        num = np.asarray(self.weights_num, dtype=np.int64).copy()
        if num.shape[0] != pts.shape[0]:
            raise ValidationError("one weight per atom")
        if int(num.sum()) != self.weights_den:
            raise ValidationError("atom weights must sum to 1")
        num.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights_num", num)

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Mixture:
    """Convex combination of measures on the same candidate space."""

    parts: tuple
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.coeffs) or not self.parts:
            raise ValidationError("one coefficient per part")
        if sum(self.coeffs, Fraction(0)) != 1:
            raise ValidationError("mixture coefficients must sum to 1")
        if len({measure_d(p) for p in self.parts}) != 1:
            raise ValidationError("mixture parts must share d")

    @property
    def model(self):
        return measure_model(self.parts[0])

    @property
    def d(self) -> int:
        return measure_d(self.parts[0])


@dataclass(frozen=True)
class Doubled:
    """The product measure inner (x) inner on the doubled model."""

    inner: "ModelMeasure"

    @property
    def model(self):
        return product_model(measure_model(self.inner))

    @property
    def d(self) -> int:
        return measure_d(self.inner)


ModelMeasure = (
    ProductMeasure | UniformOnSet | PointMass | Convolution | SampleBased | Mixture | Doubled
)


def measure_model(mu: ModelMeasure) -> CompactGroupModel:
    return mu.model


def measure_d(mu: ModelMeasure) -> int:
    return mu.d


def is_exact(mu: ModelMeasure) -> bool:
    """Whether every statistic of mu is exactly representable."""
    if isinstance(mu, (ProductMeasure, UniformOnSet, PointMass)):
        return True
    if isinstance(mu, SampleBased):
        return mu.exact
    if isinstance(mu, Convolution):
        return is_exact(mu.left) and is_exact(mu.right)
    if isinstance(mu, Mixture):
        return all(is_exact(p) for p in mu.parts)
    return is_exact(mu.inner)


# -- marginals ---------------------------------------------------------------


def marginal(mu: ModelMeasure, j: int) -> tuple[SiteMeasure, bool]:
    """Coordinate-j marginal and whether it is exact.

    Exact for products, point masses, explicit sets, convolutions of exacts,
    mixtures of exacts; sample-estimated (flagged) for Monte Carlo atoms.
    """
    if not 0 <= j < measure_d(mu):
        raise ValidationError(f"coordinate {j} out of range")
    model = measure_model(mu)
    if isinstance(mu, ProductMeasure):
        return mu.site, True
    if isinstance(mu, PointMass):
        num = np.zeros(model.n_points, dtype=np.int64)
        num[int(model.point_indices(mu.point[j]))] = 1
        return SiteMeasure(model, num, 1), True
    if isinstance(mu, UniformOnSet):
        idx = model.point_indices(mu.points[:, j])
        counts = np.bincount(idx, minlength=model.n_points)
        return SiteMeasure(model, counts, int(counts.sum())), True
    if isinstance(mu, SampleBased):
        idx = model.point_indices(mu.points[:, j])
        num = np.zeros(model.n_points, dtype=np.int64)
        np.add.at(num, idx, mu.weights_num)
        return SiteMeasure(model, num, mu.weights_den), mu.exact
    if isinstance(mu, Convolution):
        a, ea = marginal(mu.left, j)
        b, eb = marginal(mu.right, j)
        return a.convolve(b), ea and eb
    if isinstance(mu, Mixture):
        parts = [marginal(p, j) for p in mu.parts]
        fracs = [Fraction(0)] * model.n_points
        for (site, _), c in zip(parts, mu.coeffs):
            for i in np.nonzero(site.num)[0]:
                fracs[i] += c * Fraction(int(site.num[i]), site.den)
        den = math.lcm(*[f.denominator for f in fracs], 1)
        num = np.array([int(f * den) for f in fracs], dtype=np.int64)
        return SiteMeasure(model, num, den), all(e for _, e in parts)
    # Doubled
    inner, exact = marginal(mu.inner, j)
    return inner.tensor(inner), exact


# -- support enumeration -------------------------------------------------------


@dataclass(frozen=True)
class Support:
    points: np.ndarray
    weights_num: np.ndarray
    weights_den: int
    exact: bool

    def weights(self) -> list[Fraction]:
        return [Fraction(int(v), self.weights_den) for v in self.weights_num]


def exact_support(mu: ModelMeasure, budget: int = 10**6) -> Support | None:
    """Materialize (points, weights) when the representable support is within
    budget; None when it is too large.  ``exact`` echoes the variant."""
    model = measure_model(mu)
    if isinstance(mu, PointMass):
        return Support(mu.point[None, ...], np.array([1]), 1, True)
    if isinstance(mu, UniformOnSet):
        n = mu.points.shape[0]
        if n > budget:
            return None
        return Support(mu.points, np.ones(n, dtype=np.int64), n, True)
    if isinstance(mu, SampleBased):
        if mu.points.shape[0] > budget:
            return None
        return Support(mu.points, mu.weights_num, mu.weights_den, mu.exact)
    if isinstance(mu, ProductMeasure):
        nz = np.nonzero(mu.site.num)[0]
        total = len(nz) ** mu.d
        if total > budget:
            return None
        idx = nz[mixed_radix(np.arange(total), [len(nz)] * mu.d)]
        pts = model.points_from_indices(idx)
        w = mu.site.num[idx].astype(object).prod(axis=-1)
        return Support(pts, np.array(w, dtype=np.int64), mu.site.den**mu.d, True)
    if isinstance(mu, Convolution):
        la = exact_support(mu.left, budget)
        lb = exact_support(mu.right, budget)
        if la is None or lb is None or la.points.shape[0] * lb.points.shape[0] > budget:
            return None
        return _merge_product(model, la, lb)
    if isinstance(mu, Mixture):
        subs = [exact_support(p, budget) for p in mu.parts]
        if any(s is None for s in subs):
            return None
        acc: dict[bytes, Fraction] = {}
        shapes: dict[bytes, np.ndarray] = {}
        for sub, c in zip(subs, mu.coeffs):
            for i in range(sub.points.shape[0]):
                key = model.candidate_key(sub.points[i])
                acc[key] = acc.get(key, Fraction(0)) + c * Fraction(
                    int(sub.weights_num[i]), sub.weights_den
                )
                shapes[key] = sub.points[i]
        return _from_fraction_dict(shapes, acc, all(s.exact for s in subs))
    # Doubled
    sub = exact_support(mu.inner, budget)
    if sub is None or sub.points.shape[0] ** 2 > budget:
        return None
    n = sub.points.shape[0]
    ii, jj = np.divmod(np.arange(n * n), n)
    pts = pair_candidates(measure_model(mu.inner), sub.points[ii], sub.points[jj])
    w = sub.weights_num[ii].astype(object) * sub.weights_num[jj].astype(object)
    return Support(pts, w, sub.weights_den**2, sub.exact)


def _merge_product(model, la: Support, lb: Support) -> Support:
    na, nb = la.points.shape[0], lb.points.shape[0]
    ii, jj = np.divmod(np.arange(na * nb), nb)
    prods = model.candidate_mul(la.points[ii], lb.points[jj])
    w = la.weights_num[ii].astype(object) * lb.weights_num[jj].astype(object)
    den = la.weights_den * lb.weights_den
    acc: dict[bytes, int] = {}
    shapes: dict[bytes, np.ndarray] = {}
    for i in range(prods.shape[0]):
        key = model.candidate_key(prods[i])
        acc[key] = acc.get(key, 0) + int(w[i])
        shapes[key] = prods[i]
    keys = sorted(acc)
    pts = np.stack([shapes[k] for k in keys])
    num = np.array([acc[k] for k in keys], dtype=np.int64)
    return Support(pts, num, den, la.exact and lb.exact)


def _from_fraction_dict(shapes: dict, acc: dict, exact: bool) -> Support:
    keys = sorted(acc)
    den = math.lcm(*[acc[k].denominator for k in keys])
    num = np.array([int(acc[k] * den) for k in keys], dtype=np.int64)
    pts = np.stack([shapes[k] for k in keys])
    return Support(pts, num, den, exact)


# -- sampling -----------------------------------------------------------------


def sample(mu: ModelMeasure, k: int, rng: np.random.Generator) -> np.ndarray:
    """k candidates drawn from mu; reproducible from the generator state."""
    model = measure_model(mu)
    if isinstance(mu, ProductMeasure):
        idx = mu.site.sample_indices(rng, k * mu.d).reshape(k, mu.d)
        return model.points_from_indices(idx)
    if isinstance(mu, PointMass):
        return np.repeat(mu.point[None, ...], k, axis=0)
    if isinstance(mu, UniformOnSet):
        pick = rng.integers(0, mu.points.shape[0], size=k)
        return mu.points[pick]
    if isinstance(mu, SampleBased):
        p = mu.weights_num / mu.weights_den
        pick = rng.choice(mu.points.shape[0], size=k, p=p)
        return mu.points[pick]
    if isinstance(mu, Convolution):
        a = sample(mu.left, k, rng)
        b = sample(mu.right, k, rng)
        return model.candidate_mul(a, b)
    if isinstance(mu, Mixture):
        coeffs = np.array([float(c) for c in mu.coeffs])
        which = rng.choice(len(mu.parts), size=k, p=coeffs)
        out = None
        for i, part in enumerate(mu.parts):
            n_i = int((which == i).sum())
            if n_i == 0:
                continue
            drawn = sample(part, n_i, rng)
            if out is None:
                out = np.empty((k,) + drawn.shape[1:], dtype=np.int64)
            out[which == i] = drawn
        return out
    # Doubled
    a = sample(mu.inner, k, rng)
    b = sample(mu.inner, k, rng)
    return pair_candidates(measure_model(mu.inner), a, b)


# -- mass of a set --------------------------------------------------------------


@dataclass(frozen=True)
class MassEstimate:
    value: float
    exact: bool
    stderr: float | None
    n_samples: int | None
    fraction: Fraction | None = None


def mass(
    mu: ModelMeasure,
    predicate: Callable[[np.ndarray], np.ndarray],
    budget: int = 10**6,
    n_samples: int = 10**4,
    rng: np.random.Generator | None = None,
) -> MassEstimate:
    """mu(predicate): exact summation over the representable support when it
    fits the budget, Monte Carlo with recorded standard error otherwise."""
    sup = exact_support(mu, budget)
    if sup is not None:
        mask = predicate(sup.points)
        num = int(sup.weights_num[mask].astype(object).sum())
        frac = Fraction(num, sup.weights_den)
        return MassEstimate(float(frac), sup.exact, None, None, frac)
    if rng is None:
        raise ValidationError("sampled mass needs a generator")
    xs = sample(mu, n_samples, rng)
    hits = predicate(xs)
    p = float(hits.mean())
    stderr = math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
    return MassEstimate(p, False, stderr, n_samples)


# -- convolution construction ---------------------------------------------------


def convolve(nu: ModelMeasure, mu: ModelMeasure, budget: int = 4096) -> ModelMeasure:
    """The measure of psi*phi (pointwise group product), psi ~ nu, phi ~ mu.

    Exact weighted atoms when both supports are small; Product (x) Product
    collapses to the product of site convolutions; otherwise a lazy
    Convolution node (exact marginals, sampled masses).
    """
    if measure_d(nu) != measure_d(mu):
        raise ValidationError("convolve needs equal d")
    model = measure_model(nu)
    if isinstance(nu, ProductMeasure) and isinstance(mu, ProductMeasure):
        return ProductMeasure(nu.site.convolve(mu.site), nu.d)
    sa = exact_support(nu, budget)
    sb = exact_support(mu, budget)
    if (
        sa is not None
        and sb is not None
        and sa.exact
        and sb.exact
        and sa.points.shape[0] * sb.points.shape[0] <= budget
    ):
        merged = _merge_product(model, sa, sb)
        return SampleBased(
            model=model,
            points=merged.points,
            weights_num=merged.weights_num,
            weights_den=merged.weights_den,
            seed=None,
            exact=True,
        )
    return Convolution(nu, mu)


def doubled(mu: ModelMeasure) -> ModelMeasure:
    """mu (x) mu on the doubled model, with structure-preserving shortcuts."""
    if isinstance(mu, ProductMeasure):
        return ProductMeasure(mu.site.tensor(mu.site), mu.d)
    if isinstance(mu, PointMass):
        return PointMass(product_model(mu.model), pair_candidates(mu.model, mu.point, mu.point))
    if isinstance(mu, Convolution):
        # (nu * mu) (x) (nu * mu) = (nu (x) nu) * (mu (x) mu)
        return Convolution(doubled(mu.left), doubled(mu.right))
    if isinstance(mu, Mixture):
        parts = []
        coeffs = []
        for pi, ci in zip(mu.parts, mu.coeffs):
            for pj, cj in zip(mu.parts, mu.coeffs):
                parts.append(_paired(pi, pj))
                coeffs.append(ci * cj)
        return Mixture(tuple(parts), tuple(coeffs))
    return Doubled(mu)


def _paired(a: ModelMeasure, b: ModelMeasure) -> ModelMeasure:
    """a (x) b for mixture doubling; falls back to materialized atoms."""
    model = measure_model(a)
    sa = exact_support(a, 4096)
    sb = exact_support(b, 4096)
    if sa is None or sb is None or sa.points.shape[0] * sb.points.shape[0] > 4096:
        raise ValidationError("mixture doubling needs small supports")
    na, nb = sa.points.shape[0], sb.points.shape[0]
    ii, jj = np.divmod(np.arange(na * nb), nb)
    pts = pair_candidates(model, sa.points[ii], sb.points[jj])
    w = sa.weights_num[ii].astype(object) * sb.weights_num[jj].astype(object)
    return SampleBased(
        model=product_model(model),
        points=pts,
        weights_num=w.astype(np.int64),
        weights_den=sa.weights_den * sb.weights_den,
        seed=None,
        exact=sa.exact and sb.exact,
    )
