"""Finite-scale models of compact groups with G-actions by automorphisms,
and the algebraic actions presented by integer group matrices.

Three model classes stand in for the compact group X:

* ``FiniteGroupModel``: an explicit finite group (element list and
  multiplication table).  Points are integer indices into ``labels``.
* ``PairModel``: the doubled model X x X of a finite model, as built by
  ``product_model``.  Points are the pair indices i*n + j; the group law
  decodes them to the factor's tables, so doubling costs O(1) memory beyond
  the factor and never builds an n^2 x n^2 table.  ``FiniteModel`` is the
  common base of these two index-point models.
* ``TorusGridModel``: the grid ((1/q)Z/Z)^sites inside the torus power.
  Points are length-``sites`` tuples of residues mod q; candidate arrays carry
  them as int64 rows.  All torus arithmetic is exact (residues, never floats).

Every model owns its point encoding and its automorphisms, so the code built
on top (actions, measures, microstates) never asks which kind it holds, and
``_check_same_model`` refuses to combine two of different group laws.  The
interface is one set of vectorized calls on candidate arrays, with no
one-point copy; a single point is an array of one point:

* ``n_points`` and ``identity`` describe the model, and a finite model's
  ``name`` shows in its repr;
* ``candidate_mul(a, b)`` is the group law;
* ``read_points(x, what)`` returns x as an int64 view, or raises
  ValidationError unless it holds points: indices 0..n-1, or rows of
  ``sites`` residues 0..q-1.  Points are read only through it;
* ``point_indices(x)`` / ``points_from_indices(idx)`` convert points to
  indices 0..n_points-1 and back.  Finite points are their own indices; a
  residue row's index is lexicographic, the last site fastest.
* ``identity_map()``, ``compose(a, b)`` (a o b), ``invert_map(m)`` and
  ``apply_map(m, x)`` work on automorphisms, stored as permutation arrays of
  point indices on a finite model (x -> m[x]) and as sites x sites integer
  matrices on a torus (x -> M x mod q).
* ``check_map(m)`` raises ValidationError unless m is an automorphism: a
  bijection fixing the identity and multiplicative on the generators, or a
  matrix invertible mod q.
* ``lift_map(m)`` is the diagonal map (x, y) -> (m x, m y) on the doubled
  model that ``product_model`` builds.

An algebraic action X_f given by f in M_{m,n}(Z(G)) is modeled two ways:

* for finite G, ``dual_model`` realizes X_f exactly as the finite subgroup of
  (Q/Z)^{n|G|} annihilated by the transpose of the r(f) matrix, carrying the
  coordinate-permutation G-action (the dual of left multiplication).  Its
  table and maps are index arithmetic on each point's Smith digits, the
  coordinates in which the Smith form splits X_f into a sum of Z/s_i;
* for any sofic approximation sigma, ``instantiate_Xf`` builds the
  approximate-kernel model: the set of x in (T_q^n)^d with every coordinate of
  f^(sigma) x within ``tol`` of 0 in R/Z, where f^(sigma) substitutes the
  permutation matrix of sigma(g) for each group element g.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import intlin
from .errors import (
    BudgetExceededError,
    SingularMatrixError,
    ValidationError,
    _Record,
)
from .groups import (
    GroupElement,
    GroupSpec,
    SoficApproximation,
    _abelian_quotient,
    _sort_key,
    _validate_table,
    _word_image,
    _word_text,
    quotient_sofic,
)
from .intlin import _int_table, _int_view, _integer, _read_only


# ---------------------------------------------------------------------------
# compact group models
# ---------------------------------------------------------------------------


class FiniteModel:
    """A finite group model whose points are the indices 0..n-1.

    Subclasses supply ``n_points``, ``identity``, ``name``, ``generators``
    (point indices whose right products, starting from the identity, reach
    every point) and the group law ``candidate_mul``.
    Only ``FiniteGroupModel`` names its points, by ``labels``; a
    ``PairModel``'s points are named by its factor's.  The base class adds the
    rest of the one model interface: ``read_points``, ``point_indices``,
    ``points_from_indices``, ``identity_map``, ``compose``, ``invert_map``,
    ``apply_map``, ``check_map`` and ``lift_map``.  Every call takes arrays
    of points, of any shape; one point is a 0-d array or an int.
    """

    # candidate arrays are int64 index vectors of shape (d,) or (N, d), and
    # points are their own indices
    def read_points(self, x, what: str = "points") -> np.ndarray:
        pts = _int_view(x, what)
        if pts.size and (pts.min() < 0 or pts.max() >= self.n_points):
            raise ValidationError(f"{what} must hold points of {self!r}, indices in 0..{self.n_points - 1}")
        return pts

    def point_indices(self, x) -> np.ndarray:
        return self.read_points(x)

    def points_from_indices(self, idx) -> np.ndarray:
        return self.read_points(idx, "point indices")

    # automorphisms are permutation arrays m, with x -> m[x]
    def identity_map(self) -> np.ndarray:
        return np.arange(self.n_points, dtype=np.int64)

    def compose(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Function composition a o b."""
        return a[b]

    def invert_map(self, m: np.ndarray) -> np.ndarray:
        return np.argsort(m).astype(np.int64)

    def apply_map(self, m: np.ndarray, x) -> np.ndarray:
        return m[x]

    def check_map(self, m: np.ndarray) -> None:
        points = np.arange(self.n_points)
        if m.shape != points.shape or not np.array_equal(np.sort(m), points):
            raise ValidationError("map is not a bijection of the model")
        if m[self.identity] != self.identity:
            raise ValidationError("map does not fix the identity")
        # m(x s) = m(x) m(s) for every generator s extends to all products
        # by induction along words in the generators
        for s in self.generators:
            if not (m[self.candidate_mul(points, s)] == self.candidate_mul(m, m[s])).all():
                raise ValidationError("map is not multiplicative")

    def lift_map(self, m: np.ndarray) -> np.ndarray:
        """The map (x, y) -> (m x, m y) on the pair indices of the doubled model.

        A lift is an automorphism of X x X exactly when m is one of X, so
        checking a lift, at O(n^2) per generator, never needs an n^4 step."""
        return (m[:, None] * self.n_points + m[None, :]).reshape(-1)

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class FiniteGroupModel(FiniteModel):
    """Explicit finite group: element labels plus multiplication table, whose
    identity is the element whose row fixes every column."""

    def __init__(self, labels: Sequence, mul: np.ndarray, *, name: str = ""):
        self.labels = tuple(labels)
        self.name = name or f"finite({len(self.labels)})"
        # a copy: the caller's table stays writable
        self.mul, self.identity, _, self.generators = _validate_table(mul, len(self.labels))

    @property
    def n_points(self) -> int:
        return len(self.labels)

    def candidate_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.mul[a, b]


class PairModel(FiniteModel):
    """The doubled model X x X of a finite model X, stored as X alone.

    Points are the pair indices i*n + j that ``pair_candidates`` builds.  The
    group law splits them with divmod and applies X's operations to each half,
    so no n^2 x n^2 table is built.  A product of groups is a group, so there
    is nothing to validate.
    """

    def __init__(self, factor: FiniteModel):
        self.factor = factor
        n, e = factor.n_points, factor.identity
        self.n_points = n * n
        self.identity = e * n + e
        self.name = f"{factor.name}^2"
        # (s, e) and (e, s) over the factor's generators s generate X x X
        self.generators = tuple(s * n + e for s in factor.generators) + tuple(
            e * n + s for s in factor.generators
        )

    def candidate_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.factor.n_points
        a1, a2 = np.divmod(a, n)
        b1, b2 = np.divmod(b, n)
        return self.factor.candidate_mul(a1, b1) * n + self.factor.candidate_mul(a2, b2)


class TorusGridModel:
    """The grid ((1/q)Z/Z)^sites; points are residue tuples, exact arithmetic.

    q and sites are integers with sites (q - 1)^2 < 2^63, so the int64 sums of
    products of residues in ``compose`` and ``apply_map`` cannot wrap."""

    def __init__(self, q: int, sites: int):
        # _integer refuses a float, which int() would truncate (2.5 -> 2)
        q, sites = _integer(q, "grid resolution q", least=2), _integer(sites, "the number of sites", least=1)
        if sites * (q - 1) ** 2 >= 2**63:
            raise OverflowError(f"sites * (q - 1)^2 = {sites * (q - 1) ** 2} reaches 2^63: int64 map products wrap")
        self.q, self.sites = q, sites

    @property
    def n_points(self) -> int:
        return self.q**self.sites

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.sites

    # candidate arrays are int64 of shape (d, sites) or (N, d, sites)
    def candidate_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.q

    # points are residue rows with their lexicographic index
    def read_points(self, x, what: str = "points") -> np.ndarray:
        pts = _int_view(x, what)
        if pts.shape[-1:] != (self.sites,) or pts.size and (pts.min() < 0 or pts.max() >= self.q):
            raise ValidationError(f"{what} must hold points of {self!r}: rows of {self.sites} residues 0..{self.q - 1}")
        return pts

    def point_indices(self, x) -> np.ndarray:
        if self.n_points > 2**63:
            raise OverflowError(f"{self!r} has {self.n_points} points: indices overflow int64")
        powers = self.q ** np.arange(self.sites - 1, -1, -1, dtype=np.int64)
        return self.read_points(x) @ powers

    def points_from_indices(self, idx) -> np.ndarray:
        idx = _int_view(idx, "point indices")
        if idx.size and (idx.min() < 0 or int(idx.max()) >= self.n_points):
            raise ValidationError(f"point indices of {self!r} lie in 0..{self.n_points - 1}")
        return intlin.mixed_radix(idx, [self.q] * self.sites)

    # automorphisms are integer matrices M, with x -> M x mod q
    def identity_map(self) -> np.ndarray:
        return np.eye(self.sites, dtype=np.int64)

    def compose(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Function composition a o b."""
        return (a % self.q) @ (b % self.q) % self.q

    def invert_map(self, m: np.ndarray) -> np.ndarray:
        """The inverse mod q, V diag(s_i^-1) U for the Smith form U m V = diag(s)."""
        s, u, v = intlin.smith_normal_form(m)
        units = [pow(s[i][i], -1, self.q) for i in range(self.sites)]
        return (np.array(v, dtype=object) * units @ np.array(u, dtype=object) % self.q).astype(np.int64)

    def apply_map(self, m: np.ndarray, x) -> np.ndarray:
        return np.einsum("st,...t->...s", m % self.q, x) % self.q

    def check_map(self, m: np.ndarray) -> None:
        """m is invertible mod q exactly when m x = 0 (mod q) has only x = 0."""
        if m.shape != (self.sites, self.sites):
            raise ValidationError("torus map must be a sites x sites integer matrix")
        if intlin.kernel_count_mod(m, self.q) != 1:
            raise ValidationError("torus matrix is not invertible mod q")

    def lift_map(self, m: np.ndarray) -> np.ndarray:
        """The block-diagonal map (x, y) -> (M x, M y) on twice the sites."""
        return np.kron(np.eye(2, dtype=np.int64), m)

    def __repr__(self):
        return f"TorusGridModel(q={self.q}, sites={self.sites})"


CompactGroupModel = FiniteModel | TorusGridModel


def _same_model(a: CompactGroupModel, b: CompactGroupModel) -> bool:
    """Whether two models have one group law: the same class, size, grid,
    pair factor and table."""
    while isinstance(a, PairModel) and isinstance(b, PairModel):
        a, b = a.factor, b.factor
    same = (type(a), a.n_points, getattr(a, "q", None)) == (type(b), b.n_points, getattr(b, "q", None))
    if same and isinstance(a, FiniteGroupModel) and a is not b:
        same = np.array_equal(a.mul, b.mul)
    return same


def _check_same_model(a: CompactGroupModel, b: CompactGroupModel) -> None:
    """Refuse to combine points of two models with different group laws."""
    if not _same_model(a, b):
        raise ValidationError(f"measures live on different models: {a!r} and {b!r}")


def product_model(model):
    """The doubled model X x X with componentwise operations.

    A finite model doubles to a lazy ``PairModel`` over its pair indices,
    which holds no table of its own; a torus grid doubles its sites.
    """
    if isinstance(model, FiniteModel):
        return PairModel(model)
    return TorusGridModel(model.q, 2 * model.sites)


def pair_candidates(model, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Combine candidates over X into candidates over the doubled model."""
    if isinstance(model, FiniteModel):
        return x1 * model.n_points + x2
    return np.concatenate([x1, x2], axis=-1)


# ---------------------------------------------------------------------------
# automorphism actions
# ---------------------------------------------------------------------------


class AutomorphismAction:
    """A G-action on a model by group automorphisms, given by the images of
    the generators: a homomorphism G -> Aut(X) is fixed by them once they
    satisfy the relations.

    ``generator_maps`` maps each generator name to a permutation array
    (finite models) or an integer matrix acting by x -> M x mod q (torus
    models); each must be an automorphism of the model.  The relations are
    checked with tolerance zero, by one rule: both words of every relation
    that the group lists in ``relations`` must have the same map.  A table
    group lists none, since its elements are not words; instead a
    breadth-first walk of the Cayley graph from e sets
    phi(g s) = phi(g) o phi(s) for every generator s, and every later visit
    of an element must give the map already cached for it.  If
    phi(g s) = phi(g) phi(s) for all g and s, then phi is a homomorphism (by
    induction on word length), so every relation holds; the walk costs
    |G| |S| compositions and leaves every element's map cached.

    Other elements' maps are composed along the canonical word on first use.
    Every cached map is read-only.  ``point_map(g)`` returns g's map and
    ``act_candidates(g, x)`` applies it to an array of points.
    """

    def __init__(self, group: GroupSpec, model: CompactGroupModel, generator_maps: Mapping[str, np.ndarray]):
        self.group = group
        self.model = model
        self._cache: dict[GroupElement, np.ndarray] = {}
        frozen = {}
        for name in group.generators:
            if name not in generator_maps:
                raise ValidationError(f"missing generator map for {name!r}")
            frozen[name] = _int_table(generator_maps[name], f"the map of generator {name!r}")
            model.check_map(frozen[name])
        self.generator_maps = MappingProxyType(frozen)
        if group.relations is None:
            self._walk_cayley_graph()
        for lhs, rhs in group.relations or ():
            if not np.array_equal(self._word_map(lhs), self._word_map(rhs)):
                raise ValidationError(f"generator maps break the relation {_word_text(lhs)} = {_word_text(rhs)}")

    # -- validation ----------------------------------------------------------

    def _walk_cayley_graph(self):
        group, compose = self.group, self.model.compose
        steps = [(group.generator(i), self.generator_maps[name]) for i, name in enumerate(group.generators)]
        e = group.identity()
        self._cache[e] = _read_only(self.model.identity_map())
        frontier = [e]
        while frontier:
            nxt = []
            for g in frontier:
                for s, m in steps:
                    gs, out = group.multiply(g, s), compose(self._cache[g], m)
                    if gs not in self._cache:
                        self._cache[gs] = _read_only(out)
                        nxt.append(gs)
                    elif not np.array_equal(out, self._cache[gs]):
                        raise ValidationError(f"generator maps are not a homomorphism: two words for {gs} differ")
            frontier = nxt

    def _word_map(self, word) -> np.ndarray:
        """The map of a word, (generator index, exponent) pairs."""
        model, maps = self.model, [self.generator_maps[n] for n in self.group.generators]
        return _word_image(word, maps, model.invert_map, model.compose, model.identity_map())

    # -- application -----------------------------------------------------------

    def point_map(self, g: GroupElement) -> np.ndarray:
        """The automorphism of the model implementing g (cached, read-only)."""
        if g not in self._cache:
            self._cache[g] = _read_only(self._word_map(self.group.word(g)))
        return self._cache[g]

    def act_candidates(self, g: GroupElement, x: np.ndarray) -> np.ndarray:
        """Apply g pointwise to a candidate array, or to one point."""
        return self.model.apply_map(self.point_map(g), x)


def trivial_action(group: GroupSpec, model: CompactGroupModel) -> AutomorphismAction:
    return AutomorphismAction(group, model, {n: model.identity_map() for n in group.generators})


def diagonal_action(action: AutomorphismAction) -> AutomorphismAction:
    """The action g.(x, y) = (g.x, g.y) on the doubled model."""
    lift = action.model.lift_map
    return AutomorphismAction(
        action.group, product_model(action.model), {k: lift(m) for k, m in action.generator_maps.items()}
    )


def cyclic_model(order: int) -> FiniteGroupModel:
    """Z/order as a finite model with labels 0..order-1."""
    n = order
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroupModel(tuple(range(n)), mul, name=f"Z/{n}")


def unit_automorphism(model: FiniteGroupModel, k: int) -> np.ndarray:
    """x -> k*x on a cyclic model (gcd(k, n) = 1)."""
    n = model.n_points
    if math.gcd(k % n, n) != 1:
        raise ValidationError("unit must be coprime to the order")
    return (k * np.arange(n)) % n


# ---------------------------------------------------------------------------
# integer group matrices and algebraic action models
# ---------------------------------------------------------------------------


class IntegerGroupMatrix(_Record):
    """An m x n matrix over the integral group ring Z(G).

    ``entries[l][j]`` maps group elements to integer coefficients (finite
    support).  Row index l ranges over the domain copies, column index j over
    the codomain copies, matching (r(f) xi)(j) = sum_l xi(l) f_{lj}.  The
    shape m x n is read from the grid, which must be rectangular.
    """

    group: GroupSpec
    entries: tuple[tuple[Mapping[GroupElement, int], ...], ...]

    def __init__(self, group: GroupSpec, entries: tuple[tuple[Mapping[GroupElement, int], ...], ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "entries", entries)
        # an empty f^(sigma) has no rows to list, so its columns would be lost
        if self.m < 1 or self.n < 1:
            raise ValidationError(f"f must be at least 1 x 1, not {self.m} x {self.n}")
        if any(len(r) != self.n for r in self.entries):
            raise ValidationError("entry grid must be rectangular")
        # _integer refuses a float, which int() would truncate (2.5 -> 2)
        frozen = tuple(
            tuple(
                MappingProxyType({g: k for g, c in cell.items() if (k := _integer(c, "a coefficient of f"))})
                for cell in row
            )
            for row in self.entries
        )
        object.__setattr__(self, "entries", frozen)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_pairs(cls, group: GroupSpec, entries: Sequence[Sequence[Sequence]]) -> "IntegerGroupMatrix":
        """Entries as [[ [(coeff, word), ...] , ...], ...]; words parsed by the group."""
        grid = []
        for row in entries:
            cells = []
            for cell in row:
                acc: dict[GroupElement, int] = {}
                for coeff, word in cell:
                    g = group.parse(word) if isinstance(word, str) else word
                    acc[g] = acc.get(g, 0) + _integer(coeff, "a coefficient of f")
                cells.append(acc)
            grid.append(tuple(cells))
        return cls(group=group, entries=tuple(grid))

    @classmethod
    def single(cls, group: GroupSpec, pairs: Sequence) -> "IntegerGroupMatrix":
        """The 1x1 (principal) case."""
        return cls.from_pairs(group, [[pairs]])

    def support(self) -> tuple[GroupElement, ...]:
        seen: dict[GroupElement, None] = {}
        for row in self.entries:
            for cell in row:
                for g in cell:
                    seen[g] = None
        return tuple(sorted(seen, key=_sort_key))


def sigma_matrix(f: IntegerGroupMatrix, sigma: SoficApproximation) -> np.ndarray:
    """The integer matrix f^(sigma) of shape (m*d, n*d).

    Block (l, j) is sum_g f_{lj}(g) P_g with P_g the permutation matrix of
    sigma(g) acting by (P_g x)_a = x_{sigma(g)^{-1}(a)}.  Row index a*m + l,
    column index b*n + j, matching candidates flattened C-order from (d, n).
    Where sigma sends two elements of the support to one entry, their
    coefficients add.  A block whose coefficients' absolute sum is below 2^63
    is filled in int64; any other is summed over Python ints first, and
    OverflowError is raised when one of its entries reaches 2^63 in absolute
    value.
    """
    d = sigma.d
    rows, cols = f.m * d, f.n * d
    out = np.zeros((rows, cols), dtype=np.int64)
    b_idx = np.arange(d)
    for l in range(f.m):
        for j in range(f.n):
            terms = [(sigma.perm(g), c) for g, c in f.entries[l][j].items()]
            if sum(abs(c) for _, c in terms) < 2**63:
                for p, c in terms:
                    out[p * f.m + l, b_idx * f.n + j] += c
                continue
            block = np.zeros((d, d), dtype=object)
            for p, c in terms:
                block[p, b_idx] += c
            if abs(worst := max(block.flat, key=abs)) >= 2**63:
                raise OverflowError(f"block ({l}, {j}) of f: an entry sums to {worst}, outside the int64 range ±(2^63 - 1)")
            out[l :: f.m, j :: f.n] = block
    return out


class AlgebraicActionModel(_Record, eq=False, hidden=("matrix",)):
    """Approximate-kernel model of X_f at one sofic level.

    The point set is {x in (T_q^n)^d : circle distance of every coordinate of
    f^(sigma) x to 0 is at most tol}; candidates are (d, n) residue arrays.
    tol = 0 gives the exact grid kernel, a subgroup.  q must be an integer
    >= 2, tol >= 0 and sigma's support must cover f's; ``matrix`` is
    f^(sigma), built from them (read-only) by ``sigma.perm``.
    """

    source: IntegerGroupMatrix
    sigma: SoficApproximation
    q: int
    tol: Fraction
    matrix: np.ndarray

    def __init__(self, source: IntegerGroupMatrix, sigma: SoficApproximation, q: int, tol: Fraction):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tol", tol)
        q, tol = _integer(self.q, "grid resolution q", least=2), Fraction(self.tol)
        if tol < 0:
            raise ValidationError("tolerance must be >= 0")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "matrix", _read_only(sigma_matrix(self.source, self.sigma)))

    @property
    def d(self) -> int:
        return self.sigma.d

    def residue_bound(self) -> int:
        """Largest residue c with c/q within tol of 0 on the circle."""
        t = self.tol
        bound = (t.numerator * self.q) // t.denominator
        return min(int(bound), self.q // 2)

    def is_kernel_point(self, x: np.ndarray) -> bool:
        """Exact membership test for a (d, n) candidate of residues 0..q-1.
        f^(sigma) x is summed over Python ints when (largest row |sum|) *
        (q - 1) reaches 2^63, since an int64 sum could wrap."""
        x, shape = _int_view(x, "a candidate"), (self.d, self.source.n)
        if x.shape != shape or x.min() < 0 or x.max() >= self.q:
            raise ValidationError(f"a candidate must be a {shape} array of residues 0..{self.q - 1}")
        mat, x = self.matrix, x.reshape(-1)
        if max(np.abs(mat).sum(axis=1, dtype=object)) * (self.q - 1) >= 2**63:
            mat, x = mat.astype(object), x.astype(object)
        res = (mat @ x) % self.q
        dist = np.minimum(res, self.q - res)
        return bool((dist <= self.residue_bound()).all())

    def enumerate_kernel(self, budget: int = 10**6) -> np.ndarray:
        """All tolerance-kernel grid points, shape (N, d, n), in lexicographic
        order of the flattened candidates; the same solve as grid-tolerance
        counting."""
        pts = _solve_residue_box(self.matrix, self.q, self.residue_bound(), budget)
        return pts.reshape(len(pts), self.d, self.source.n)


def instantiate_Xf(
    f: IntegerGroupMatrix, sigma: SoficApproximation, q: int, tol
) -> AlgebraicActionModel:
    """Build the approximate-kernel model of X_f over sigma on the q-grid."""
    return AlgebraicActionModel(source=f, sigma=sigma, q=q, tol=tol)


def _solve_residue_box(mat: np.ndarray, q: int, bound: int, budget: int) -> np.ndarray:
    """Every x in (Z/q)^cols with every residue of (mat x) mod q in
    [-bound, bound] around 0, as sorted int64 rows: one Smith form and one
    batch solve over all admissible targets."""
    rows = mat.shape[0]
    allowed = np.array(sorted({r % q for r in range(-bound, bound + 1)}), dtype=np.int64)
    n_targets = len(allowed) ** rows
    if n_targets > budget:
        raise BudgetExceededError(n_targets, budget, "residue box enumeration")
    targets = allowed[intlin.mixed_radix(np.arange(n_targets), [len(allowed)] * rows)]
    return intlin.solve_mod_batch(intlin.smith_normal_form(mat.tolist()), targets, q, budget)


def _character_det(model: AlgebraicActionModel) -> int | None:
    """det f^(sigma) by ``intlin.det_circulant`` when f is 1 x 1 and sigma is,
    on f's support, left multiplication on copies of a finite abelian
    quotient (``groups._abelian_quotient``); else None.  f^(sigma) is then
    block diagonal with one group circulant per copy, so its determinant is
    that of the first block, to the power copies.  The coefficients of
    elements that sigma sends to one shift are merged, and every row of the
    block holds the merged coefficients, so its Hadamard bound is their
    squared norm to the power of the block's size, plus 1."""
    f = model.source
    quotient = None if (f.m, f.n) != (1, 1) else _abelian_quotient(model.sigma, f.support())
    if quotient is None:
        return None
    orders, copies = quotient
    terms = f.entries[0][0]
    merged: dict[tuple, int] = {}
    for g, c in terms.items():
        shift = tuple(e % o for (_, e), o in zip(f.group.word(g), orders))
        merged[shift] = merged.get(shift, 0) + c
    bound = math.isqrt(sum(c * c for c in merged.values()) ** math.prod(orders)) + 1
    det = intlin.det_circulant(list(merged.values()), list(merged), orders, bound)
    return None if det is None else det**copies


def count_kernel_points(model: AlgebraicActionModel, mode: str, budget: int = 10**6) -> int:
    """Kernel size under one of three counting modes.

    continuous-exact: |det f^(sigma)| (square, nonsingular), exact.  When f
    is 1 x 1 and sigma is, on f's support, left multiplication on copies of
    a finite abelian quotient, as ``quotient_sofic`` builds for abelian
    groups (checked against sigma's table, so a perturbed or relabelled
    sigma fails), the determinant is the product of f's character values,
    by ``intlin.det_circulant``.  Every other case (free and table groups,
    perturbed sigma, f larger than 1 x 1, or too few primes = 1 mod the
    quotient's exponent) takes the multi-modular CRT of
    ``intlin.det_multimodular``: a lift certifies a divisor s of det by an
    exact product.  When f^(sigma) is strictly diagonally dominant, as it is
    when |f(e)| > sum_{g != e} |f(g)| and sigma(e) is the identity, an exact
    bound on det^2 then pins det / s with no prime; otherwise the CRT only
    runs past twice the Hadamard bound over s, and the full CRT runs where
    the lift falls back.
    grid-exact: exact solutions on the q-grid, by ``intlin.kernel_count_mod``:
    elimination on unit pivots mod q in int64 for q < 2^31, then
    prod gcd(s_i, q) * q^(skipped - rank) over the Smith form of the block
    left without a unit pivot (zero for a prime q).
    grid-tolerance: the x in (Z/q)^cols with every residue of A x within
    the tolerance of 0, for A = f^(sigma).  By Poisson summation on
    (Z/q)^rows the count is q^(cols - rows) times a sum over ker A^T mod q,
    and when that kernel is {0} it is |B|^rows q^(cols - rows), for B the
    allowed residues, with nothing listed.  Otherwise the points are listed
    by one batch solve over the admissible residue targets, and refused with
    BudgetExceededError when the targets or the points exceed ``budget``; so
    a refusal depends on |ker A^T mod q|, not on the number of targets.
    """
    mat = model.matrix
    if mode == "continuous-exact":
        if model.source.m != model.source.n:
            raise ValidationError("continuous-exact needs a square matrix")
        det = _character_det(model)
        if det is None:
            det = intlin.det_multimodular(mat)
        if det == 0:
            raise SingularMatrixError("matrix is singular")
        return abs(det)
    if mode == "grid-exact":
        return intlin.kernel_count_mod(mat, model.q)
    if mode == "grid-tolerance":
        rows, cols = mat.shape
        bound = model.residue_bound()
        if intlin.kernel_count_mod(mat.T, model.q) == 1:
            return min(2 * bound + 1, model.q) ** rows * model.q ** (cols - rows)
        return len(_solve_residue_box(mat, model.q, bound, budget))
    raise ValidationError(f"unknown counting mode {mode!r}")


def _torsion_kernel(mat: np.ndarray, budget: int | None = None) -> tuple[np.ndarray, list[int], list[list[int]]]:
    """The finite kernel of mat on (R/Z)^cols as (k, s, u): sorted int64 rows k
    with the points x = k / s_r, the invariant factors s = (s_1, ..., s_r) with
    r = cols, and the left transform u of the Smith form u @ mat @ v = diag(s).

    Every point lies on the grid (1/s_r)Z, since x = V y with y in
    prod (1/s_i)Z/Z and each s_i divides s_r; so the kernel is the solve of
    mat k = 0 mod s_r.  ``dual_model`` reads each point's coordinates y_i
    through u, as its Smith digits.
    """
    rows, cols = mat.shape
    snf = intlin.smith_normal_form(mat.tolist())
    diag = [snf[0][i][i] for i in range(min(rows, cols))]
    if len(diag) < cols or any(x == 0 for x in diag):
        raise SingularMatrixError("kernel is not finite (rank deficient)")
    return intlin.solve_mod_batch(snf, np.zeros((1, rows), dtype=np.int64), diag[-1], budget), diag, snf[1]


def continuous_kernel(mat: np.ndarray) -> list[tuple[Fraction, ...]]:
    """All x in (R/Z)^cols with mat x = 0 mod 1, for full-column-rank mat,
    in lexicographic order.

    Solved through the Smith form: the points are the solutions k of
    mat k = 0 mod s_r, for s_r the largest invariant factor, divided by s_r.
    Raises OverflowError when s_r >= 2^31.
    """
    pts, diag, _ = _torsion_kernel(mat)
    return _grid_labels(pts, diag[-1])


def _grid_labels(pts: np.ndarray, scale: int) -> list[tuple[Fraction, ...]]:
    """The labels k / scale of int64 rows k with entries in [0, scale), built
    from one Fraction per value of k.  A torsion kernel has a point of order
    scale, so there are never more values than points."""
    values = [Fraction(k, scale) for k in range(scale)]
    return [tuple(values[k] for k in row) for row in pts.tolist()]


# ---------------------------------------------------------------------------
# exact dual model for finite groups
# ---------------------------------------------------------------------------


def regular_matrix(f: IntegerGroupMatrix) -> np.ndarray:
    """The left-regular matrix of lambda(f): rows (g, l), columns (g', j),
    entry f_{lj}(g g'^-1).  Finite groups only.

    This is f^(sigma) for sigma the left-regular representation, whose
    sigma(h) sends g' to h g' in the order of ``elements()``."""
    spec = f.group
    return sigma_matrix(f, quotient_sofic(spec, {"kind": "regular"}, (spec.identity(),) + f.support()))


def _blocks(idx: np.ndarray, k: int) -> np.ndarray:
    """The indices i * k + r of the k-blocks of the indices i in ``idx``, in
    order: blocks of rows or columns of a matrix with k per group element."""
    return (idx[:, None] * k + np.arange(k)).reshape(-1)


def dual_model(f: IntegerGroupMatrix) -> tuple[FiniteGroupModel, AutomorphismAction]:
    """Exact model of X_f for finite G: the subgroup of (Q/Z)^{n|G|} annihilated
    by the transpose of the r(f) matrix, with the coordinate-permutation dual
    action (g.x)[(h, j)] = x[(g^-1 h, j)].

    Both come from one left-regular sigma, as in ``regular_matrix``: R^T is
    ``sigma_matrix(f, sigma)`` with its row and column blocks permuted by
    g -> g^-1, and sigma(g^-1) gives the source column of every coordinate
    under g.

    The points x = k / s_r come in lexicographic order of k.  For the Smith
    form U R^T V = diag(s), the digits y_i = (U R^T k / s_r)_i mod s_i over the
    s_i > 1 map X_f isomorphically onto the sum of the Z/s_i; so a + b is the
    point with digits y_a + y_b mod s, g.x the one with the digits of the
    permuted k, and each is found by the mixed-radix index of its digits.

    Requires the kernel to be finite (r(f) of full column rank over Q).  A
    kernel of more than 4096 points is refused with BudgetExceededError
    before it is listed, and OverflowError is raised when the int64 product
    R^T k could wrap.
    """
    spec = f.group
    if spec.order() is None:
        raise ValidationError("dual_model needs a finite group")
    els = spec.elements()
    pos = {g: i for i, g in enumerate(els)}
    N = len(els)
    inverses = [spec.inverse(spec.generator(i)) for i in range(len(spec.generators))]
    sigma = quotient_sofic(spec, {"kind": "regular"}, (spec.identity(), *f.support(), *inverses))
    # R^T[(g, l), (h, j)] = f_{lj}(g^-1 h) is the entry of f^(sigma) at
    # ((a, l), (b, j)), f_{lj}(a b^-1), read at a = g^-1 and b = h^-1
    inv = np.array([pos[spec.inverse(g)] for g in els], dtype=np.int64)
    rt = sigma_matrix(f, sigma)[np.ix_(_blocks(inv, f.m), _blocks(inv, f.n))]
    # the kernel points are pts / scale: sorted, distinct int64 rows
    pts, diag, u = _torsion_kernel(rt, budget=4096)
    K, cols = pts.shape
    scale = diag[-1]
    norm = max(sum(map(abs, row)) for row in rt.tolist())
    if norm * (scale - 1) >= 2**63:
        raise OverflowError(
            f"R^T k reaches {norm} * {scale - 1} = {norm * (scale - 1)}, past the int64 bound 2^63"
        )
    big = [i for i, s in enumerate(diag) if s > 1]
    moduli = np.array(diag, dtype=np.int64)[big]
    place = np.cumprod(moduli[::-1])[::-1] // moduli  # the last digit fastest
    u_digits = np.array([[x % scale for x in row] for row in u], dtype=np.int64)[big]

    def digits(k: np.ndarray) -> np.ndarray:
        # R^T k = 0 mod scale for every kernel point, so the division is exact
        z = (k.reshape(-1, cols) @ rt.T) // scale % scale
        y = intlin._apply_mod(u_digits, z, scale) % moduli
        return y.reshape(k.shape[:-1] + moduli.shape)

    y = digits(pts)
    rank = np.empty(K, dtype=np.int64)  # mixed-radix index -> point
    rank[y @ place] = np.arange(K)
    sums = np.zeros((K, K), dtype=np.int64)
    for i in range(len(moduli)):
        sums += (y[:, None, i] + y[None, :, i]) % moduli[i] * place[i]
    model = FiniteGroupModel(_grid_labels(pts, scale), rank[sums], name=f"dual(|G|={N}, n={f.n})")
    # (g.x)[(h, j)] = x[(g^-1 h, j)]: the source column of every target
    # column, for each generator g; sigma(g^-1) sends h to g^-1 h
    src = np.array([_blocks(sigma.perm(g), f.n) for g in inverses], dtype=np.int64).reshape(len(inverses), N * f.n)
    perms = rank[digits(pts[:, src].transpose(1, 0, 2)) @ place]
    action = AutomorphismAction(spec, model, dict(zip(spec.generators, perms)))
    return model, action


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


class Verdict(_Record):
    value: bool | None
    method: str

    def __init__(self, value: bool | None, method: str):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "method", method)


class HypothesisReport(_Record):
    """Finite-scale verdicts on the operator hypotheses behind X_f."""

    lambda_injective: Verdict
    lambda_dense_image: Verdict

    def __init__(self, lambda_injective: Verdict, lambda_dense_image: Verdict):
        object.__setattr__(self, "lambda_injective", lambda_injective)
        object.__setattr__(self, "lambda_dense_image", lambda_dense_image)


def verify_hypotheses(f: IntegerGroupMatrix) -> HypothesisReport:
    """Decide injectivity / dense image of lambda(f) where a finite-scale
    criterion exists; return explicit unknowns elsewhere.

    G = Z (one generator and no relations, so F_1 too; g = t^k for k the
    exponent sum of g's word) with square f: lambda(f) is injective iff
    P = det(t^-lo f(t)) is not zero, lo the least exponent, and dense image
    coincides with it by rank-nullity.  Leibniz gives ||P||_1 <= B, the
    product of the rows' absolute coefficient sums, so by Cauchy's bound no
    nonzero P has a root at T = B + 1: one exact determinant at T decides.
    Any other G with 1 x 1 f: if |f(e)| > sum_{g != e} |f(g)|, f is
    invertible in l^1(G) (a Neumann series for f(e) (1 + h) with
    ||h||_1 < 1), so lambda(f) is injective with dense image (Deninger and
    Schmidt 2007); equality decides nothing.  This rule comes first on
    finite G too, whose Smith form grows fast with |G|.  Any other f over
    finite G: rank of the left-regular integer matrix (in the square case,
    full rank is a nonzero determinant).
    """
    spec = f.group
    if len(spec.generators) == 1 and spec.relations == () and f.m == f.n:
        exp = {g: sum(e for _, e in spec.word(g)) for g in f.support()}
        lo = min(exp.values(), default=0)
        T = math.prod(sum(abs(c) for cell in row for c in cell.values()) for row in f.entries) + 1
        mat = [[sum(c * T ** (exp[g] - lo) for g, c in cell.items()) for cell in row] for row in f.entries]
        inj = intlin.det_multimodular(mat) != 0
        return HypothesisReport(
            lambda_injective=Verdict(inj, "fourier-symbol-determinant"),
            lambda_dense_image=Verdict(inj, "fourier-symbol-determinant+rank-nullity"),
        )
    if (f.m, f.n) == (1, 1):
        terms = f.entries[0][0]
        if 2 * abs(terms.get(spec.identity(), 0)) > sum(abs(c) for c in terms.values()):
            verdict = Verdict(True, "l1-invertible")
            return HypothesisReport(lambda_injective=verdict, lambda_dense_image=verdict)
    order = spec.order()
    if order is not None:
        rank = len(intlin.invariant_factors(regular_matrix(f).tolist()))
        inj, dense = rank == f.n * order, rank == f.m * order
        method = "left-regular-determinant" if f.m == f.n else "left-regular-rank"
        return HypothesisReport(
            lambda_injective=Verdict(inj, method),
            lambda_dense_image=Verdict(dense, method),
        )
    return HypothesisReport(
        lambda_injective=Verdict(None, "unknown-group-class"),
        lambda_dense_image=Verdict(None, "unknown-group-class"),
    )
