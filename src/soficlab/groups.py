"""Countable discrete groups with designated finite quotients, and sofic
approximations sigma: G -> S_d built from them.

Supported group families (the quotient families the rest of the package can
instantiate):

* finitely generated abelian groups given by generator names and moduli
  (0 = infinite order): Z, Z^2, Z/N, products of cyclics.  Canonical element
  form is the reduced exponent vector.
* free groups F_r: canonical form is the reduced word; sofic models send each
  generator to an independent seeded uniform permutation and extend
  multiplicatively (an evaluation homomorphism, so pair defects vanish and
  only freeness is approximate).
* finite groups by explicit multiplication table: canonical form is the
  element index, and the identity is the row of the table that fixes every
  column; quotient model is the left regular representation, with optional
  k-fold block copies.

Each kind is decided in one place.  ``GroupSpec.__init__`` branches once
per kind and fixes there the tag, the identity's and the generators' bodies,
the order, the display name and the defining relations, as pairs of equal
words in ``relations`` (None for a table group, whose elements are not
words); only ``multiply``, ``inverse``, ``word``, ``elements`` and ``parse``
branch on the kind again, and ``quotient_sofic`` picks each kind's quotient
family.  A word becomes its image under a homomorphism (a group element, a
permutation or a model automorphism) through one product, ``_word_image``.

Permutations are stored 0-based as full one-line int64 arrays; their
common length is the degree d of a sofic approximation.
Groups keep read-only copies of their tables, sofic approximations keep
read-only copies of their permutations, and operations are pure.  A group
element knows its group by its tag alone; a sofic approximation is one
object, equal only to itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import UnsupportedElementError, ValidationError, _Record
from .intlin import _int_table, _integer, _read_only, mixed_radix


class GroupElement(_Record):
    """A group element in canonical form.

    ``key`` is (tag, body).  The tag identifies the group, so elements of
    different groups never compare equal: ``("a", moduli)`` for an abelian
    group, ``("f", rank)`` for a free group, and ``("x", labels, table
    bytes)`` for a table group, so two table groups share elements exactly
    when their labels and tables are equal.  Generator names are not part of
    the tag.  The body is the canonical content: an exponent tuple for
    abelian groups, a reduced ((gen_index, exponent), ...) word for free
    groups, an integer index for table groups.  Identity has the empty word
    (all-zero exponents / index of the table identity).
    """

    key: tuple

    # __init__, __eq__ and __hash__ are written out, not inherited: elements
    # are built, hashed and compared on every sigma table, product and parse
    def __init__(self, key: tuple):
        object.__setattr__(self, "key", key)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.key,) == (other.key,)
        return NotImplemented

    def __hash__(self):
        return hash((self.key,))

    def __str__(self) -> str:
        return _display(self)

    def __repr__(self) -> str:
        return f"GroupElement({_display(self)})"


def _display(el: GroupElement) -> str:
    tag, body = el.key[0][0], el.key[1]
    if tag == "x":
        return f"x{body}"
    return _word_text(body if tag == "f" else [(i, e) for i, e in enumerate(body) if e])


def _word_text(word) -> str:
    """A word of (generator index, exponent) pairs as ``g0*g1^-2``, or ``e``."""
    return "*".join(f"g{i}^{e}" if e != 1 else f"g{i}" for i, e in word) or "e"


class GroupSpec:
    """A group presentation plus its family of finite quotients.

    Construct through the factory classmethods (``integers``, ``integers2``,
    ``abelian``, ``cyclic``, ``free``, ``from_table``); the constructor is
    internal.
    """

    def __init__(self, kind: str, generators: tuple[str, ...], **params):
        self.kind = kind
        self.generators = generators
        k = len(generators)
        # each branch fixes the tag, the identity's and the generators' bodies,
        # the order (None when infinite), the display name and the relations
        if kind == "abelian":
            self.moduli: tuple[int, ...] = params["moduli"]
            if len(self.moduli) != k:
                raise ValidationError("one modulus per generator")
            self._tag = ("a", self.moduli)
            identity = (0,) * k
            # the exponent 1 reduces to 0 only mod 1
            gens = [tuple(int(i == j and m != 1) for j, m in enumerate(self.moduli)) for i in range(k)]
            order = math.prod(self.moduli) if all(self.moduli) else None
            name = " x ".join("Z" if m == 0 else f"Z/{m}" for m in self.moduli)
            # g_i g_j = g_j g_i, and g_i^m_i = e for each m_i > 0
            relations = tuple((((i, 1), (j, 1)), ((j, 1), (i, 1))) for i in range(k) for j in range(i + 1, k))
            relations += tuple((((i, m),), ()) for i, m in enumerate(self.moduli) if m)
        elif kind == "free":
            self._tag = ("f", k)
            identity, gens, order, name = (), [((i, 1),) for i in range(k)], None, f"F_{k}"
            relations = ()
        elif kind == "table":
            self.labels: tuple[str, ...] = params["labels"]
            n = len(self.labels)
            if len(set(self.labels)) != n:
                raise ValidationError(f"repeated table labels {self.labels}")
            gens = params["generator_indices"]
            # a frozen copy: the tag below reads the table once
            self.mul_table, identity, self.inv_table, spanning = _validate_table(params["mul_table"], n, gens)
            if not set(spanning) <= set(gens):
                raise ValidationError(f"generator indices {gens} do not generate the group")
            self._tag = ("x", self.labels, self.mul_table.tobytes())
            order, name, relations = n, f"table order {n}", None
        else:
            raise ValidationError(f"unknown group kind {kind!r}")
        if len(set(generators)) != k:
            raise ValidationError(f"repeated generator names {generators}")
        self._identity = GroupElement((self._tag, identity))
        self._generators = tuple(GroupElement((self._tag, g)) for g in gens)
        self._order, self._name, self.relations = order, name, relations

    # -- factories ---------------------------------------------------------

    @classmethod
    def integers(cls, name: str = "t") -> "GroupSpec":
        return cls("abelian", (name,), moduli=(0,))

    @classmethod
    def integers2(cls, names: tuple[str, str] = ("s", "t")) -> "GroupSpec":
        return cls("abelian", names, moduli=(0, 0))

    @classmethod
    def abelian(cls, names: Sequence[str], moduli: Sequence[int]) -> "GroupSpec":
        return cls("abelian", tuple(names), moduli=tuple(_integer(m, "a modulus", least=0) for m in moduli))

    @classmethod
    def cyclic(cls, order: int, name: str = "t") -> "GroupSpec":
        return cls.abelian((name,), (_integer(order, "cyclic order", least=1),))

    @classmethod
    def free(cls, rank: int, names: Sequence[str] | None = None) -> "GroupSpec":
        if names is None:
            names = tuple("abcdefgh"[:rank]) if rank <= 8 else tuple(f"x{i}" for i in range(rank))
        if len(names) != rank:
            raise ValidationError("name count must equal rank")
        return cls("free", tuple(names))

    @classmethod
    def from_table(
        cls,
        labels: Sequence[str],
        mul_table: Sequence[Sequence[int]],
        *,
        generator_indices: Sequence[int] | None = None,
    ) -> "GroupSpec":
        n = len(labels)
        gens = tuple(range(n)) if generator_indices is None else tuple(
            _integer(i, "a generator index") for i in generator_indices
        )
        if any(not 0 <= i < n for i in gens):
            raise ValidationError(f"generator indices {gens} out of range 0..{n - 1}")
        return cls(
            "table",
            tuple(labels[i] for i in gens),
            mul_table=mul_table,
            labels=tuple(labels),
            generator_indices=gens,
        )

    # -- element algebra ---------------------------------------------------

    def identity(self) -> GroupElement:
        return self._identity

    def generator(self, i: int) -> GroupElement:
        if not 0 <= _integer(i, "a generator index") < len(self._generators):
            raise ValidationError(f"generator index {i} out of range 0..{len(self._generators) - 1}")
        return self._generators[i]

    def word(self, g: GroupElement) -> tuple[tuple[int, int], ...]:
        """g as (generator index, exponent) pairs: one exponent per generator
        for an abelian group, the letters of the reduced word for a free group.

        Raises UnsupportedElementError for an element of another group, and
        for table groups, whose elements are not stored as words.
        """
        if g.key[0] != self._tag:
            raise UnsupportedElementError(g, f"not an element of {self!r}")
        if self.kind == "abelian":
            return tuple(enumerate(g.key[1]))
        if self.kind == "free":
            return g.key[1]
        raise UnsupportedElementError(g, "cannot express in generators")

    def _reduce_abelian(self, exps: tuple[int, ...]) -> GroupElement:
        reduced = tuple(e % m if m else e for e, m in zip(exps, self.moduli))
        return GroupElement((self._tag, reduced))

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if self.kind == "abelian":
            return self._reduce_abelian(tuple(x + y for x, y in zip(a.key[1], b.key[1])))
        if self.kind == "free":
            word = list(a.key[1])
            for gen, exp in b.key[1]:
                if word and word[-1][0] == gen:
                    merged = word[-1][1] + exp
                    word.pop()
                    if merged:
                        word.append((gen, merged))
                else:
                    word.append((gen, exp))
            return GroupElement((self._tag, tuple(word)))
        return GroupElement((self._tag, int(self.mul_table[a.key[1], b.key[1]])))

    def inverse(self, a: GroupElement) -> GroupElement:
        if self.kind == "abelian":
            return self._reduce_abelian(tuple(-e for e in a.key[1]))
        if self.kind == "free":
            return GroupElement((self._tag, tuple((g, -e) for g, e in reversed(a.key[1]))))
        return GroupElement((self._tag, int(self.inv_table[a.key[1]])))

    def power(self, a: GroupElement, n: int) -> GroupElement:
        return _word_image(((0, _integer(n, "an exponent")),), (a,), self.inverse, self.multiply, self._identity)

    def is_identity(self, a: GroupElement) -> bool:
        return a == self._identity

    def parse(self, text: str) -> GroupElement:
        """Parse a word like ``"t^2"``, ``"s*t^-1"``, ``"a b^-2"`` or ``"e"``.

        A table group first matches the whole text against its element labels,
        so they take precedence over the identity spellings ``"e"`` and ``"1"``.
        """
        text = text.strip()
        if self.kind == "table" and text in self.labels:
            return GroupElement((self._tag, self.labels.index(text)))
        if text in ("e", "1", ""):
            return self._identity
        name_to_index = {n: i for i, n in enumerate(self.generators)}
        out = self._identity
        for token in text.replace("*", " ").split():
            name, hat, exp_s = token.partition("^")
            try:
                exp = int(exp_s) if hat else 1
            except ValueError:
                raise ValidationError(f"malformed exponent in {token!r}") from None
            if name in name_to_index:
                base = self._generators[name_to_index[name]]
            elif self.kind == "table" and name in self.labels:  # a raw element label
                base = GroupElement((self._tag, self.labels.index(name)))
            else:
                raise ValidationError(f"unknown generator {name!r}")
            out = self.multiply(out, self.power(base, exp))
        return out

    def elements(self) -> tuple[GroupElement, ...]:
        """All elements (finite groups only)."""
        if self._order is None:
            raise ValidationError("elements() needs a finite group")
        if self.kind == "table":
            return tuple(GroupElement((self._tag, i)) for i in range(self._order))
        exps = mixed_radix(np.arange(self._order), self.moduli)
        return tuple(GroupElement((self._tag, tuple(e))) for e in exps.tolist())

    def order(self) -> int | None:
        return self._order

    def __repr__(self) -> str:
        return f"GroupSpec({self._name})"


def _sort_key(el: GroupElement):
    tag = el.key[0][0]
    body = el.key[1]
    if tag == "x":
        return (0, body)
    if tag == "a":
        return (1, tuple((abs(e), e < 0) for e in body), body)
    flat = tuple(x for pair in body for x in pair)
    return (2, len(body), flat)


def _validate_table(table, n: int, first: tuple[int, ...] = ()) -> tuple[np.ndarray, int, np.ndarray, tuple[int, ...]]:
    """Read ``table`` as the multiplication table of a group of order n, the
    one reader of group tables: return a read-only int64 copy of it, its
    identity index e, its read-only inverse table and a generating set, drawn
    from the indices ``first`` before any other, so that it lies inside
    ``first`` exactly when ``first`` generates the group.

    e is the first row equal to 0..n-1, the one element that fixes every
    column; the identity axiom then checks that row and its column.

    Associativity is checked completely by Light's test: if (x g) y = x (g y)
    for all x, y and every g in a generating set S, it holds for all g, since
    the g that pass are closed under multiplication.  S is chosen greedily, and
    in a group each new generator at least doubles the subgroup reached so far,
    so |S| <= log2(n) and the whole check costs O(n^2 log n) time, compared
    in row blocks of about 2^20 entries.
    """
    mul = _int_table(table, "a multiplication table")
    if mul.shape != (n, n):
        raise ValidationError("multiplication table shape mismatch")
    if n == 0:
        raise ValidationError("a group table needs at least one element")
    if (mul < 0).any() or (mul >= n).any():
        raise ValidationError("table entries out of range")
    e = int(np.argmax((mul == np.arange(n)).all(axis=1)))
    if not ((mul[e, :] == np.arange(n)).all() and (mul[:, e] == np.arange(n)).all()):
        raise ValidationError("identity axiom fails")
    inv = np.full(n, -1, dtype=np.int64)
    rows, cols = np.nonzero(mul == e)
    inv[rows] = cols
    if (inv < 0).any():
        raise ValidationError("some element has no inverse")
    gens: list[int] = []
    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    for g in (*first, *range(n)):
        if reached[g]:
            continue
        before = int(reached.sum())
        gens.append(g)
        _close(mul, reached, g)
        if reached.sum() < 2 * before:
            # not a subgroup extension, so not a group: with an identity and
            # inverses, only associativity can fail
            raise ValidationError("multiplication table is not associative")
    block = max(1, 2**20 // n)
    for g in gens:
        for lo in range(0, n, block):
            # (x g) y against x (g y), for x in the block and every y
            x_rows = mul[lo : lo + block]
            if not (mul[x_rows[:, g]] == np.take(x_rows, mul[g], axis=1)).all():
                raise ValidationError("multiplication table is not associative")
    return mul, e, _read_only(inv), tuple(gens)


def _close(mul: np.ndarray, reached: np.ndarray, g: int) -> None:
    """Grow the mask ``reached``, closed under products, by ``g`` to the set
    of all products of its points (in a group, the subgroup they generate).

    Each round multiplies the points new in the last round by every reached
    point on both sides, so every pair is multiplied once and the word
    lengths reached double per round; products are gathered in row blocks of
    about 2^20 entries.
    """
    n = mul.shape[0]
    block = max(1, 2**20 // n)
    reached[g] = True
    new = np.array([g])
    while new.size:
        old = np.flatnonzero(reached)
        hit = np.zeros(n, dtype=bool)
        for lo in range(0, new.size, block):
            part = new[lo : lo + block]
            hit[mul[np.ix_(part, old)]] = True
            hit[mul[np.ix_(old, part)]] = True
        new = np.flatnonzero(hit & ~reached)
        reached[new] = True


def _word_image(word, images, invert, compose, start):
    """The image of ``word``, (generator index, exponent) pairs, under the
    homomorphism sending generator i to ``images[i]``: ``start`` composed on
    the right, by ``compose(a, b)``, with each letter's image in turn, where
    a negative exponent steps by ``invert(images[i])``.  A letter's power is
    taken by squaring, in O(log |e|) compositions: the powers of one image
    commute, and every compose here is exact and associative, so the grouping
    changes no output.  Elements of a group, permutations and automorphisms
    of a model are all composed here."""
    out = start
    for gen, exp in word:
        step, n = (images[gen] if exp >= 0 else invert(images[gen])), abs(exp)
        while n:
            if n & 1:
                out = compose(out, step)
            n >>= 1
            if n:
                step = compose(step, step)
    return out


# ---------------------------------------------------------------------------
# sofic approximations
# ---------------------------------------------------------------------------


class SoficApproximation(_Record, eq=False):
    """A finite-support map sigma: G -> S_d stored as one-line permutations.

    The degree d is read from the table: the length of its first
    permutation.  Invariants enforced at construction: the table is nonempty,
    every entry is an integer array and a bijection of {0..d-1} for that one
    d >= 1, and sigma(e) is the identity permutation whenever e is in the
    support.
    sigma(g^-1) == sigma(g)^-1 is *not* enforced; the deviation is part of
    what sofic_defects measures.  ``provenance`` and ``quotient`` record how
    it was made.  It compares and hashes as an object: two approximations
    built alike are still two.
    """

    group: GroupSpec
    d: int
    table: Mapping[GroupElement, np.ndarray]
    provenance: str
    quotient: Mapping | None

    def __init__(
        self, group: GroupSpec, table: Mapping[GroupElement, np.ndarray], provenance: str, quotient: Mapping | None = None
    ):
        perms = {g: _int_table(perm, f"table entry for {g}") for g, perm in table.items()}
        d = next(iter(perms.values())).size if perms else 0
        if d == 0:
            raise ValidationError("sigma needs a nonempty table of nonempty permutations")
        for g, arr in perms.items():
            if arr.shape != (d,) or not _is_permutation(arr, d):
                raise ValidationError(f"table entry for {g} is not a permutation of 0..{d - 1}")
        e = group.identity()
        if e in perms and not (perms[e] == np.arange(d)).all():
            raise ValidationError("sigma(e) must be the identity permutation")
        super().__init__(group, d, MappingProxyType(perms), provenance, quotient)

    def perm(self, g: GroupElement) -> np.ndarray:
        try:
            return self.table[g]
        except KeyError:
            raise UnsupportedElementError(g, "sofic approximation support") from None


class SoficDefectReport(_Record):
    """Multiplicativity and freeness defects of a sofic approximation.

    ``pair_defects[(g, h)]`` is the fraction of j with
    sigma(g)sigma(h)(j) != sigma(gh)(j); ``fixed_fractions[g]`` the fraction
    of fixed points of sigma(g) for g != e.  All fractions exact.
    """

    pair_defects: Mapping[tuple[GroupElement, GroupElement], Fraction]
    fixed_fractions: Mapping[GroupElement, Fraction]


def _is_permutation(arr: np.ndarray, d: int) -> bool:
    if arr.min(initial=0) < 0 or arr.max(initial=-1) >= d:
        return False
    return np.bincount(arr, minlength=d).max() == 1


def quotient_sofic(
    spec: GroupSpec, quotient: Mapping, support: Sequence[GroupElement]
) -> SoficApproximation:
    """Sofic approximation from a designated finite quotient (or free-group
    random-permutation model), by left multiplication on the quotient.

    ``support`` must be finite and contain the identity.  Elements that the
    quotient family cannot express are rejected by name.  Each group family
    is validated and built in one branch: ``cyclic-powers`` (or ``regular``
    when finite) for abelian groups, ``regular`` for table groups and
    ``random-permutations`` for free groups.
    """
    kind = quotient.get("kind")
    copies = _integer(quotient.get("copies", 1), "copies", least=1)
    support = tuple(dict.fromkeys(support))
    if spec.identity() not in support:
        raise ValidationError("support must contain the identity")
    perms: dict[GroupElement, np.ndarray] = {}
    if spec.kind == "abelian":
        _, perms = _abelian_perms(spec, quotient, support)
    elif spec.kind == "table":
        if kind != "regular":
            raise ValidationError(f"table groups offer regular quotients, not {kind!r}")
        for g in support:
            if g.key[0] != spec._tag:
                raise UnsupportedElementError(g, f"not an element of {spec!r}")
            perms[g] = spec.mul_table[g.key[1], :]  # j -> g*j
    else:
        if kind != "random-permutations":
            raise ValidationError(f"free groups offer random-permutations models, not {kind!r}")
        degree = _integer(quotient["degree"], "degree", least=1)
        seed = _integer(quotient.get("seed", 0), "seed", least=0)
        rngs = (np.random.default_rng([seed, 0xF2EE, i]) for i in range(len(spec.generators)))
        gen_perms = [rng.permutation(degree) for rng in rngs]
        start = np.arange(degree, dtype=np.int64)
        for g in support:
            # left-to-right function composition: sigma(uv) = sigma(u) o sigma(v)
            perms[g] = _word_image(spec.word(g), gen_perms, np.argsort, np.take, start)
    if copies > 1:
        perms = {g: _in_copies(p, copies) for g, p in perms.items()}
    return SoficApproximation(
        group=spec,
        table=perms,
        provenance="quotient-induced",
        quotient=dict(quotient),
    )


def _abelian_perms(
    spec: GroupSpec, quotient: Mapping, support: Sequence[GroupElement]
) -> tuple[tuple[int, ...], dict[GroupElement, np.ndarray]]:
    """The orders (o_1, ..., o_k) of the abelian quotient that ``quotient``
    names, ``cyclic-powers`` or ``regular``, and sigma(g) for each g in
    ``support``: translation by g's exponents mod the orders.  The point of
    (a_1, ..., a_k) is its lexicographic index, the last coordinate fastest."""
    kind = quotient.get("kind")
    if kind == "regular":
        # alias: regular representation of a finite abelian group
        if not all(spec.moduli):
            raise ValidationError("regular quotient needs a finite group")
        orders = spec.moduli
    elif kind != "cyclic-powers":
        raise ValidationError(f"abelian groups offer cyclic-powers quotients, not {kind!r}")
    else:
        orders = tuple(_integer(x, "quotient orders", least=1) for x in quotient["orders"])
        if len(orders) != len(spec.generators):
            raise ValidationError("one quotient order per generator")
        for m, o in zip(spec.moduli, orders):
            if m and m % o != 0:
                raise ValidationError(f"relation g^{m} does not die in Z/{o}")
    grids = np.meshgrid(*[np.arange(o) for o in orders], indexing="ij")
    perms = {}
    for g in support:
        coords = [(grid + e) % o for grid, (_, e), o in zip(grids, spec.word(g), orders)]
        perms[g] = np.ravel_multi_index(coords, orders).reshape(-1)
    return orders, perms


def _in_copies(perm: np.ndarray, copies: int) -> np.ndarray:
    """``perm`` on each of ``copies`` copies of its points: copy k acts on
    the points k * d .. k * d + d - 1."""
    return (perm + len(perm) * np.arange(copies)[:, None]).reshape(-1)


def _abelian_quotient(sigma: SoficApproximation, support: Sequence[GroupElement]) -> tuple[tuple[int, ...], int] | None:
    """(orders, copies) when sigma is, on ``support``, left multiplication on
    ``copies`` copies of the abelian quotient its ``quotient`` record names,
    else None.  Each sigma(g) is rebuilt by ``_abelian_perms`` and compared
    with the table, at O(d |support|) cost: the record alone certifies
    nothing, since ``perturb`` keeps it and a table can be built by hand."""
    spec, quotient = sigma.group, sigma.quotient
    if spec.kind != "abelian" or quotient is None:
        return None
    try:
        copies = _integer(quotient.get("copies", 1), "copies", least=1)
        orders, perms = _abelian_perms(spec, quotient, support)
    except (KeyError, TypeError, ValidationError, UnsupportedElementError):
        return None
    if math.prod(orders) * copies != sigma.d:
        return None
    for g, p in perms.items():
        if g not in sigma.table or not np.array_equal(sigma.table[g], _in_copies(p, copies)):
            return None
    return orders, copies


def sofic_defects(sigma: SoficApproximation, F: Sequence[GroupElement]) -> SoficDefectReport:
    """Defect report over F: pair defects for (g, h) with g, h, gh all in the
    table support, fixed-point fractions for g != e; F must lie in it."""
    spec = sigma.group
    perm = {g: sigma.perm(g) for g in F}  # the window, in order and without repeats
    pair_defects: dict[tuple[GroupElement, GroupElement], Fraction] = {}
    for g in perm:
        for h in perm:
            gh = spec.multiply(g, h)
            if gh not in sigma.table:
                # pairs whose product leaves the support are not measurable
                continue
            mismatches = int((perm[g][perm[h]] != sigma.table[gh]).sum())
            pair_defects[(g, h)] = Fraction(mismatches, sigma.d)
    fixed: dict[GroupElement, Fraction] = {}
    idx = np.arange(sigma.d)
    for g in perm:
        if spec.is_identity(g):
            continue
        fixed[g] = Fraction(int((perm[g] == idx).sum()), sigma.d)
    return SoficDefectReport(
        pair_defects=MappingProxyType(pair_defects),
        fixed_fractions=MappingProxyType(fixed),
    )


def perturb(sigma: SoficApproximation, rate: float, seed: int) -> SoficApproximation:
    """Compose every table permutation with ceil(rate*d) random transpositions.

    The transposition stream is split per table entry from (seed, element), so
    the same (sigma, rate, seed) always reproduces the same output and the
    result does not depend on dict iteration order.
    """
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0 <= rate <= 1:
        raise ValidationError(f"perturbation rate must be a real number in [0, 1], not {rate!r}")
    seed = _integer(seed, "seed", least=0)
    n_swaps = math.ceil(rate * sigma.d)
    table = {}
    for g in sorted(sigma.table, key=_sort_key):
        perm = sigma.table[g].copy()
        if n_swaps and not sigma.group.is_identity(g):
            tag = _element_stream_tag(g)
            rng = np.random.default_rng([seed, 0x5EED, tag])
            for _ in range(n_swaps):
                i, j = rng.integers(0, sigma.d, size=2)
                perm[i], perm[j] = perm[j], perm[i]
        table[g] = perm
    return SoficApproximation(
        group=sigma.group,
        table=table,
        provenance="perturbed",
        quotient=sigma.quotient,
    )


def _element_stream_tag(g: GroupElement) -> int:
    blob = json.dumps(g.key[1]).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
