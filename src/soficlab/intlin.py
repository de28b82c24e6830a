"""Exact integer linear algebra.

Determinants, Smith normal form with unimodular transforms, grid-exact
kernel counts and the one lattice solver for ``A x = t (mod q)``.
``det_multimodular`` computes determinants: a Crout LU in float64 modulo
word-size primes, batched over the primes, combined by CRT past twice the
Hadamard bound B, so every result is exact.  When an int64 matrix would need
more than two primes, a lift first finds a divisor s of det: a float64
inverse refines a^-1 b for a fixed +-1 vector b by exact int64 residuals,
continued fractions read off the common denominator s of a^-1 b, and an
exact product a (s a^-1 b) = s b over Python ints certifies it.  When a is
strictly diagonally dominant, t = det a / s needs no prime at all: its sign
is that of the diagonal's product, and an exact bound on det a^2 after an
integer Cholesky-type preconditioning leaves one perfect square for t^2.
Otherwise the CRT runs on primes prime to s only past 2 B / s; a lift that
cannot run or fails its certificate falls back to the full CRT.
``det_circulant`` computes the determinant of a group circulant on a finite
abelian group, the product of its character values, mod primes
p = 1 (mod the group's exponent) below 2^31, in int64 and batched over the
primes; it shares the prime search (``_crt_primes``) and the CRT (``_crt``)
with ``det_multimodular``, and ``actions.count_kernel_points`` says which of
the two runs when.  ``det_bareiss`` (fraction-free
elimination over Python ints) is only the reference that tests check it
against; nothing in the package calls it.  The Smith form works over Python
ints, so nothing overflows; it repeats one round (move the least nonzero
entry of the trailing block to the pivot, reduce its row and column by floor
division) until the pivot divides the block, and the pivot falls at least
every second round, so the loop ends.  ``kernel_count_mod`` eliminates on
unit pivots mod q in int64 (q < 2^31) and hands the Smith form only the
block left without a unit pivot.  ``solve_mod_batch`` takes a Smith form,
reduces its transforms mod q once and solves a batch of targets in
vectorized int64 (q < 2^31), decoding the solution lattice with
``mixed_radix``.  Matrices are accepted as nested sequences or numpy arrays
and read by ``as_int_array``, which keeps the shape of an array, so a matrix
without rows still has its columns, reads an int64 array without a copy and
refuses a ragged matrix or one without two axes with ValidationError.

Integer input enters the package through three readers here, under one rule:
a non-integer is refused with ValidationError, never truncated, and a kept
array is a read-only copy.  ``_integer(value, what, least)`` reads one
integer by ``operator.index`` (bools refused), at least ``least`` if given;
``_int_table(values, what)`` returns an int64 copy of an array whose dtype is
an integer that casts to int64; ``_read_only(a)``, the one place that sets
array flags, freezes an array.  Candidates, lattice targets and matrices,
which are only read, go through ``_int_view(values, what)``: the same dtype rule, with
no copy of an int64 array.  Matrix entries follow the same rule, and uint64
or object entries, and nested lists that numpy reads as floats, are read one
by one, as Python ints past int64.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, ValidationError


def _integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int (numpy integers pass), at least ``least`` if given."""
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, not {value!r}")
    if least is not None and out < least:
        raise ValidationError(f"{what} must be >= {least}")
    return out


def _int_view(values, what: str) -> np.ndarray:
    """``values`` as an int64 array, the input itself when it is one; an
    empty array passes; a ragged nested list is refused."""
    try:
        a = np.asarray(values)
    except ValueError as exc:
        raise ValidationError(f"{what} must be a rectangular array of integers ({exc})") from None
    if a.size and not (a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)):
        raise ValidationError(f"{what} must hold integers, not {a.dtype}")
    return a.astype(np.int64, copy=False)


def _int_table(values, what: str) -> np.ndarray:
    """``values`` as a read-only int64 copy; an empty array passes."""
    return _read_only(np.array(_int_view(values, what)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_int_array(mat) -> np.ndarray:
    """mat as a 2-D int64 array, the input itself when it is one, or an
    object array of Python ints when an entry is beyond int64.  The shape of
    an array is kept, so a (0, k) input still has k columns; an empty
    sequence is 0 x 0.  A ragged matrix, one without two axes or one with a
    non-integer entry is refused with ValidationError."""
    try:
        a = np.asarray(mat)
    except ValueError as exc:
        raise ValidationError(f"a matrix must be a rectangular array of integers ({exc})") from None
    if a.size == 0 and a.ndim < 2:
        return np.zeros((0, 0), dtype=np.int64)
    if a.ndim != 2:
        raise ValidationError(f"a matrix needs two axes, not shape {a.shape}")
    # numpy reads a nested list that mixes small ints with one in
    # [2^63, 2^64) as float64, so such a list is read entry by entry too
    if a.dtype.kind in "uO" and not np.can_cast(a.dtype, np.int64) or (
        a.dtype.kind == "f" and not isinstance(mat, np.ndarray)
    ):
        rows = [[_integer(v, "a matrix entry") for v in row] for row in mat]
        try:
            return np.array(rows, dtype=np.int64)
        except OverflowError:
            return np.array(rows, dtype=object)
    return _int_view(a, "a matrix")


def det_bareiss(mat) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss fraction-free elimination: every intermediate division is exact,
    so the result is a Python int of unbounded precision.
    """
    a = as_int_array(mat).tolist()
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# The LU stack of one batch of primes stays within this many bytes.
_LU_BYTES = 32 * 2**20
# Primes found so far, largest first, for each upper limit and step.
_PRIMES: dict[tuple[int, int], list[int]] = {}
# The primitive n-th root of unity mod p that ``_root`` found, by (p, n).
_ROOTS: dict[tuple[int, int], int] = {}
# The character path's primes are at most this, so that a product of two
# residues stays below 2^62 in int64.
_CHARACTER_LIMIT = 2**31 - 1
# The dominance certificate's scale: G = round(2^_PIN_BITS L^-1) puts
# M = G a^T a G^T near 2^50 I, whose exact products need M below 2^52.
_PIN_BITS = 25
# The product of the 47 primes below 212: one gcd with it rejects most
# composite candidates before Miller-Rabin.
_SMALL_PRIMES = 1645783550795210387735581011435590727981167322669649249414629852197255934130751870910


def _hadamard_bound(a: np.ndarray) -> int:
    """B > |det a|: isqrt of the smaller of the products of the squared
    row norms and of the squared column norms, plus 1.  The squares are
    summed in int64 when no sum can reach 2^63, else over Python ints."""
    top = max(int(a.max()), -int(a.min()))
    sq = (a if len(a) * top * top < 2**63 else a.astype(object)) ** 2
    return math.isqrt(min(math.prod(sq.sum(axis=k).tolist()) for k in (0, 1))) + 1


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic for m < 3,215,031,751.
    Past 211, m with a factor below 212 is refused first."""
    if m < 11:
        return m in (2, 3, 5, 7)
    if m > 211 and math.gcd(m, _SMALL_PRIMES) > 1:
        return False
    e, s = m - 1, 0
    while e % 2 == 0:
        e, s = e // 2, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, e, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _primes(n: int, bound: int, coprime_to: int = 1) -> list[int]:
    """Primes p with n (p - 1)^2 < 2^53 that do not divide ``coprime_to``,
    largest first, until their product exceeds 2 * bound.  Every dot product
    of n residues mod p is then exact in float64."""
    return _crt_primes(math.isqrt((2**53 - 1) // n) + 1, bound, coprime_to=coprime_to)


def _crt_primes(limit: int, bound: int, step: int = 1, coprime_to: int = 1) -> list[int]:
    """Primes p <= limit with p = 1 (mod step) that do not divide
    ``coprime_to``, largest first, until their product exceeds 2 * bound;
    step 1 takes every prime.  They are found lazily, stepping down from the
    largest candidate, and cached per (limit, step).  Raises OverflowError
    when the primes run out first."""
    cache = _PRIMES.setdefault((limit, step), [])
    out, mod, i = [], 1, 0
    while mod <= 2 * bound:
        if i == len(cache):
            m = cache[-1] - step if cache else limit - (limit - 1) % step
            while not _is_prime(m):
                if m < 2:
                    raise OverflowError(f"the primes = 1 mod {step} to {limit} do not exceed twice the Hadamard bound")
                m -= step
            cache.append(m)
        p, i = cache[i], i + 1
        if coprime_to % p:
            out.append(p)
            mod *= p
    return out


def _crt(residues: list[int], primes: list[int]) -> int:
    """The x with x = r (mod p) for each residue r and prime p and
    |x| <= M / 2, for M the product of the primes (Garner's CRT)."""
    x, mod = 0, 1
    for r, p in zip(residues, primes):
        x += mod * ((r - x) * pow(mod, -1, p) % p)
        mod *= p
    return x - mod if x > mod // 2 else x


def _det_residues(a: np.ndarray, primes: list[int]) -> list[int]:
    """det a mod p for each prime, by one Crout LU of the (P, n, n) float64
    stack of residues, with L (unit diagonal) and U stored in place.

    Step k forms column k of L U and row k of U with batched matvecs; entries
    below p keep every dot product exact.  Each prime pivots on its first
    nonzero entry of the column, and det is the signed product of the pivots,
    the diagonal of U; a prime without a pivot has det = 0 mod p.
    """
    n = a.shape[0]
    ps = np.array(primes, dtype=np.int64)[:, None]
    lu = np.empty((len(primes), n, n))
    for j, p in enumerate(primes):
        lu[j] = a % p
    batch = np.arange(len(primes))
    det = np.ones(len(primes), dtype=np.int64)
    for k in range(n):
        col = lu[:, k:, k] - np.matmul(lu[:, k:, :k], lu[:, :k, k, None])[..., 0]
        col = col.astype(np.int64) % ps
        r = (col != 0).argmax(axis=1)
        lu[batch, k], lu[batch, k + r] = lu[batch, k + r], lu[batch, k]
        col[batch, 0], col[batch, r] = col[batch, r], col[batch, 0]
        piv = col[:, 0]
        det = np.where(r > 0, -det, det) * piv % ps[:, 0]
        if not det.any():
            break
        inv = np.array([pow(v, -1, p) if v else 0 for v, p in zip(piv.tolist(), primes)], dtype=np.int64)
        lu[:, k + 1 :, k] = col[:, 1:] * inv[:, None] % ps
        row = lu[:, k, k + 1 :] - np.matmul(lu[:, k, None, :k], lu[:, :k, k + 1 :])[:, 0]
        lu[:, k, k + 1 :] = row.astype(np.int64) % ps
    return det.tolist()


def _denominator(num: int, den: int, limit: int) -> int:
    """The denominator of the last continued-fraction convergent of num/den
    whose denominator is at most ``limit`` (den > 0)."""
    lo, hi = 1, 0
    while den:
        a, (num, den) = num // den, (den, num % den)
        lo, hi = hi, a * hi + lo
        if hi > limit:
            return lo
    return hi


def _is_product(a: np.ndarray, y: list[int], s: int, b: np.ndarray) -> bool:
    """Whether a @ y == s * b over the integers, for Python ints y and s,
    summed over the nonzero entries of a."""
    rows, cols = np.nonzero(a)
    acc = [-s * v for v in b.tolist()]
    for i, j, c in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
        acc[i] += c * y[j]
    return not any(acc)


def _lifted_denominator(a: np.ndarray, bound: int) -> int | None:
    """A divisor s of det a for an int64 matrix with |det a| < ``bound``:
    the least common denominator of x = a^-1 b for a fixed +-1 vector b.
    None when the lift cannot run or its answer fails the certificate.

    One float64 inverse C of a; then, with r_0 = b, the digits
    x_i = round(2^k C r_i) and the exact int64 residuals
    r_{i+1} = 2^k r_i - a x_i keep a N = 2^(km) b - r_m for
    N = sum_i x_i 2^(k(m - 1 - i)).  k leaves float64 room for C's error,
    n cond(a) 2^k < 2^50, and int64 room for every product: with
    |r_i| <= ||a|| (the largest row sum of |a|), |x_i| <= 2^k ||C|| ||a||,
    and cond(a) ||a|| 2^k < 2^61 keeps 2^k r_i and a x_i below 2^61.  m
    steps make 2^(km) exceed 2 bound^2 times the error |a^-1 r_m|, so by
    continued fractions the first entry's denominator is found and each
    further one multiplies in what the next entry still needs.  The
    certificate is exact: a y = s b over Python ints (``_is_product``), for
    y the integers nearest s x, and gcd(s, y) = 1 make s the least common
    denominator of a^-1 b, which divides det a because det a * a^-1 is
    integral.  None comes back on entries whose row sums may leave float64's
    exact range (n max|a| >= 2^52), a singular float inverse, no room for
    k >= 1, a residual above ||a|| (the inverse is too coarse for the
    refinement to converge) or a failed certificate.
    """
    n = len(a)
    if n * max(int(a.max()), -int(a.min())) >= 2**52:
        return None
    norm = int(np.abs(a).sum(axis=1).max())
    try:
        inv = np.linalg.inv(a.astype(np.float64))
    except np.linalg.LinAlgError:
        return None
    # cond(a) >= 1; a coarse inverse may read lower
    cond = max(norm * float(np.abs(inv).sum(axis=1).max()), 1.0)
    k = min(50 - math.log2(n * cond), 61 - math.log2(cond * norm))
    if not k >= 1:  # also an inverse with inf or nan entries
        return None
    k = int(k)
    err = 2 * math.ceil(cond) + 1
    steps = -(-(2 * bound * bound * err).bit_length() // k)
    # a fixed aperiodic +-1 pattern (the top bit of a Weyl sequence), so that
    # b is no eigenvector of a group-structured a, as all-ones would be
    b = np.where(np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(63), -1, 1)
    r, num = b, np.zeros(n, dtype=object)
    for _ in range(steps):
        x = np.rint(inv @ (r * 2.0**k)).astype(np.int64)
        r = (r << k) - a @ x
        if np.abs(r).max() > norm:
            return None
        num = num * (1 << k) + x.astype(object)
    km, s = k * steps, 1

    def nearest(t):  # the integer nearest t / 2^(km)
        return ((t >> (km - 1)) + 1) >> 1

    for v in num.tolist():
        t = s * v
        if abs(t - (nearest(t) << km)) > s * err:
            s *= _denominator(t, 1 << km, bound // s)
    y = [nearest(s * v) for v in num.tolist()]
    if math.gcd(s, *y) != 1 or not _is_product(a, y, s, b):
        return None
    return s


def _dominant(a: np.ndarray) -> bool:
    """Whether a is strictly diagonally dominant by rows or by columns."""
    twice = 2 * np.abs(np.diagonal(a))
    return any(bool((twice > np.abs(a).sum(axis=k)).all()) for k in (0, 1))


def _tri_inverse(low: np.ndarray) -> np.ndarray:
    """The float64 inverse of a lower triangular matrix, by halves:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]."""
    n = len(low)
    if n <= 64:
        return np.linalg.inv(low)
    h = n // 2
    top, bottom = _tri_inverse(low[:h, :h]), _tri_inverse(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h], out[h:, h:], out[h:, :h] = top, bottom, -bottom @ (low[h:, :h] @ top)
    return out


def _pinned_cofactor(a: np.ndarray, s: int) -> int | None:
    """|det a| / s for a strictly diagonally dominant int64 matrix a and a
    divisor s of det a, or None when the bound below leaves it open.

    L is the float64 Cholesky factor of a^T a and G = round(2^_PIN_BITS L^-1)
    with its upper triangle zeroed, so det G = prod G_ii exactly.  N = G a^T
    and M = N N^T = G a^T a G^T are exact integer matrices: each is a float64
    matmul of integers whose absolute partial sums stay below 2^53, for N
    because max|G| ||a|| < 2^53 (||a|| the largest row sum of |a|), for M
    because sum_j |N_ij N_lj| <= sqrt(M_ii M_ll) (Cauchy-Schwarz) and a
    computed diagonal below 2^52 puts the exact one below 2^53.  With
    D = diag M and X = D^-1 (M - D), tr X = 0 and, when
    eta = max_i sum_j |X_ij| < 1, every eigenvalue of X has modulus at most
    eta, so the series for log det(I + X) = sum_i log(1 + lambda_i) gives
    |log det(I + X)| <= sum_i |lambda_i|^2 / (2 (1 - eta)) <= beta =
    ||X||_F^2 / (2 (1 - eta)) (Schur's inequality); det(I + X) is real, so it
    lies in [1 - beta, 1 / (1 - beta)].  As det M = prod M_ii det(I + X) =
    (det G det a)^2, t^2 = (det a / s)^2 lies in
    [P (1 - beta) / Q, P / ((1 - beta) Q)] for P = prod M_ii and
    Q = (s prod G_ii)^2, and t is returned when its square is the only one
    there.  Each X_ij is one rounded quotient of exact integers, and eta and
    ||X||_F^2 are float sums of at most n^2 of them or their rounded squares,
    so raising both by the factor 1 + (n^2 + 4) 2^-52 covers every rounding;
    P, Q and the interval are exact.  Only G, which the floats choose, is
    inexact, and any G gives a true bound.

    On 5 - M over a free group beta comes out near n^2 2^-(2 _PIN_BITS), and
    a t much above 1 / beta cannot be pinned, so when the Cholesky diagonal
    (log2 |det a| = sum_i log2 L_ii) puts t past 2^(2 _PIN_BITS + 2) / n^2,
    None comes back before the inverse and the exact products.  It also
    comes back there when n max_i L_ii reaches 2^(_PIN_BITS + 2), whatever
    t is: G's rounding, up to 1/2 in each entry, adds about
    (L_ii + L_jj) 2^-(_PIN_BITS + 2) to each |X_ij|, so eta would come out
    near 2 (on dense dominant matrices the last t pinned was at 3/4 of it).
    """
    n = len(a)
    af = a.astype(np.float64)
    try:
        low = np.linalg.cholesky(af.T @ af)
    except np.linalg.LinAlgError:
        return None
    lii = np.diagonal(low)
    past_beta = np.log2(lii).sum() - math.log2(s) + 2 * math.log2(n) > 2 * _PIN_BITS + 2
    if past_beta or n * lii.max() >= 2.0 ** (_PIN_BITS + 2):
        return None
    g = np.tril(np.rint(_tri_inverse(low) * 2.0**_PIN_BITS))
    if not np.abs(g).max() * np.abs(a).sum(axis=1).max() < 2**53:  # also inf or nan
        return None
    nt = g @ af.T
    m = nt @ nt.T
    diag = np.diagonal(m)
    if not 0 < diag.min() <= diag.max() < 2**52:
        return None
    x = np.abs(m) / diag[:, None]
    np.fill_diagonal(x, 0)
    up = 1 + Fraction(n * n + 4, 2**52)
    eta = Fraction(float(x.sum(axis=1).max())) * up
    if not eta < 1:
        return None
    beta = Fraction(float((x * x).sum())) * up / (2 * (1 - eta))
    p = math.prod(int(v) for v in diag.tolist())
    q = (s * math.prod(int(v) for v in np.diagonal(g).tolist())) ** 2
    if not (beta < 1 and q):
        return None
    # t^2 in [p (den - num) / (den q), p den / ((den - num) q)] for beta = num / den
    num, den = beta.numerator, beta.denominator
    t = math.isqrt(-(-p * (den - num) // (den * q)) - 1) + 1
    return t if t * t * (den - num) * q <= p * den < (t + 1) ** 2 * (den - num) * q else None


def det_multimodular(mat) -> int:
    """Exact determinant of a square integer matrix, by CRT over primes.

    The primes lie below a limit set by n so that float64 elimination mod p
    is exact.  When a is int64 and twice the Hadamard bound B calls for more
    than two of them, ``_lifted_denominator`` first looks for a certified
    divisor s of det a (Dixon 1982; Abbott, Bronstein and Mulders 1999), so
    the CRT only needs t = det a / s, below B / s.  When the lift found s and a
    is strictly diagonally dominant by rows or columns, ``_pinned_cofactor``
    first tries
    to find |t| with no prime: every a + tau (D - a), 0 <= tau <= 1, D the
    diagonal, is dominant and so nonsingular (Levy-Desplanques), so
    sign det a = prod sign a_ii, and an exact interval for t^2 that holds one
    perfect square pins |t|.  Otherwise the primes that do not divide s are
    taken until their product M exceeds 2 * ceil(B / s), det a * s^-1 mod p
    is combined by CRT, and det a is s times the symmetric residue mod M.
    Without s (object entries beyond int64, at most two primes, or the lift
    fell back) s = 1 and the CRT runs past 2 * B.  Every path's result is
    exact.  The residues are found in batches whose LU stack stays
    within ``_LU_BYTES``.  Entries beyond int64 are reduced mod p over
    Python ints.
    """
    a = as_int_array(mat)
    n = len(a)
    if n == 0:
        return 1
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    bound = _hadamard_bound(a)
    s = 1
    # 2^53 / n exceeds the product of any two primes below the limit, so the
    # capped bound asks for a third prime exactly when the full one does,
    # and no more primes are searched for than that
    if a.dtype == np.int64 and len(_primes(n, min(bound, 2**53 // n))) > 2:
        s = _lifted_denominator(a, bound)
        t = _pinned_cofactor(a, s) if s and _dominant(a) else None
        if t is not None:
            return (-1) ** int((np.diagonal(a) < 0).sum()) * s * t
        s = s or 1
    primes = _primes(n, -(-bound // s), s)
    per_batch = max(1, _LU_BYTES // (8 * n * n))
    residues = [r for i in range(0, len(primes), per_batch) for r in _det_residues(a, primes[i : i + per_batch])]
    return s * _crt([r * pow(s, -1, p) % p for r, p in zip(residues, primes)], primes)


def _root(p: int, n: int) -> int:
    """A primitive n-th root of unity mod the prime p, for n | p - 1:
    w = g^((p - 1) / n) for the least g >= 2 with w^(n / r) != 1 for every
    prime r | n.  Cached by (p, n)."""
    if (p, n) not in _ROOTS:
        factors = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
        g = 2
        while any(pow(g, (p - 1) // r, p) == 1 for r in factors):
            g += 1
        _ROOTS[p, n] = pow(g, (p - 1) // n, p)
    return _ROOTS[p, n]


def det_circulant(coeffs: list[int], shifts, orders, bound: int) -> int | None:
    """Exact determinant of the group circulant sum_t c_t T_t on the finite
    abelian group A = Z/o_1 x ... x Z/o_k, for T_t the translation of A by
    row t of ``shifts``; None when too few primes p = 1 (mod N) are at most
    ``_CHARACTER_LIMIT``.

    The characters of A diagonalize every translation, so the determinant
    is the product over the characters chi of sum_t c_t chi(shift_t)
    (Lind, Schmidt and Ward 1990, in finite form).  For a prime p = 1
    (mod N), N = lcm(o_i), a primitive N-th root of unity w mod p (cached
    with p) sends chi_j(s) to w^(sum_i j_i s_i N / o_i), so the product is
    the determinant mod p.  All primes run at once on (primes x |A|) int64
    arrays: the powers of w by doubling, the character values summed over
    the terms, and the product taken by pairwise halving.  The primes are
    taken, largest first, until their product exceeds twice ``bound`` (a
    bound on |det|, as the Hadamard bound), and the residues are combined by
    the CRT of ``det_multimodular``.
    """
    orders = np.array(orders, dtype=np.int64)
    n = math.lcm(*orders.tolist())
    try:
        primes = _crt_primes(_CHARACTER_LIMIT, bound, n)
    except OverflowError:
        return None
    ps = np.array(primes, dtype=np.int64)[:, None]
    powers = np.empty((len(primes), n), dtype=np.int64)
    powers[:, 0] = 1
    w, filled = np.array([_root(p, n) for p in primes], dtype=np.int64)[:, None], 1
    while filled < n:
        k = min(filled, n - filled)
        powers[:, filled : filled + k] = powers[:, :k] * w % ps
        w, filled = w * w % ps, filled + k
    # the exponent of w in chi_j(shift_t): (terms, |A|) for every character j
    digits = mixed_radix(np.arange(math.prod(orders.tolist())), orders.tolist())
    shifts = np.asarray(shifts, dtype=np.int64).reshape(len(coeffs), len(orders)) % orders
    phase = (shifts[:, None, :] * digits % orders) @ (n // orders) % n
    # each term is below p < 2^31, so a sum of fewer than 2^32 terms fits
    values = np.zeros((len(primes), len(digits)), dtype=np.int64)
    for c, ph in zip(coeffs, phase):
        values += powers[:, ph] * np.array([c % p for p in primes], dtype=np.int64)[:, None] % ps
    values %= ps
    while values.shape[1] > 1:
        half = values.shape[1] // 2
        head = values[:, :half] * values[:, half : 2 * half] % ps
        if values.shape[1] % 2:
            head[:, :1] = head[:, :1] * values[:, -1:] % ps
        values = head
    return _crt(values[:, 0].tolist(), primes)


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (s, u, v) with u @ mat @ v = s.

    ``u`` and ``v`` are unimodular; ``s`` is diagonal with nonnegative
    invariant factors s_1 | s_2 | ... (zeros last).

    One kind of round on the block a[t:, t:] until it is zero: swap its
    nonzero entry of least |.| (first in row-major order) to (t, t) and make
    it positive; subtract from every row below t, and then from every column
    right of t, its floor multiple of row or column t.  A nonzero remainder
    in row or column t starts the next round.  Otherwise, if the pivot fails
    to divide an entry of the block, that entry's row is added to row t and
    the next round starts; else t moves on.  A remainder is below the pivot,
    and the row added in the second case leaves one in row t a round later,
    so the pivot falls at least once every two rounds and the loop ends.
    """
    m = as_int_array(mat)
    rows, cols = m.shape
    a = m.tolist()
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        least = min(((abs(x), i, j) for i in range(t, rows) for j, x in enumerate(a[i][t:], t) if x), default=None)
        if least is None:
            break
        _, i, j = least
        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
        p = a[t][t]
        for i in range(t + 1, rows):
            c = a[i][t] // p
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], a[t])]
                u[i] = [x - c * y for x, y in zip(u[i], u[t])]
        for j in range(t + 1, cols):
            c = a[t][j] // p
            if c:
                for row in a + v:
                    row[j] -= c * row[t]
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1 :]):
            continue
        i = next((i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1 :])), None)
        if i is not None:
            a[t] = [x + y for x, y in zip(a[t], a[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        t += 1
    return a, u, v


def invariant_factors(mat) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    s, _, _ = smith_normal_form(mat)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i] != 0]


def kernel_count_mod(mat, q: int) -> int:
    """Number of x in (Z/q)^cols with mat @ x = 0 (mod q).

    For q < 2^31, one Gaussian elimination mod q in int64: column by column,
    the first unused row whose entry is a unit mod q is swapped up, scaled to
    1 and subtracted from the unused rows below it, whole rows, because the
    skipped columns to the left are still live.  A column without a unit
    pivot is skipped.  With r pivots, column operations then give
    mat = diag(I_r, R) over Z/q, for R the unused rows on the skipped columns, so
    the count is prod gcd(s_i, q) * q^(skipped - rank R) over the invariant
    factors s_i of R.  R is zero for a prime q and = 0 (mod p) for q = p^k.
    Residues below 2^31 keep every product below 2^62; for a larger q no
    pivot is taken and R is the whole matrix.
    """
    a = as_int_array(mat)
    cols = a.shape[1]
    used, skipped = 0, []
    if q < 2**31:
        a = (a % q).astype(np.int64)
        for j in range(cols):
            units = np.flatnonzero(np.gcd(a[used:, j], q) == 1)
            if len(units) == 0:
                skipped.append(j)
                continue
            i = used + units[0]
            a[[used, i]] = a[[i, used]]
            a[used] = a[used] * pow(int(a[used, j]), -1, q) % q
            below = used + 1 + np.flatnonzero(a[used + 1 :, j])
            a[below] = (a[below] - np.outer(a[below, j], a[used])) % q
            used += 1
    else:
        skipped = list(range(cols))
    block = a[used:, skipped]
    divisors = invariant_factors(block.tolist()) if block.any() else []
    count = q ** (len(skipped) - len(divisors))
    for s in divisors:
        count *= math.gcd(s, q)
    return count


def mixed_radix(idx, widths) -> np.ndarray:
    """Digits of ``idx`` in the mixed radix ``widths``, the last digit fastest.

    Counting idx = 0, 1, ... runs through the product of the ranges
    ``range(w)`` in ``itertools.product`` order.  The output has shape
    ``idx.shape + (len(widths),)``.  The indices must be integers: a float
    is refused, not truncated.
    """
    rem = np.array(_int_view(idx, "mixed-radix indices"))
    out = np.empty(rem.shape + (len(widths),), dtype=np.int64)
    for k in range(len(widths) - 1, -1, -1):
        np.remainder(rem, widths[k], out=out[..., k])
        rem //= widths[k]
    return out


def _apply_mod(m: np.ndarray, xs: np.ndarray, q: int) -> np.ndarray:
    """m @ x mod q for every row x of ``xs``; entries of both are below q.
    Reducing after every column keeps each intermediate below q^2 + q."""
    out = np.zeros((xs.shape[0], m.shape[0]), dtype=np.int64)
    for k in range(m.shape[1]):
        out += np.multiply.outer(xs[:, k], m[:, k])
        out %= q
    return out


def solve_mod_batch(snf, targets, q: int, budget: int | None = None) -> np.ndarray:
    """Every x in (Z/q)^cols with A x = t (mod q) for some row t of ``targets``.

    ``snf`` is the (s, u, v) triple of ``smith_normal_form(A)`` and
    ``targets`` a (T, rows) int array of residues, distinct mod q.  With
    x = V y the system splits into the congruences s_i y_i = (U t)_i
    (mod q), with s_i = 0 past the diagonal: each has gcd(s_i, q) solutions
    or none.  Solutions never repeat, because V is invertible mod q and
    distinct targets have disjoint solution sets.  They come back as
    lexicographically sorted int64 rows of shape (N, cols).

    Raises BudgetExceededError, before building anything, when N exceeds
    ``budget``, and OverflowError when q >= 2^31, where int64 products of
    residues could wrap.
    """
    s, u, v = snf
    rows, cols = len(u), len(v)
    if q >= 2**31:
        raise OverflowError(f"modulus q = {q} is at least 2^31: int64 residue products would overflow")
    # c = U t padded with zeros to n coordinates; the rows past cols read
    # 0 = c_i (mod q), which gcd(0, q) = q tests like any other row
    n = max(rows, cols)
    diag = [s[i][i] if i < min(rows, cols) else 0 for i in range(n)]
    g = [math.gcd(si, q) for si in diag]
    u_q = np.zeros((n, rows), dtype=np.int64)
    u_q[:rows] = [[x % q for x in row] for row in u]
    v_q = np.array([[x % q for x in row] for row in v], dtype=np.int64).reshape(cols, cols)
    c = _apply_mod(u_q, np.atleast_2d(_int_view(targets, "lattice targets")) % q, q)
    c = c[(c % np.array(g, dtype=np.int64) == 0).all(axis=1), :cols]
    widths = g[:cols]
    per_target = math.prod(widths)
    if budget is not None and len(c) * per_target > budget:
        raise BudgetExceededError(len(c) * per_target, budget, "lattice solve")
    # s_i y_i = c_i (mod q): y_i = (c_i/g_i) (s_i/g_i)^-1 mod q/g_i, plus any
    # multiple of q/g_i; pow(0, -1, 1) == 0 covers s_i = 0 mod q
    step = np.array([q // gi for gi in widths], dtype=np.int64)
    inv = np.array([pow(si // gi % (q // gi), -1, q // gi) for si, gi in zip(diag, widths)], dtype=np.int64)
    base = c // np.array(widths, dtype=np.int64) * inv % step
    y = (base[:, None, :] + mixed_radix(np.arange(per_target), widths) * step).reshape(len(c) * per_target, cols)
    x = _apply_mod(v_q, y, q)
    return x[np.lexsort(x.T[::-1])] if cols else x

