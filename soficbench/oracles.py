"""Reference answers that do not use ``soficlab.intlin``.

Every function here works from plain integers, floats or numpy arrays (the
permutations of a sofic approximation, a weight vector, a multiplication
table), so a defect in the package's exact linear algebra cannot also hide in
its check.  Each ``check_*`` returns ``None`` when the program's answer agrees
and a one-line reason when it does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def dense_matrix(coeffs: list[tuple[np.ndarray, int]], d: int) -> np.ndarray:
    """sum_g c_g P_g with (P_g)[perm_g[b], b] = 1, as an int64 (d, d) array."""
    out = np.zeros((d, d), dtype=np.int64)
    cols = np.arange(d)
    for perm, c in coeffs:
        np.add.at(out, (perm, cols), c)
    return out


# -- continuous-exact: |det| ---------------------------------------------------------


def torus_log_mahler_sum(n1: int, n2: int) -> float:
    """sum over the characters of Z/n1 x Z/n2 of log(5 - 2cos - 2cos): log|det|
    of 5 - s - s^-1 - t - t^-1 on the torus, summed in floats."""
    a = 2 * np.cos(2 * np.pi * np.arange(n1) / n1)
    b = 2 * np.cos(2 * np.pi * np.arange(n2) / n2)
    return float(np.log(5.0 - a[:, None] - b[None, :]).sum())


def check_z_det(count: int, d: int) -> str | None:
    """|det| of 3 - t on Z/d: the circulant 3I - P has determinant 3^d - 1."""
    return None if count == 3**d - 1 else f"|det| {count} != 3^{d}-1"


LOG_DET_TOL = 1e-9


def check_log_det(count: int, log_want: float, d: int) -> str | None:
    """(1/d) log count against (1/d) log|det| from floats, to LOG_DET_TOL."""
    if count <= 0:
        return f"count {count} is not positive"
    gap = abs(math.log(count) - log_want) / d
    return None if gap <= LOG_DET_TOL else f"(1/d)log count off by {gap:.3g} > {LOG_DET_TOL:g}"


def slogdet_abs(mat: np.ndarray) -> float:
    sign, logabs = np.linalg.slogdet(np.asarray(mat, dtype=np.float64))
    if sign == 0:
        raise ValueError("oracle matrix is singular")
    return float(logabs)


# -- grid-exact: kernel size mod a prime -----------------------------------------------


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank over Z/p by row reduction on int64 residues (entries stay < p)."""
    a = np.asarray(mat, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        below = a[rank + 1 :, c].copy()
        a[rank + 1 :] = (a[rank + 1 :] - below[:, None] * a[rank]) % p
        rank += 1
    return rank


def kernel_count_prime(mat: np.ndarray, p: int) -> int:
    """#{x in (Z/p)^cols : mat x = 0 mod p} = p^(cols - rank_p)."""
    return p ** (mat.shape[1] - rank_mod_p(mat, p))


def z_grid_count(d: int, q: int) -> int:
    """Kernel of 3 - t on (Z/q)^d for Z/d: Z[t]/(3 - t, t^d - 1) = Z/(3^d - 1)."""
    return math.gcd(3**d - 1, q)


# -- grid-tolerance ----------------------------------------------------------------------


def allowed_residues(q: int, bound: int) -> np.ndarray:
    ok = np.zeros(q, dtype=bool)
    ok[[r % q for r in range(-bound, bound + 1)]] = True
    return ok


def z_tolerance_count(d: int, q: int, bound: int) -> int:
    """Points x of (Z/q)^d with 3 x_a - x_{a-1} (mod q) within ``bound`` of 0 for
    every a in Z/d, as the trace of the d-th power of the q x q transfer matrix
    (Python ints, so nothing overflows)."""
    ok = allowed_residues(q, bound)
    t = [[int(ok[(3 * v - u) % q]) for v in range(q)] for u in range(q)]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(q)) for j in range(q)] for i in range(q)]

    acc = [[int(i == j) for j in range(q)] for i in range(q)]
    base, e = t, d
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return sum(acc[i][i] for i in range(q))


BRUTE_LIMIT = 10**6
BRUTE_CHUNK = 1 << 16


def brute_tolerance_count(mat: np.ndarray, q: int, bound: int) -> int:
    """Count x in (Z/q)^cols with every residue of mat x within ``bound`` of 0,
    by enumerating the whole grid (only where q^cols <= BRUTE_LIMIT)."""
    cols = mat.shape[1]
    total = q**cols
    if total > BRUTE_LIMIT:
        raise ValueError(f"grid of {total} points is past the brute-force limit")
    ok = allowed_residues(q, bound)
    powers = q ** np.arange(cols - 1, -1, -1, dtype=np.int64)
    count = 0
    for lo in range(0, total, BRUTE_CHUNK):
        idx = np.arange(lo, min(lo + BRUTE_CHUNK, total), dtype=np.int64)
        xs = (idx[:, None] // powers[None, :]) % q
        res = (xs @ mat.T) % q
        count += int(ok[res].all(axis=1).sum())
    return count


# -- microstates ---------------------------------------------------------------------------


def mismatch_counts(xs: np.ndarray, maps: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Per candidate and per window element g: #{j : m_g[x_j] != x[perm_g[j]]},
    shape (N, |F|), for finite models (maps are (perm_g, point map m_g))."""
    return np.stack([(m[xs] != xs[:, p]).sum(axis=1) for p, m in maps], axis=1)


def top_mask_discrete(xs, maps, d: int, delta: Fraction) -> np.ndarray:
    """Discrete-metric membership: for every g, mismatches/d < delta^2 or none."""
    m = mismatch_counts(xs, maps)
    dsq = Fraction(delta) ** 2
    ok = (m * dsq.denominator < dsq.numerator * d) | (m == 0)
    return ok.all(axis=1)


def panel_mask_uniform(xs: np.ndarray, n: int, delta: Fraction) -> np.ndarray:
    """Indicator-panel conditions against the uniform target on n points:
    |#{j : x_j = i}/d - 1/n| < delta (or equal) for every point i."""
    d = xs.shape[1]
    delta = Fraction(delta)
    ok = np.ones(xs.shape[0], dtype=bool)
    for i in range(n):
        gap = np.abs((xs == i).sum(axis=1) * n - d)  # |count/d - 1/n| * n*d
        ok &= (gap * delta.denominator < delta.numerator * n * d) | (gap == 0)
    return ok


def all_candidates(n: int, d: int) -> np.ndarray:
    """Every x in {0..n-1}^d in lexicographic order."""
    idx = np.arange(n**d, dtype=np.int64)
    powers = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % n


def check_same_rows(got: np.ndarray, want: np.ndarray) -> str | None:
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    if not (got == want).all():
        return "rows differ"
    return None


def check_block_constant(xs: np.ndarray, cycle_len: int, copies: int, n: int) -> str | None:
    """Trivial action on ``copies`` cycles of length ``cycle_len``: the exact
    solutions are the n^copies candidates constant on each cycle, in lex order."""
    want = np.repeat(all_candidates(n, copies), cycle_len, axis=1)
    return check_same_rows(xs, want)


# -- measures ------------------------------------------------------------------------------


def pushforward(wa: np.ndarray, wb: np.ndarray, mul: np.ndarray) -> list[int]:
    """Exact (Python int) weights of the product measure pushed through mul."""
    out = [0] * mul.shape[0]
    for a in np.nonzero(wa)[0]:
        for b in np.nonzero(wb)[0]:
            out[int(mul[a, b])] += int(wa[a]) * int(wb[b])
    return out


def check_site_weights(num, den, want_num: list[int]) -> str | None:
    """A SiteMeasure (num/den) against unnormalized exact weights."""
    total = sum(want_num)
    got = [Fraction(int(v), int(den)) for v in num]
    want = [Fraction(v, total) for v in want_num]
    return None if got == want else "site weights differ from the exact pushforward"


def atoms_pushforward(pa: np.ndarray, pb: np.ndarray, mul: np.ndarray) -> dict[bytes, Fraction]:
    """Law of the pointwise product of a uniform draw from pa and one from pb."""
    out: dict[bytes, Fraction] = {}
    w = Fraction(1, pa.shape[0] * pb.shape[0])
    for x in pa:
        for y in pb:
            key = np.ascontiguousarray(mul[x, y], dtype=np.int64).tobytes()
            out[key] = out.get(key, Fraction(0)) + w
    return out


def check_atoms(points, weights_num, weights_den, want: dict[bytes, Fraction]) -> str | None:
    got: dict[bytes, Fraction] = {}
    for x, w in zip(points, weights_num):
        key = np.ascontiguousarray(x, dtype=np.int64).tobytes()
        got[key] = got.get(key, Fraction(0)) + Fraction(int(w), int(weights_den))
    return None if got == want else "atoms or weights differ from the exact law"


def check_mc(value: float, exact: Fraction, n: int) -> str | None:
    """A Monte Carlo mass within 5 standard errors of the exact value (the
    error is recomputed from the exact value, not taken from the estimate)."""
    p = float(exact)
    sd = math.sqrt(max(p * (1 - p), 1e-12) / n)
    return None if abs(value - p) <= 5 * sd else f"MC mass {value} vs exact {p} (5 sd = {5 * sd:.3g})"
