"""The scan plans: the candidates of the third-pair and forward strategies
(quadpreim.search) block by block, and the numpy filters that drop those
that cannot meet the target.  This is the only module of the package that
imports numpy; the scans import it when they start, so no other command
pays for it.  A plan gives the scan driver (search._scan) its strategy and
parameter names, its rows (size), its live rows as a sorted int array and
the live rows a block holds (tile), and, for a candidate, its parameters
(pairs) and its settle.

Third pair.  The second-level value u of a candidate (search docstring) is
rational exactly when the integer N = 4 e^2 (x^2 + y^2) - (x^2 - y^2)^2 is
a perfect square, where p1 = n1/d1, p2 = n2/d2, x = n1 d2, y = n2 d1,
e = d1 d2.  With X = p1^2, Y = p2^2, A = X - Y and 2u = sqrt(N)/e^2,
exactly

    (A + 2)^2 + (2u)^2 = 4 + 8X,        (A - 2)^2 + (2u)^2 = 4 + 8Y,

so for both p = n/d the integer d^2 + 2 n^2 = (d^2/4)(4 + 8 p^2) is a sum
of two rational squares, hence (Fermat-Euler: every prime = 3 mod 4 divides
it to an even power) a sum of two integer squares.  The plan drops every
fraction failing that test before any pair is formed, and the pairs that
the kind filter below rejects, then re-checks the rest exactly: it settles
exactly the pairs whose N is a perfect square.

Forward.  A rational tree is a real one, and for c >= 0 every level of a
real tree of f_c is empty, {0} or {r, -r}: by induction, as -r - c < 0 for
r > 0, only r has real pre-images, and 0 has them only for c = 0, namely
{0}.  So when the target asks for more than two points at some level, no
c >= 0 can meet it, and the plan keeps only the rows with c < 0.

Such a target also needs the tree to branch off the orbit.  With
x_m = f_c^m(x0) and D = depth, level j of a's tree holds the spine
{x_(D-j), -x_(D-j)}, and level 1 is all spine.  A root off the spine at
level j maps to -x_(D-j+1) != x_(D-j+1), or to a root off the spine one
level up; so if k is the first level whose target is above 2, a hit needs
the branch value B_m = -x_m - c to be a rational square for some m in
[D-k+1, D-1] (none for k = 1: such a target has no hit).  With c = u/v,
x0 = n/d and (P_m, Q_m) = orbit(c, x0, m) (P <- P^2 v + u Q^2,
Q <- Q^2 v), Q_m v = (d v)^(2^m) is a square, so B_m is a rational square
exactly when the integer G_m = -(P_m v + u Q_m) is a perfect square, and
the plan settles only the candidates that the kind filter passes for some
m in the range.

The kind filter tests forms for squareness modulo twelve prime powers q^k.
N has degree 4, and G_m degree 2^m, in the numerator and denominator of each
fraction, so the fractions' points in P^1(Z/q^k) decide.  Classes that agree in
every form merge into row kinds, and on their own into column kinds (126 each
for N, of 766); a row of pairs is filtered by the AND over the moduli of its
kinds' bit rows over a shard's columns, ORed over the forms: 64 pairs a word.
A row that no form passes under every modulus meets no column (_row_mask);
N is symmetric, so the third-pair plan drops such fractions before packing.
A third-pair block holds as many live rows as keep its bit arrays near 1 MB,
a forward block about _FORWARD_BLOCK candidates.
"""

from __future__ import annotations

import functools
from math import isqrt
from typing import Optional

import numpy as np

from .dynamics import orbit
from .exactmath import Pair
from .search import Hit, SearchConfig, _settle


def _height_order(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators (int64) of all positive reduced fractions
    with height <= bound, ordered by (height, value): at height h, each n/h
    with n < h coprime to h, then h/d for the same d, decreasing."""
    # every (k, h) with 1 <= k < h <= bound, h-major; h's run starts at
    # (h - 1)(h - 2)/2
    h = np.repeat(np.arange(bound + 1, dtype=np.int64),
                  np.maximum(np.arange(-1, bound), 0))
    k = np.arange(len(h)) - (h - 1) * (h - 2) // 2 + 1
    coprime = np.gcd(k, h) == 1
    k, h = k[coprime], h[coprime]
    # height h holds 2 phi(h) fractions after the 1 + 2 sum phi of those below
    phi = np.bincount(h, minlength=bound + 1)
    below = np.cumsum(phi) - phi
    rank = np.arange(len(h)) - below[h]
    first = 1 + 2 * below[h] + rank
    last = first + 2 * (phi[h] - rank) - 1
    nums = np.ones(1 + 2 * len(h), dtype=np.int64)
    dens = nums.copy()
    nums[first], dens[first], nums[last], dens[last] = k, h, h, k
    return nums, dens


def _live_rows(live: np.ndarray, first: int, end: int) -> np.ndarray:
    """The live rows in [first, end)."""
    return live[np.searchsorted(live, first):np.searchsorted(live, end)]


# ---------------------------------------------------------------------------
# the kind filter
# ---------------------------------------------------------------------------

# the filter's prime powers q^k as (q^k, q), most selective first; n/d finds
# its kinds under m = q^k at (n mod m) m + (d mod m) past the m^2 keys before
_MODULI = ((256, 2), (81, 3), (25, 5), (49, 7), (11, 11), (13, 13), (17, 17),
           (19, 19), (23, 23), (29, 29), (31, 31), (37, 37))
_MODULUS = np.array([m for m, _ in _MODULI], dtype=np.int32)[:, None]
_LOOKUP = np.cumsum([0] + [m * m for m, _ in _MODULI[:-1]], dtype=np.int32)[:, None]


def _pair_form(squares, n1, d1, n2, d2) -> np.ndarray:
    """Whether N is a square mod m = len(squares) at p1 = n1/d1 (table rows)
    and p2 = n2/d2 (columns), all below m; with x^2, y^2 and e^2 reduced,
    int32 holds N."""
    m = len(squares)
    x2, y2, e2 = ((a % m) ** 2 % m for a in (n1 * d2, n2 * d1, d1 * d2))
    return squares[(4 * e2 * (x2 + y2) - (x2 - y2) ** 2)[None] % m]


def _branch_forms(squares, u, v, n, d, first: int, end: int) -> np.ndarray:
    """Whether G_k is a square mod m = len(squares), k in [first, end), at
    c = u/v (table rows) and x0 = n/d (columns), all below m.  x0 enters the
    orbit only through (n^2, d^2): the orbit runs on the distinct pairs."""
    m, ids, forms = len(squares), {}, []
    back = [ids.setdefault(key, len(ids))
            for key in (n * n % m * m + d * d % m).tolist()]
    p, q = np.divmod(np.array(list(ids), dtype=np.int32), m)
    for k in range(1, end):      # every product stays below 2 m^3: int32
        p, q = (p * v + u * q) % m, q * v % m
        if k >= first:
            forms.append(squares[-(p * v + u * q) % m])
        p, q = p * p % m, q * q % m
    return np.stack(forms)[:, :, back]


def _filter_tables(form, m: int, q: int, *args) -> tuple[np.ndarray, np.ndarray]:
    """For m = q^k: classes[n mod m, d mod m], the point of P^1(Z/m) of a
    reduced n/d (n/d mod m if q does not divide d, else m + (d/n mod m)/q),
    and table[f, k1, k2] = form(squares, n1, d1, n2, d2, *args)[f] for a row
    n1/d1 of class k1 and a column n2/d2 of class k2."""
    r = np.arange(m, dtype=np.uint16)          # a product of two fits uint16
    squares = np.zeros(m, dtype=bool)
    squares[r * r % m] = True
    inv = np.array([pow(u, -1, m) if u % q else 0 for u in range(m)], dtype=np.uint16)
    classes = np.where(r % q != 0, r[:, None] * inv % m,
                       m + r * inv[:, None] % m // q).astype(np.int16)
    k = np.arange(m + m // q, dtype=np.int32)
    n, d = np.where(k < m, k, 1), np.where(k < m, 1, (k - m) * q)
    return classes, form(squares, n[:, None], d[:, None], n, d, *args)


def _kind_tables(form, m: int, q: int, *args) -> tuple[np.ndarray, ...]:
    """For m = q^k: row_kinds[n mod m, d mod m] and col_kinds[n mod m,
    d mod m], the row and column kind of a reduced n/d, and table[f, r, c]
    for a row of kind r and a column of kind c: the classes of _filter_tables
    merged on each axis, in order of first appearance."""
    classes, table = _filter_tables(form, m, q, *args)
    kinds, firsts = [], []
    for axes in ((1, 0, 2), (2, 0, 1)):
        ids: dict[bytes, int] = {}
        lines = np.packbits(table.transpose(axes).reshape(len(table[0]), -1), axis=1)
        kind = [ids.setdefault(line.tobytes(), len(ids)) for line in lines]
        kinds.append(np.array(kind, dtype=np.uint16)[classes])
        firsts.append([kind.index(k) for k in range(len(ids))])
    return kinds[0], kinds[1], table[:, firsts[0]][:, :, firsts[1]]


@functools.cache
def _stacked_tables(form, *args) -> tuple[np.ndarray, ...]:
    """The kind tables of form(*args) over the twelve moduli, stacked: each
    form's row kinds of each modulus in turn are the rows of `stacked`, over
    the column kinds of modulus[row].  At a fraction's keys, row_kinds[f]
    is its stacked row of form f and col_kinds its column kind."""
    tables = [_kind_tables(form, m, q, *args) for m, q in _MODULI]
    forms, rows = len(tables[0][2]), [table.shape[1] for *_, table in tables]
    bases, width = np.cumsum([0] + rows), max(t.shape[2] for *_, t in tables)
    stacked = np.zeros((forms, bases[-1], width), dtype=bool)
    for (*_, table), base in zip(tables, bases):
        stacked[:, base:base + table.shape[1], :table.shape[2]] = table
    # the stacked rows as the narrowest unsigned ints that hold them
    shift = np.arange(0, forms * bases[-1], bases[-1])[:, None].astype(
        np.min_scalar_type(forms * bases[-1]))
    row_kinds = np.concatenate([k.ravel() + k.dtype.type(b) for (k, *_), b
                                in zip(tables, bases)]).astype(shift.dtype) + shift
    col_kinds = np.concatenate([kinds.ravel() for _, kinds, _ in tables])
    modulus = np.tile(np.repeat(np.arange(len(rows)), rows), forms)
    return row_kinds, col_kinds, modulus, stacked.reshape(-1, width)


def _kind_keys(nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Each fraction n/d's keys into the kind tables, one row a modulus."""
    return (_LOOKUP + nums.astype(np.int32) % _MODULUS * _MODULUS
            + dens.astype(np.int32) % _MODULUS)


def _row_mask(tables, keys: np.ndarray) -> np.ndarray:
    """Whether each row (_kind_keys) can meet a column: for some form, its
    stacked row is nonzero under every modulus, as _kind_pairs reads them."""
    row_kinds, _, _, stacked = tables
    return stacked.any(axis=1)[row_kinds[:, keys]].all(axis=1).any(axis=0)


def _kind_filter(tables, row_keys: np.ndarray, col_keys: np.ndarray,
                 columns: np.ndarray, total: int) -> tuple[np.ndarray, list, list]:
    """The packed filter of _kind_pairs over the kind tables (_stacked_tables)
    for the rows and the columns `columns`, by their keys (_kind_keys): offsets[r,
    f, i], the stacked row of form f under modulus i of row r; and per class w
    of the shard total, the columns j = w mod total and bits[s], stacked row
    s over them, 64 columns a word, made by one take and one packbits."""
    row_kinds, col_kinds, modulus, stacked = tables
    offsets = row_kinds[:, row_keys].transpose(2, 0, 1)
    start = np.arange(0, stacked.size, stacked.shape[1])[:, None]
    # runs of columns that keep the take's index near 2^18 entries (2 MB)
    run = max(1, (1 << 18) // len(stacked) // 64) * 64
    classes, shard, bits = columns % total, [], []
    for w in range(total):
        at = classes == w
        shard.append(columns[at])
        kinds = col_kinds[col_keys[:, at]]
        packed = [np.packbits(stacked.take(kinds[modulus, lo:lo + run] + start),
                              axis=1, bitorder="little")
                  for lo in range(0, kinds.shape[1], run)]
        pad = np.zeros((len(stacked), -kinds.shape[1] // 8 % 8), dtype=np.uint8)
        bits.append(np.concatenate(packed + [pad], axis=1).view(np.uint64))
    return offsets, shard, bits


def _kind_pairs(plan, rows: np.ndarray, want: np.ndarray, diagonal: bool) -> tuple:
    """The pairs (i in rows, j) that the packed filter keeps (its bit rows
    ANDed over the moduli, ORed over the forms), j over the columns of the
    class want[r] of each row; with `diagonal` (rows and columns index one
    list), only the words up to the group's last row, and only j <= i."""
    offsets = plan.offsets[np.searchsorted(plan.live, rows)]
    found_i, found_j = [rows[:0]], [rows[:0]]      # a class may meet no column
    for w in np.flatnonzero(np.bincount(want)).tolist():
        at = want == w
        group, idx, bits = rows[at], plan.columns[w], plan.bits[w]
        end = np.searchsorted(idx, group[-1], "right") if diagonal else len(idx)
        bits = bits[:, :(int(end) + 63) // 64]
        # each form's bit rows ANDed one modulus at a time: (rows, words)
        alive = np.zeros((len(group), bits.shape[1]), dtype=np.uint64)
        for form in offsets[at].transpose(1, 2, 0):
            term = bits[form[0]]
            for stacked in form[1:]:
                term &= bits[stacked]
            alive |= term
        r, word = np.nonzero(alive)
        unpacked = np.unpackbits(alive[r, word].view(np.uint8).reshape(-1, 8),
                                 axis=1, bitorder="little")
        k, b = np.nonzero(unpacked)
        i, j = group[r[k]], idx[64 * word[k] + b]
        found_i.append(i[j <= i] if diagonal else i)
        found_j.append(j[j <= i] if diagonal else j)
    return np.concatenate(found_i), np.concatenate(found_j)


# ---------------------------------------------------------------------------
# third-pair plan
# ---------------------------------------------------------------------------

def _thirdpair_values(n1: int, d1: int, n2: int, d2: int) -> tuple[Pair, Pair]:
    """(c, t) of p1 = n1/d1, p2 = n2/d2 as unreduced (n, d), t the root of
    a = t^2 + c: with x, y, e as in N, c = -(x^2 + y^2) / (2 e^2) and
    t = s^2 + c = T / (4 e^4)."""
    x2, y2, e2 = (n1 * d2) ** 2, (n2 * d1) ** 2, (d1 * d2) ** 2
    return ((-(x2 + y2), 2 * e2),
            ((x2 - y2) ** 2 - 2 * e2 * (x2 + y2), 4 * e2 * e2))


def _two_square_mask(nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """For each fraction n/d, whether d^2 + 2 n^2 is a sum of two integer
    squares, read from a table of every a^2 + b^2 up to the largest value."""
    values = dens * dens + 2 * nums * nums
    root = isqrt(int(values.max()))
    squares = np.arange(root + 1, dtype=np.int64) ** 2
    sums = np.zeros(2 * (root + 1) ** 2, dtype=bool)   # > values.max()
    for sq in squares:
        sums[sq + squares] = True
    return sums[values]


_BLOCK_WORDS = 1 << 17      # words (1 MB) in a block's (rows, words) arrays


def _word_tile(bits: list) -> int:
    """Rows in a block: _BLOCK_WORDS over the widest class's words."""
    return max(1, _BLOCK_WORDS // max(1, *(b.shape[1] for b in bits)))


class _ThirdPairPlan:
    """What every block of a third-pair scan reads: the height-ordered
    fractions n_i/d_i as int64 arrays, the live rows (the fractions that pass
    the two-square test and _row_mask) and the packed kind filter of N over
    them (_kind_filter)."""

    strategy, params = "thirdpair", ("p1", "p2")

    def __init__(self, config: SearchConfig):
        self.config = config
        self.nums, self.dens = nums, dens = _height_order(config.height_bound)
        self.size = len(nums)
        live = np.flatnonzero(_two_square_mask(nums, dens))
        tables, keys = _stacked_tables(_pair_form), _kind_keys(nums[live], dens[live])
        alive = _row_mask(tables, keys)     # N is symmetric: dead columns too
        self.live, keys = live[alive], keys[:, alive]
        self.offsets, self.columns, self.bits = _kind_filter(
            tables, keys, keys, self.live, config.shard[1])
        self.tile = _word_tile(self.bits)

    def candidates(self, first: int, end: int) -> list[tuple[int, int]]:
        """The shard's pairs (i, j <= i) over the live rows in [first, end)
        whose N is a square, in candidate order."""
        return _square_pairs(self, _live_rows(self.live, first, end))

    def pairs(self, i: int, j: int) -> tuple[Pair, Pair]:
        """(p1, p2) of candidate (i, j) as reduced (n, d)."""
        nums, dens = self.nums, self.dens
        return (int(nums[i]), int(dens[i])), (int(nums[j]), int(dens[j]))

    def settle(self, i: int, j: int) -> Optional[Hit]:
        """_settle of a = t^2 + c (_thirdpair_values)."""
        (n1, d1), (n2, d2) = self.pairs(i, j)
        return _settle(self.config, *_thirdpair_values(n1, d1, n2, d2))


def _square_pairs(plan: _ThirdPairPlan, tile: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (i in tile, j <= i) of the shard whose N is a perfect
    square, in candidate order: those that the kind filter keeps, checked
    exactly with isqrt.  Rows and columns are live fractions under their
    original indices, so candidate numbering, shards, provenance and
    next_block keep their meaning."""
    shard_index, shard_total = plan.config.shard
    # candidate i(i+1)/2 + j is in the shard iff j = want mod shard_total
    want = (shard_index - tile * (tile + 1) // 2) % shard_total
    gi, gj = _kind_pairs(plan, tile, want, diagonal=True)
    survivors: list[tuple[int, int]] = []
    for i, j, n1, d1, n2, d2 in zip(
            gi.tolist(), gj.tolist(), plan.nums[gi].tolist(),
            plan.dens[gi].tolist(), plan.nums[gj].tolist(), plan.dens[gj].tolist()):
        x2, y2, e2 = (n1 * d2) ** 2, (n2 * d1) ** 2, (d1 * d2) ** 2
        big = 4 * e2 * (x2 + y2) - (x2 - y2) ** 2
        if big >= 0 and isqrt(big) ** 2 == big:
            survivors.append((i, j))
    survivors.sort()
    return survivors


# ---------------------------------------------------------------------------
# forward plan
# ---------------------------------------------------------------------------

_FORWARD_BLOCK = 1 << 15     # candidates in a forward block, at least one row


class _ForwardPlan:
    """The forward scan's candidates (ci, xi) on (n, d) pairs: c over 0 and
    +/- each fraction, x0 over 0 and each fraction, as int lists for the
    settle and int64 arrays for the filter.  Every c is a live row, but for
    a target above 2 at some level only the rows with c < 0 are (a level of
    a real tree of f_c with c >= 0 is empty, {0} or {r, -r}), and only the
    candidates that may branch off the orbit are settled: those that the
    kind filter of the G_m passes (_kind_filter)."""

    strategy, params = "forward", ("c", "x0")

    def __init__(self, config: SearchConfig):
        self.config = config
        nums, dens = _height_order(config.height_bound)
        self.x_num, self.x_den = np.append(0, nums), np.append(1, dens)
        self.c_num = np.append(0, np.stack((nums, -nums), axis=1).ravel())
        self.c_den = np.append(1, np.repeat(dens, 2))
        self.c_values = list(zip(self.c_num.tolist(), self.c_den.tolist()))
        self.x_values = list(zip(self.x_num.tolist(), self.x_den.tolist()))
        self.size, width = len(self.c_values), len(self.x_values)
        self.tile = max(1, _FORWARD_BLOCK // width)
        # the first level whose target is above 2, if any
        self.wide = next((k for k, want in enumerate(config.target, 1)
                          if want > 2), None)
        # the rows with c < 0 are 2, 4, ..., size - 1; a wide level 1 leaves
        # no branch range G_m, m in [depth - wide + 1, depth), so none is live
        self.live = live = (np.arange(self.size) if not self.wide else
                            np.arange(2, self.size if self.wide > 1 else 2, 2))
        if self.wide in (None, 1):
            return
        self.offsets, self.columns, self.bits = _kind_filter(
            _stacked_tables(_branch_forms, config.depth - self.wide + 1,
                            config.depth),
            _kind_keys(self.c_num[live], self.c_den[live]),
            _kind_keys(self.x_num, self.x_den), np.arange(width), config.shard[1])

    def candidates(self, first: int, end: int) -> list[tuple[int, int]]:
        """The shard's pairs (ci, xi) over the live rows in [first, end), in
        candidate order; for a target above 2, only those that may branch
        off the orbit before its first wide level."""
        index, total = self.config.shard
        width = len(self.x_values)
        rows = _live_rows(self.live, first, end)
        if self.wide:
            # candidate ci width + xi is in the shard iff xi = want mod total
            ci, xi = _kind_pairs(self, rows, (index - rows * width) % total,
                                 diagonal=False)
            found = np.sort(ci * width + xi)
        else:
            found = (rows[:, None] * width + np.arange(width)).ravel()
            found = found[found % total == index]
        return list(zip(*(a.tolist() for a in np.divmod(found, width))))

    def pairs(self, ci: int, xi: int) -> tuple[Pair, Pair]:
        """(c, x0) of candidate (ci, xi) as reduced (n, d)."""
        return self.c_values[ci], self.x_values[xi]

    def settle(self, ci: int, xi: int) -> Optional[Hit]:
        """_settle of a = f_c^depth(x0) = y^2 + c, y = f_c^(depth-1)(x0)."""
        c, x0 = self.pairs(ci, xi)
        return _settle(self.config, c, orbit(c, x0, self.config.depth - 1))
