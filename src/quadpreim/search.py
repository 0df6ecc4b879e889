"""Height-bounded searches for (c, a) pairs realizing prescribed pre-image
arrangements.

The third-pair strategy walks ordered pairs (p1, p2) of positive reduced
rationals: demanding p1^2 + c = s and p2^2 + c = -s for some second-level
value s pins c = -(p1^2 + p2^2)/2 and s = (p1^2 - p2^2)/2, hence
t = s^2 + c and a = t^2 + c, and the candidate is settled by re-verifying
the whole tree.  Enumeration is by increasing height (Farey-style), so runs
are deterministic, shardable by candidate index, and checkpointable.

When the target demands four rational second pre-images, a candidate can
only succeed if u^2 = -s^2 - 2c has a rational root, i.e. if the integer
N = 4 e^2 (x^2 + y^2) - (x^2 - y^2)^2 is a perfect square, where
p1 = n1/d1, p2 = n2/d2, x = n1 d2, y = n2 d1, e = d1 d2.  With X = p1^2,
Y = p2^2, A = X - Y and 2u = sqrt(N)/e^2, exactly

    (A + 2)^2 + (2u)^2 = 4 + 8X,        (A - 2)^2 + (2u)^2 = 4 + 8Y,

so for both p = n/d the integer d^2 + 2 n^2 = (d^2/4)(4 + 8 p^2) is a sum
of two rational squares, hence (Fermat-Euler: every prime = 3 mod 4 divides
it to an even power) a sum of two integer squares.  The fast path drops
every fraction failing that test before any pair is formed, rejects
non-square N by exact residue tables modulo two highly composite numbers,
vectorized over tiles, and re-checks the survivors with exact integer
arithmetic; it emits exactly the pairs whose N is a perfect square.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynamics import PreimageTree, iterate, preimage_levels, preimage_tree
from .exactmath import format_rat, height, parse_rat


class CheckpointError(RuntimeError):
    """Writing a checkpoint failed; the previous checkpoint file (if any)
    still holds a consistent resume state."""


@dataclass(frozen=True)
class SearchConfig:
    height_bound: int
    depth: int
    target: tuple[int, ...]
    shard: tuple[int, int] = (0, 1)
    checkpoint_path: Optional[str] = None
    checkpoint_blocks: int = 2000

    def __post_init__(self):
        if self.height_bound < 1:
            raise ValueError("height_bound must be at least 1")
        index, total = self.shard
        if total < 1 or not 0 <= index < total:
            raise ValueError("shard must satisfy 0 <= index < total")
        if self.depth < len(self.target):
            raise ValueError("depth must cover the target signature")
        if any(t < 0 for t in self.target):
            raise ValueError("target counts are nonnegative")

    def canonical(self, strategy: str) -> dict:
        return {
            "strategy": strategy,
            "height_bound": self.height_bound,
            "depth": self.depth,
            "target": list(self.target),
            "shard": list(self.shard),
        }

    def digest(self, strategy: str) -> str:
        payload = json.dumps(self.canonical(strategy), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class Provenance:
    strategy: str
    params: dict
    heights: tuple[int, ...]

    def as_json(self) -> dict:
        return {"strategy": self.strategy, "params": dict(self.params),
                "heights": list(self.heights)}

    @classmethod
    def from_json(cls, data: dict) -> "Provenance":
        return cls(strategy=data["strategy"], params=dict(data["params"]),
                   heights=tuple(data["heights"]))


@dataclass
class SearchRecord:
    """A verified hit: the pair, its signature, the witness tree, and the
    candidate that first reached it (later candidates reaching the same
    (c, a) are dropped as duplicates, so a yielded record never changes)."""

    c: Fraction
    a: Fraction
    signature: tuple[int, ...]
    tree: PreimageTree
    provenance: list[Provenance] = field(default_factory=list)

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.c, self.a)

    def as_json(self) -> dict:
        return {
            "c": format_rat(self.c),
            "a": format_rat(self.a),
            "signature": list(self.signature),
            "tree": self.tree.as_json(),
            "provenance": [p.as_json() for p in self.provenance],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SearchRecord":
        return cls(
            c=parse_rat(data["c"]),
            a=parse_rat(data["a"]),
            signature=tuple(data["signature"]),
            tree=PreimageTree.from_json(data["tree"]),
            provenance=[Provenance.from_json(p) for p in data["provenance"]],
        )


def verify_pair(c, a, target: Sequence[int], depth: int) -> Optional[SearchRecord]:
    """Re-derive the tree of (c, a) from scratch; a record results exactly
    when the computed signature dominates the target component-wise.

    The levels the target constrains are counted on integer pairs and the
    walk stops at the first level short of its target; only a hit has its
    tree built."""
    target = tuple(target)
    if depth < len(target):
        raise ValueError("depth must cover the target signature")
    c = Fraction(c)
    a = Fraction(a)
    for want, level in zip(target, preimage_levels(c, a, len(target))):
        if len(level) < want:
            return None
    tree = preimage_tree(c, a, depth)
    return SearchRecord(c=c, a=a, signature=tree.signature(), tree=tree)


def fractions_by_height(bound: int) -> list[Fraction]:
    """All positive reduced fractions with height <= bound, ordered by
    (height, value); signs are handled by the callers since pre-images come
    in +/- pairs."""
    out = [Fraction(1)]
    for h in range(2, bound + 1):
        for n in range(1, h):
            if gcd(n, h) == 1:
                out.append(Fraction(n, h))
        for d in range(h - 1, 0, -1):
            if gcd(h, d) == 1:
                out.append(Fraction(h, d))
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _write_checkpoint(path: str, payload: dict):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError("checkpoint write to %r failed: %s" % (path, exc))


def _load_checkpoint(path: str, expected_digest: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("config_sha") != expected_digest:
        raise ValueError("checkpoint %r belongs to a different configuration"
                         % (path,))
    return payload


class _ScanState:
    """Dedup set, emit bookkeeping, and checkpoint plumbing shared by the
    scan strategies."""

    def __init__(self, strategy: str, config: SearchConfig, resume: bool):
        self.strategy = strategy
        self.config = config
        self.digest = config.digest(strategy)
        self.next_block = 0
        self.seen: set[tuple] = set()
        if resume:
            if not config.checkpoint_path:
                raise ValueError("resume requested without a checkpoint path")
            payload = _load_checkpoint(config.checkpoint_path, self.digest)
            self.next_block = payload["next_block"]
            self.seen = {(parse_rat(ck), parse_rat(ak))
                         for ck, ak in payload["seen"]}

    def register(self, c: Fraction, a: Fraction) -> Optional[SearchRecord]:
        """The record of a new hit, without provenance; None for a miss or
        a (c, a) emitted earlier (or before resuming)."""
        key = (c, a)
        if key in self.seen:
            return None
        rec = verify_pair(c, a, self.config.target, self.config.depth)
        if rec is not None:
            self.seen.add(key)
        return rec

    def checkpoint(self, next_block: int):
        if not self.config.checkpoint_path:
            return
        payload = {
            "config_sha": self.digest,
            "config": self.config.canonical(self.strategy),
            "next_block": next_block,
            "emitted": len(self.seen),
            "seen": sorted([format_rat(c), format_rat(a)]
                           for c, a in self.seen),
        }
        _write_checkpoint(self.config.checkpoint_path, payload)


# ---------------------------------------------------------------------------
# third-pair strategy
# ---------------------------------------------------------------------------

_MOD1 = 64 * 63 * 65 * 11          # classic perfect-square residue filter
_MOD2 = 17 * 19 * 23 * 29 * 31
_square_tables: dict[int, np.ndarray] = {}


def _square_table(m: int) -> np.ndarray:
    """table[x] is True exactly when x is a square modulo m."""
    table = _square_tables.get(m)
    if table is None:
        table = np.zeros(m, dtype=bool)
        # r and m - r square alike; chunks keep the int64 temporaries small
        end = m // 2 + 1
        for r0 in range(0, end, 1 << 18):
            r = np.arange(r0, min(r0 + (1 << 18), end), dtype=np.int64)
            table[r * r % m] = True
        _square_tables[m] = table
    return table


def _thirdpair_values(p1: Fraction, p2: Fraction):
    sq1 = p1 * p1
    sq2 = p2 * p2
    c = -(sq1 + sq2) / 2
    s = (sq1 - sq2) / 2
    t = s * s + c
    a = t * t + c
    return c, a


def _emit_thirdpair(state: _ScanState, frs, i: int, j: int,
                    c: Fraction, a: Fraction) -> Optional[SearchRecord]:
    rec = state.register(c, a)
    if rec is not None:
        rec.provenance.append(Provenance(
            strategy="thirdpair",
            params={"p1": format_rat(frs[i]), "p2": format_rat(frs[j])},
            heights=(height(frs[i]), height(frs[j])),
        ))
    return rec


_INT64_HEIGHT_BOUND = 50000


def scan_thirdpair(config: SearchConfig, resume: bool = False) -> Iterator[SearchRecord]:
    """Stream every (c, a) within reach of the third-pair strategy whose tree
    dominates the target, deduplicated by (c, a), in candidate order.

    Candidates are ordered pairs (i, j <= i) over the height-ordered fraction
    list; candidate k = i(i+1)/2 + j belongs to shard k mod total.  The union
    over all shards equals the unsharded stream as a set.
    """
    if len(config.target) < 3:
        raise ValueError("the third-pair strategy needs a depth-3 target")
    # the integer square filter is sound only when the target forces a
    # rational second-level sibling (four second pre-images)
    filtered = config.target[1] >= 4
    if filtered and config.height_bound > _INT64_HEIGHT_BOUND:
        raise ValueError("filtered third-pair scans are int64-safe only up "
                         "to height bound %d" % _INT64_HEIGHT_BOUND)
    state = _ScanState("thirdpair", config, resume)
    frs = fractions_by_height(config.height_bound)
    if filtered:
        yield from _scan_thirdpair_fast(state, frs, config)
        return

    shard_index, shard_total = config.shard
    total_blocks = len(frs)
    for i in range(state.next_block, total_blocks):
        base = i * (i + 1) // 2
        j_start = (shard_index - base) % shard_total
        p1 = frs[i]
        for j in range(j_start, i + 1, shard_total):
            c, a = _thirdpair_values(p1, frs[j])
            rec = _emit_thirdpair(state, frs, i, j, c, a)
            if rec is not None:
                yield rec
        if (i + 1) % config.checkpoint_blocks == 0:
            state.checkpoint(i + 1)
    state.checkpoint(total_blocks)


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


_ROW_TILE = 64
_COL_TILE = 1 << 15


def _scan_thirdpair_fast(state: _ScanState, frs,
                         config: SearchConfig) -> Iterator[SearchRecord]:
    """Tiled integer filter over the candidate triangle.

    Only fractions p = n/d with d^2 + 2 n^2 a sum of two integer squares
    can appear in a pair with N a perfect square: (A + 2)^2 + (2u)^2 =
    4 + 8 p1^2 and (A - 2)^2 + (2u)^2 = 4 + 8 p2^2 (module docstring), and by
    Fermat-Euler an integer that is a sum of two rational squares is a sum
    of two integer squares.  Rows and columns run over those fractions only,
    under their original indices, so candidate numbering, shards, provenance
    and the checkpoint's next_block keep their meaning.  A row tile is split
    by the residue class its rows need from the columns for this shard, and
    each class is matched only against its own columns.

    With p1 = n1/d1, p2 = n2/d2, the filter integer expands to
    N = D4_2 (4 ND2_1 - N4_1) - N4_2 D4_1 + ND2_2 (4 D4_1 + 2 ND2_1)
    where N4 = n^4, D4 = d^4, ND2 = n^2 d^2.  Reducing those three arrays
    modulo the composite filter moduli once lets each tile compute N's
    residue with three multiplies and a single division per pair (int64-safe
    for height bounds up to 50000).  Residues that are squares modulo both
    moduli are re-checked with exact integer arithmetic.
    """
    shard_index, shard_total = config.shard
    nums = np.array([f.numerator for f in frs], dtype=np.int64)
    dens = np.array([f.denominator for f in frs], dtype=np.int64)
    table1 = _square_table(_MOD1)
    table2 = _square_table(_MOD2)
    live = np.flatnonzero(_two_square_mask(nums, dens))

    # per modulus, the column terms (D4, N4, ND2) and the row factors that
    # multiply them: N = D4_j P_i + N4_j Q_i + ND2_j S_i  (mod m)
    terms = {}
    for m in (_MOD1, _MOD2):
        n2m = nums * nums % m
        d2m = dens * dens % m
        n4, d4, nd2 = n2m * n2m % m, d2m * d2m % m, n2m * d2m % m
        terms[m] = ((d4, n4, nd2),
                    ((4 * nd2 - n4) % m, -d4 % m, (4 * d4 + 2 * nd2) % m))
    (d4b, n4b, nd2b), (pb, qb, sb) = terms[_MOD2]
    # the live columns j = w mod shard_total, with their MOD1 column terms
    classes = []
    for w in range(shard_total):
        idx = live[live % shard_total == w]
        classes.append((idx, [col[idx] for col in terms[_MOD1][0]]))

    start = int(np.searchsorted(live, state.next_block))
    last_checkpoint = state.next_block
    for k0 in range(start, len(live), _ROW_TILE):
        tile = live[k0:k0 + _ROW_TILE]
        # candidate i(i+1)/2 + j is in the shard iff j = want mod shard_total
        want = (shard_index - tile * (tile + 1) // 2) % shard_total
        survivors: list[tuple[int, int]] = []
        for w in np.unique(want).tolist():
            rows = tile[want == w]
            idx, (d4, n4, nd2) = classes[w]
            p, q, s = (row[rows][:, None] for row in terms[_MOD1][1])
            width = int(np.searchsorted(idx, rows[-1], side="right"))
            for j0 in range(0, width, _COL_TILE):
                j1 = min(j0 + _COL_TILE, width)
                cols = idx[j0:j1]
                nm = (d4[j0:j1] * p + n4[j0:j1] * q + nd2[j0:j1] * s) % _MOD1
                alive = table1[nm]
                alive &= cols[None, :] <= rows[:, None]
                rr, cc = np.nonzero(alive)
                gi, gj = rows[rr], cols[cc]
                keep = table2[(d4b[gj] * pb[gi] + n4b[gj] * qb[gi]
                               + nd2b[gj] * sb[gi]) % _MOD2]
                for i_idx, j_idx in zip(gi[keep].tolist(), gj[keep].tolist()):
                    n1, d1 = int(nums[i_idx]), int(dens[i_idx])
                    n2, d2 = int(nums[j_idx]), int(dens[j_idx])
                    x2 = n1 * n1 * d2 * d2
                    y2 = n2 * n2 * d1 * d1
                    e2 = d1 * d1 * d2 * d2
                    big = 4 * e2 * (x2 + y2) - (x2 - y2) ** 2
                    if big < 0:
                        continue
                    root = isqrt(big)
                    if root * root == big:
                        survivors.append((i_idx, j_idx))
        survivors.sort()
        for i, j in survivors:
            c, a = _thirdpair_values(frs[i], frs[j])
            rec = _emit_thirdpair(state, frs, i, j, c, a)
            if rec is not None:
                yield rec
        next_block = int(tile[-1]) + 1
        if next_block - last_checkpoint >= config.checkpoint_blocks:
            state.checkpoint(next_block)
            last_checkpoint = next_block
    state.checkpoint(len(frs))


# ---------------------------------------------------------------------------
# forward-orbit strategy
# ---------------------------------------------------------------------------

def scan_forward(config: SearchConfig, resume: bool = False) -> Iterator[SearchRecord]:
    """Seed a = f_c^depth(x0) over all c (any sign) and x0 >= 0 of height
    within the bound, and keep the pairs whose tree dominates the target.
    Same ordering, sharding, dedup, and checkpoint contract as the
    third-pair scan; blocks are c candidates."""
    state = _ScanState("forward", config, resume)
    frs = fractions_by_height(config.height_bound)
    c_values = [Fraction(0)]
    for f in frs:
        c_values.append(f)
        c_values.append(-f)
    x_values = [Fraction(0)] + frs
    shard_index, shard_total = config.shard

    for ci in range(state.next_block, len(c_values)):
        c = c_values[ci]
        base = ci * len(x_values)
        j_start = (shard_index - base) % shard_total
        for xi in range(j_start, len(x_values), shard_total):
            x0 = x_values[xi]
            rec = state.register(c, iterate(c, x0, config.depth))
            if rec is not None:
                rec.provenance.append(Provenance(
                    strategy="forward",
                    params={"c": format_rat(c), "x0": format_rat(x0)},
                    heights=(height(c), height(x0)),
                ))
                yield rec
        if (ci + 1) % config.checkpoint_blocks == 0:
            state.checkpoint(ci + 1)
    state.checkpoint(len(c_values))
