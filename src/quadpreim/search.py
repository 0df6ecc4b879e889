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

Both strategies cut their shard into ordered blocks of rows; one driver
(_scan) reads the blocks' hits in order, in this process or from `jobs`
workers, and alone dedups, emits and checkpoints.  Resume replays the records
a checkpoint holds, so jobs and interruptions never change the output.
"""

from __future__ import annotations

import hashlib
import itertools
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
    candidate that first reached it in candidate order (later candidates
    reaching the same (c, a) are dropped as duplicates, so a yielded record
    never changes, whatever the jobs value)."""

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
            fh.write(json.dumps(payload))       # dumps has the C encoder
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError("checkpoint write to %r failed: %s" % (path, exc))


def _load_checkpoint(path: str,
                     expected_digest: str) -> tuple[int, list[SearchRecord]]:
    """The next block and the emitted records of a checkpoint; ValueError
    for a file that is not a readable checkpoint of this configuration."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        digest, next_block = payload["config_sha"], payload["next_block"]
        records = [SearchRecord.from_json(data) for data in payload["records"]]
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        raise ValueError("cannot resume from checkpoint %r: %r" % (path, exc))
    if digest != expected_digest:
        raise ValueError("checkpoint %r belongs to a different configuration"
                         % (path,))
    if type(next_block) is not int or next_block < 0:
        raise ValueError("checkpoint %r has next_block %r" % (path, next_block))
    return next_block, records


# ---------------------------------------------------------------------------
# the scan driver
# ---------------------------------------------------------------------------

_CHECKPOINT_BLOCKS = 32      # blocks between two checkpoint writes


def _blocks(live: np.ndarray, tile: int, start: int) -> list[tuple[int, int]]:
    """Runs of `tile` live rows from row `start` on, as row ranges
    (first, end); end is the next_block of a checkpoint after the block."""
    rows = live[np.searchsorted(live, start):].tolist()
    ends = [rows[min(k + tile, len(rows)) - 1] + 1
            for k in range(0, len(rows), tile)]
    return list(zip([start] + ends[:-1], ends))


def _scan_block(plan, block: tuple[int, int]) -> list:
    """The hits (candidate, record) of one block, in candidate order."""
    hits = []
    for candidate in plan.candidates(*block):
        rec = plan.settle(*candidate)
        if rec is not None:
            hits.append((candidate, rec))
    return hits


_pool_plan = None           # the plan of a worker process


def _init_worker(plan):
    global _pool_plan
    _pool_plan = plan


def _pooled_block(block: tuple[int, int]) -> list:
    return _scan_block(_pool_plan, block)


def _block_hits(plan, blocks: list, jobs: int) -> Iterator[list]:
    """The hits of each block, in block order: in this process for one job,
    else from a pool whose initializer hands each worker the plan once."""
    if jobs == 1:
        yield from map(_scan_block, itertools.repeat(plan), blocks)
        return
    import multiprocessing      # lazily: a one-job scan starts no process
    with multiprocessing.Pool(jobs, _init_worker, (plan,)) as pool:
        yield from pool.imap(_pooled_block, blocks)


def _scan(plan_class, config: SearchConfig, resume: bool,
          jobs: int) -> Iterator[SearchRecord]:
    """Replay the checkpoint's records on resume, then read each block's
    hits in order: drop a (c, a) emitted before, attach the provenance, emit,
    and checkpoint every _CHECKPOINT_BLOCKS blocks and at the end."""
    digest = config.digest(plan_class.strategy)
    path = config.checkpoint_path
    start, replayed = 0, []
    if resume:
        if not path:
            raise ValueError("resume requested without a checkpoint path")
        start, replayed = _load_checkpoint(path, digest)
    yield from replayed
    seen = {rec.key() for rec in replayed}
    emitted = [rec.as_json() for rec in replayed]

    def checkpoint(next_block: int):
        if path:
            _write_checkpoint(path, {
                "config_sha": digest,
                "config": config.canonical(plan_class.strategy),
                "next_block": next_block,
                "records": list(emitted),
            })

    plan = plan_class(config)
    blocks = _blocks(plan.live, plan.tile, start)
    for done, (hits, (_, end)) in enumerate(
            zip(_block_hits(plan, blocks, jobs), blocks), start=1):
        for candidate, rec in hits:
            if rec.key() in seen:
                continue
            seen.add(rec.key())
            x, y = (axis[k] for axis, k in zip(plan.axes, candidate))
            rec.provenance.append(Provenance(
                strategy=plan_class.strategy, heights=(height(x), height(y)),
                params={plan.params[0]: format_rat(x),
                        plan.params[1]: format_rat(y)}))
            if path:
                emitted.append(rec.as_json())
            yield rec
        if done % _CHECKPOINT_BLOCKS == 0:
            checkpoint(end)
    checkpoint(plan.size)


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


_INT64_HEIGHT_BOUND = 50000


def scan_thirdpair(config: SearchConfig, resume: bool = False,
                   jobs: int = 1) -> Iterator[SearchRecord]:
    """Stream every (c, a) within reach of the third-pair strategy whose tree
    dominates the target, deduplicated by (c, a), in candidate order.

    Candidates are ordered pairs (i, j <= i) over the height-ordered fraction
    list; candidate k = i(i+1)/2 + j belongs to shard k mod total.  The union
    over all shards equals the unsharded stream as a set.
    """
    if len(config.target) < 3:
        raise ValueError("the third-pair strategy needs a depth-3 target")
    if config.target[1] >= 4 and config.height_bound > _INT64_HEIGHT_BOUND:
        raise ValueError("filtered third-pair scans are int64-safe only up "
                         "to height bound %d" % _INT64_HEIGHT_BOUND)
    yield from _scan(_ThirdPairPlan, config, resume, jobs)


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


class _ThirdPairPlan:
    """What every block of a third-pair scan reads: the height-ordered
    fractions, the live rows, and for a filtered scan the residue terms of
    the square filter (see _square_pairs).  A candidate (i, j) is the pair
    (frs[i], frs[j])."""

    strategy, params = "thirdpair", ("p1", "p2")

    def __init__(self, config: SearchConfig):
        self.config = config
        self.frs = fractions_by_height(config.height_bound)
        self.axes = (self.frs, self.frs)
        self.size = len(self.frs)
        self.tile = _ROW_TILE
        # the integer square filter is sound only when the target forces a
        # rational second-level sibling (four second pre-images)
        self.filtered = config.target[1] >= 4
        if not self.filtered:
            self.live = np.arange(self.size)
            return
        self.nums = nums = np.array([f.numerator for f in self.frs], dtype=np.int64)
        self.dens = dens = np.array([f.denominator for f in self.frs], dtype=np.int64)
        self.tables = (_square_table(_MOD1), _square_table(_MOD2))
        self.live = np.flatnonzero(_two_square_mask(nums, dens))
        # per modulus, the column terms (D4, N4, ND2) and the row factors
        # that multiply them: N = D4_j P_i + N4_j Q_i + ND2_j S_i  (mod m)
        self.terms = {}
        for m in (_MOD1, _MOD2):
            n2m = nums * nums % m
            d2m = dens * dens % m
            n4, d4, nd2 = n2m * n2m % m, d2m * d2m % m, n2m * d2m % m
            self.terms[m] = ((d4, n4, nd2), ((4 * nd2 - n4) % m, -d4 % m,
                                             (4 * d4 + 2 * nd2) % m))
        # the live columns j = w mod shard total, with their MOD1 column terms
        total = config.shard[1]
        self.classes = []
        for w in range(total):
            idx = self.live[self.live % total == w]
            self.classes.append((idx, [col[idx] for col in self.terms[_MOD1][0]]))

    def candidates(self, first: int, end: int):
        """The shard's pairs (i, j <= i) over the live rows in [first, end),
        in candidate order; a filtered scan keeps those with N a square."""
        live = self.live
        rows = live[np.searchsorted(live, first):np.searchsorted(live, end)]
        if self.filtered:
            return _square_pairs(self, rows)
        index, total = self.config.shard
        return ((i, j) for i in rows.tolist()
                for j in range((index - i * (i + 1) // 2) % total, i + 1, total))

    def settle(self, i: int, j: int) -> Optional[SearchRecord]:
        c, a = _thirdpair_values(self.frs[i], self.frs[j])
        return verify_pair(c, a, self.config.target, self.config.depth)


def _square_pairs(plan: _ThirdPairPlan, tile: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (i in tile, j <= i) of the shard whose N is a perfect
    square, in candidate order.

    Rows and columns run over the live fractions only (those passing
    _two_square_mask; module docstring), under their original indices, so
    candidate numbering, shards, provenance and the checkpoint's next_block
    keep their meaning.  The tile is split by the residue class its rows need
    from the columns for this shard, and each class is matched only against
    its own columns.

    With p1 = n1/d1, p2 = n2/d2, the filter integer expands to
    N = D4_2 (4 ND2_1 - N4_1) - N4_2 D4_1 + ND2_2 (4 D4_1 + 2 ND2_1)
    where N4 = n^4, D4 = d^4, ND2 = n^2 d^2.  Reducing those three arrays
    modulo the composite filter moduli once lets each tile compute N's
    residue with three multiplies and a single division per pair (int64-safe
    for height bounds up to 50000).  Residues that are squares modulo both
    moduli are re-checked with exact integer arithmetic.
    """
    shard_index, shard_total = plan.config.shard
    nums, dens = plan.nums, plan.dens
    table1, table2 = plan.tables
    (d4b, n4b, nd2b), (pb, qb, sb) = plan.terms[_MOD2]
    # candidate i(i+1)/2 + j is in the shard iff j = want mod shard_total
    want = (shard_index - tile * (tile + 1) // 2) % shard_total
    survivors: list[tuple[int, int]] = []
    for w in np.unique(want).tolist():
        rows = tile[want == w]
        idx, (d4, n4, nd2) = plan.classes[w]
        p, q, s = (row[rows][:, None] for row in plan.terms[_MOD1][1])
        width = int(np.searchsorted(idx, rows[-1], side="right"))
        for j0 in range(0, width, _COL_TILE):
            j1 = min(j0 + _COL_TILE, width)
            cols = idx[j0:j1]
            nm = (d4[j0:j1] * p + n4[j0:j1] * q + nd2[j0:j1] * s) % _MOD1
            alive = table1[nm]
            alive &= cols[None, :] <= rows[:, None]
            # held until the next tile: had a block freed all its arrays, the C
            # allocator would unmap them and the next block fault them back in
            plan.held = (nm, alive)
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
    return survivors


# ---------------------------------------------------------------------------
# forward-orbit strategy
# ---------------------------------------------------------------------------

_C_RUN = 8


def scan_forward(config: SearchConfig, resume: bool = False,
                 jobs: int = 1) -> Iterator[SearchRecord]:
    """Seed a = f_c^depth(x0) over all c (any sign) and x0 >= 0 of height
    within the bound, and keep the pairs whose tree dominates the target.
    Same ordering, sharding, dedup, checkpoint and jobs contract as the
    third-pair scan; a block is a run of _C_RUN c candidates."""
    yield from _scan(_ForwardPlan, config, resume, jobs)


class _ForwardPlan:
    """The forward scan's candidates (ci, xi): c over 0 and +/- each
    fraction, x0 over 0 and each fraction; every c index is a live row."""

    strategy, params = "forward", ("c", "x0")

    def __init__(self, config: SearchConfig):
        self.config = config
        frs = fractions_by_height(config.height_bound)
        self.c_values = [Fraction(0)] + [v for f in frs for v in (f, -f)]
        self.x_values = [Fraction(0)] + frs
        self.axes = (self.c_values, self.x_values)
        self.size = len(self.c_values)
        self.live = np.arange(self.size)
        self.tile = _C_RUN

    def candidates(self, first: int, end: int):
        index, total = self.config.shard
        width = len(self.x_values)
        return ((ci, xi) for ci in range(first, end)
                for xi in range((index - ci * width) % total, width, total))

    def settle(self, ci: int, xi: int) -> Optional[SearchRecord]:
        c, depth = self.c_values[ci], self.config.depth
        return verify_pair(c, iterate(c, self.x_values[xi], depth),
                           self.config.target, depth)
