"""Height-bounded searches for (c, a) pairs realizing prescribed pre-image
arrangements.

The third-pair strategy walks ordered pairs (p1, p2) of positive reduced
rationals: demanding p1^2 + c = s and p2^2 + c = -s for some second-level
value s pins c = -(p1^2 + p2^2)/2 and s = (p1^2 - p2^2)/2, hence
t = s^2 + c and a = t^2 + c.  A candidate whose level 3 can meet the
target (a bound read off the second-level value u, quadpreim.plans) is
settled by re-verifying the whole tree; the others are not walked.
Enumeration is by increasing height (Farey-style), so runs are
deterministic, shardable by candidate index, and checkpointable.

Level 2 of the tree is {s, -s} and {u, -u}, the pre-images of t and -t,
with u^2 = -s^2 - 2c, so it holds more than two points only if u is
rational (u = 0 included).  So the third-pair strategy serves the depth-3
targets that ask for at least three second pre-images, and the forward
strategy the others: it seeds a = f_c^depth(x0) over every c and x0 >= 0
of height within the bound.

Each strategy has a plan (quadpreim.plans, the one module that imports
numpy, loaded when a scan starts) that lists its candidates in order and
passes on only those that can meet the target: a third-pair candidate
needs u rational and room at level 3, a forward one a branch off the orbit.
Both strategies cut their shard into ordered blocks of live rows; one driver
(_scan) reads the blocks' hits in order, in this process or from `jobs`
workers, and alone dedups, emits and checkpoints: a checkpoint names the
candidates of the emitted records, which resume settles again ahead of the
blocks, so jobs and interruptions never change the output.
A candidate is settled on int pairs (_settle): each plan knows a y with
a = y^2 + c (t, or f_c^(depth-1)(x0)), so level 1 is exactly {y, -y}, or
{0}, and the walk (_walk) starts there: a miss never square-tests a, the
largest number of the candidate.  A hit is walked once, past the target's
levels to the full depth, and the driver builds one record from its level
maps for each new (c, a).  Records, their trees and their provenance stay
reduced (n, d) pairs, formatted straight to the output; a Fraction is made
only where a caller reads a record's c, a or levels.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt  # noqa: F401  traced by perfbench/run.py
from typing import Iterable, Iterator, Optional, Sequence

from .dynamics import PreimageTree, preimage_levels, tree_from_levels
from .dynamics import iterate, preimage_tree  # noqa: F401  traced by perfbench/run.py
from .exactmath import Pair, format_pair, lowest_terms


class SearchArgumentError(ValueError):
    """A scan cannot start from these arguments: a bad configuration, a
    target or height bound the strategy refuses, or no usable checkpoint to
    resume from."""


class CheckpointError(RuntimeError):
    """Writing a checkpoint failed; the previous checkpoint file (if any)
    still holds a consistent resume state."""


# plans._height_order peaks at about 22 H^2 bytes (90 MB at 2,000); built at
# 2,000 the forward plan (three int64 pairs a fraction, target 2,2,4) peaks at
# 1,004 MB max RSS, the third-pair plan at 133 MB (Python 3.11, numpy 2.4)
_HEIGHT_BOUND_CAP = 2000
# plans._kind_filter packs at least a word a stacked row (5 KB for the forward
# filter) for every shard class with a column: about 20 MB at 4,096 classes
_SHARD_TOTAL_CAP = 4096
# a forward orbit's numbers double in digits at each level: at H = 2, target
# 2,2,2, depth 16 takes about 1.3 s and 17 about 4 s (Python 3.11)
_DEPTH_CAP = 16


@dataclass(frozen=True)
class SearchConfig:
    height_bound: int
    depth: int
    target: tuple[int, ...]
    shard: tuple[int, int] = (0, 1)
    checkpoint_path: Optional[str] = None

    def __post_init__(self):
        if not 1 <= self.height_bound <= _HEIGHT_BOUND_CAP:
            raise SearchArgumentError(
                "height_bound must be between 1 and %d: the height order holds "
                "about H^2/2 int64 pairs" % _HEIGHT_BOUND_CAP)
        index, total = self.shard
        if not 0 <= index < total <= _SHARD_TOTAL_CAP:
            raise SearchArgumentError("shard must satisfy 0 <= index < total "
                                      "<= %d" % _SHARD_TOTAL_CAP)
        if not 1 <= self.depth <= _DEPTH_CAP:
            raise SearchArgumentError("depth must be between 1 and %d"
                                      % _DEPTH_CAP)
        if self.depth < len(self.target):
            raise SearchArgumentError("depth must cover the target signature")
        if any(t < 0 for t in self.target):
            raise SearchArgumentError("target counts are nonnegative")

    def canonical(self, strategy: str) -> dict:
        return {
            "strategy": strategy,
            "height_bound": self.height_bound,
            "depth": self.depth,
            "target": list(self.target),
            "shard": list(self.shard),
        }

    def digest(self, strategy: str) -> str:
        import hashlib          # lazily: only a checkpoint needs OpenSSL
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
    """A verified hit: the witness tree, which holds the pair and its
    signature, and the candidate that first reached it in candidate order
    (later candidates reaching the same (c, a) are dropped as duplicates, so
    a yielded record never changes, whatever the jobs value)."""

    tree: PreimageTree
    provenance: list[Provenance] = field(default_factory=list)

    @property
    def c(self) -> Fraction:
        return self.tree.c

    @property
    def a(self) -> Fraction:
        return self.tree.a

    @property
    def signature(self) -> tuple[int, ...]:
        return self.tree.signature()

    def as_json(self) -> dict:
        tree = self.tree.as_json()
        return {"c": tree["c"], "a": tree["a"],
                "signature": list(tree["signature"]), "tree": tree,
                "provenance": [p.as_json() for p in self.provenance]}

    @classmethod
    def from_json(cls, data: dict) -> "SearchRecord":
        return cls(tree=PreimageTree.from_json(data["tree"]),
                   provenance=[Provenance.from_json(p) for p in data["provenance"]])


def verify_pair(c, a, target: Sequence[int], depth: int) -> Optional[SearchRecord]:
    """Re-derive the tree of (c, a) in one walk; a record, tree and all,
    results exactly when the signature dominates the target at every level
    (_walk)."""
    target = tuple(target)
    if depth < len(target):
        raise ValueError("depth must cover the target signature")
    c, a = Fraction(c), Fraction(a)
    c, a = (c.numerator, c.denominator), (a.numerator, a.denominator)
    levels = _walk(c, (a,), target, depth)
    return None if levels is None else _record(c, a, levels)


def _walk(c: Pair, level: Iterable[Pair], target: tuple[int, ...],
          depth: int) -> Optional[list[dict[Pair, Pair]]]:
    """The `depth` level maps (preimage_levels) after the complete level
    `level` of a tree under f_c, or None if the k-th of them has fewer than
    target[k] roots; the levels past the target are walked only once it is
    met."""
    walk = preimage_levels(c, level, depth)
    levels = []
    for want, found in zip(target, walk):
        if len(found) < want:
            return None
        levels.append(found)
    levels.extend(walk)
    return levels


def _record(c: Pair, a: Pair, levels: list[dict[Pair, Pair]]) -> SearchRecord:
    """The record of a hit, its tree built from the walk's level maps."""
    return SearchRecord(tree_from_levels(c, a, levels))


Hit = tuple[Pair, Pair, list]    # c, a and the level maps of a's tree


def _settle(config: SearchConfig, c: Pair, y: Pair) -> Optional[Hit]:
    """The scan candidate a = y^2 + c on int pairs, walked once from its
    level 1, which is exactly {y, -y} (or {0}): its hit, or None for a miss,
    which never square-tests a."""
    yn, yd = y
    level = ((yn, yd), (-yn, yd)) if yn else ((0, 1),)
    target = config.target
    if target and len(level) < target[0]:
        return None
    levels = _walk(c, level, target[1:], config.depth - 1)
    if levels is None:
        return None
    cn, cd = c
    a = (yn * yn * cd + cn * yd * yd, yd * yd * cd)
    return c, a, [dict.fromkeys(level, a), *levels]


def fractions_by_height(bound: int) -> list[Fraction]:  # perfbench/run.py traces it
    """The fractions of plans._height_order(bound); callers handle the signs."""
    from .plans import _height_order
    nums, dens = _height_order(bound)
    return [Fraction(n, d) for k in range(0, len(nums), 4096)  # 4096 ints at a time
            for n, d in zip(nums[k:k + 4096].tolist(), dens[k:k + 4096].tolist())]


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
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CheckpointError("checkpoint write to %r failed: %s" % (path, exc))


def _load_checkpoint(path: str,
                     expected_digest: str) -> tuple[int, list[tuple[int, int]]]:
    """The next block and the candidates of the emitted records of a checkpoint;
    SearchArgumentError for a file that is not a readable checkpoint of this
    configuration, or names a candidate not two nonnegative ints in its rows
    or not past the one before (the scan emits them in increasing order)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        digest, next_block = payload["config_sha"], payload["next_block"]
        hits = [(i, j) for i, j in payload["hits"]]
    except (OSError, ValueError, LookupError, TypeError, RecursionError) as exc:
        raise SearchArgumentError("cannot resume from checkpoint %r: %r"
                                  % (path, exc))
    if digest != expected_digest:
        raise SearchArgumentError("checkpoint %r belongs to a different "
                                  "configuration" % (path,))
    if type(next_block) is not int or next_block < 0:
        raise SearchArgumentError("checkpoint %r has next_block %r"
                                  % (path, next_block))
    if not all(type(i) is type(j) is int and 0 <= i < next_block and j >= 0
               for i, j in hits):
        raise SearchArgumentError("checkpoint %r has a hit that is not two "
                                  "nonnegative ints in its rows" % (path,))
    if any(a >= b for a, b in zip(hits, hits[1:])):
        raise SearchArgumentError("checkpoint %r lists its hits out of "
                                  "candidate order" % (path,))
    return next_block, hits


# ---------------------------------------------------------------------------
# the scan driver
# ---------------------------------------------------------------------------

_CHECKPOINT_BLOCKS = 32      # blocks between two checkpoint writes


def _blocks(live, tile: int, start: int) -> list[tuple[int, int]]:
    """Runs of `tile` live rows (a sorted int array) from row `start` on, as
    row ranges (first, end); end is the next_block of a checkpoint after the
    block."""
    rows = live[live.searchsorted(start):].tolist()
    ends = [rows[min(k + tile, len(rows)) - 1] + 1
            for k in range(0, len(rows), tile)]
    return list(zip([start] + ends[:-1], ends))


def _scan_block(plan, block: tuple[int, int]) -> list[tuple[tuple, Hit]]:
    """The hits (candidate, hit) of one block, in candidate order."""
    return [(candidate, hit) for candidate in plan.candidates(*block)
            if (hit := plan.settle(*candidate)) is not None]


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
    """Settle the checkpoint's hits again on resume, then feed them and each
    block's hits in order to one loop: drop a (c, a) emitted before, build
    the record of a new one and attach its provenance, emit, and checkpoint
    the emitted candidates every _CHECKPOINT_BLOCKS blocks and at the end."""
    path = config.checkpoint_path
    digest = config.digest(plan_class.strategy) if path else None
    start, hits = 0, []
    if resume:
        if not path:
            raise SearchArgumentError("resume requested without a checkpoint "
                                      "path")
        start, hits = _load_checkpoint(path, digest)
    plan = plan_class(config)
    if start > plan.size:
        raise SearchArgumentError("checkpoint %r has next_block %d past the "
                                  "scan's %d rows" % (path, start, plan.size))
    # each hit must be a candidate that the plan lists in its row, and all are
    # settled before the first record: a bad hit prints none
    listed = {candidate for row in {i for i, _ in hits}
              for candidate in plan.candidates(row, row + 1)}
    replayed = [(candidate, plan.settle(*candidate)) for candidate in hits
                if candidate in listed]
    if len(replayed) < len(hits) or any(hit is None for _, hit in replayed):
        raise SearchArgumentError("checkpoint %r has a hit that is no hit of "
                                  "this scan" % (path,))
    seen, emitted = set(), []

    def checkpoint(next_block: int):
        if path:
            _write_checkpoint(path, {
                "config_sha": digest, "config": config.canonical(plan_class.strategy),
                "next_block": next_block, "hits": list(emitted)})

    blocks = _blocks(plan.live, plan.tile, start)
    batches = zip(_block_hits(plan, blocks, jobs), [end for _, end in blocks])
    for done, (found, end) in enumerate(itertools.chain([(replayed, start)], batches)):
        new = []        # a block's trees built together: 2% off a forward call
        for candidate, (c, a, levels) in found:
            key = lowest_terms(c), lowest_terms(a)
            if key not in seen:
                seen.add(key)
                new.append((candidate, _record(c, a, levels)))
        for candidate, rec in new:
            pairs = plan.pairs(*candidate)
            rec.provenance.append(Provenance(
                strategy=plan_class.strategy,
                heights=tuple(max(abs(n), d) for n, d in pairs),
                params={name: format_pair(*p)
                        for name, p in zip(plan.params, pairs)}))
            emitted.append(candidate)
            yield rec
        if done and done % _CHECKPOINT_BLOCKS == 0:     # done 0: the replayed hits
            checkpoint(end)
    checkpoint(plan.size)


# ---------------------------------------------------------------------------
# third-pair strategy
# ---------------------------------------------------------------------------

def scan_thirdpair(config: SearchConfig, resume: bool = False,
                   jobs: int = 1) -> Iterator[SearchRecord]:
    """Stream every (c, a) within reach of the third-pair strategy whose tree
    dominates the target, deduplicated by (c, a), in candidate order.

    Candidates are ordered pairs (i, j <= i) over the height-ordered fraction
    list; candidate k = i(i+1)/2 + j belongs to shard k mod total.  The union
    over all shards equals the unsharded stream as a set.  The target must
    ask for at least three second pre-images at depth 3, which makes u
    rational (module docstring) and N a square (quadpreim.plans);
    scan_forward serves the others.
    """
    if len(config.target) < 3 or config.target[1] < 3:
        raise SearchArgumentError("the third-pair strategy needs a depth-3 "
                                  "target with at least 3 second pre-images; "
                                  "use --strategy forward")
    from .plans import _ThirdPairPlan       # numpy loads only for a scan
    yield from _scan(_ThirdPairPlan, config, resume, jobs)


# ---------------------------------------------------------------------------
# forward-orbit strategy
# ---------------------------------------------------------------------------

def scan_forward(config: SearchConfig, resume: bool = False,
                 jobs: int = 1) -> Iterator[SearchRecord]:
    """Seed a = f_c^depth(x0) over all c (any sign) and x0 >= 0 of height
    within the bound, and keep the pairs whose tree dominates the target.
    Same ordering, sharding, dedup, checkpoint and jobs contract as the
    third-pair scan; a block is a run of rows of about
    plans._FORWARD_BLOCK candidates."""
    from .plans import _ForwardPlan
    yield from _scan(_ForwardPlan, config, resume, jobs)

