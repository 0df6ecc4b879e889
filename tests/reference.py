"""Slow reference pre-image tree for the tests.

The plain level walk in `Fraction`s, one `rat_sqrt` per parent through
`dynamics.preimages`.  The integer walk in `dynamics.preimage_tree`, and the
search oracles that must not depend on it, are checked against this.
"""

from fractions import Fraction

from quadpreim.dynamics import PreimageTree, TreeNode, preimages


def reference_tree(c, a, depth: int) -> PreimageTree:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    c = Fraction(c)
    a = Fraction(a)
    levels = []
    previous = (a,)
    for _ in range(depth):
        found: dict[Fraction, int] = {}
        for idx, y in enumerate(previous):
            for v in preimages(c, y):
                if v not in found:
                    found[v] = idx
        nodes = tuple(TreeNode(v, found[v], v == 0)
                      for v in sorted(found, reverse=True))
        levels.append(nodes)
        previous = tuple(n.value for n in nodes)
    return PreimageTree(c=c, a=a, levels=tuple(levels))


def reference_hit(c, a, target) -> bool:
    """Whether the reference signature of (c, a) dominates the target."""
    sig = reference_tree(c, a, max(len(target), 1)).signature()
    return all(s >= t for s, t in zip(sig, target))
