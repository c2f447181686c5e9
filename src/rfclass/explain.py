"""Shapley attributions for the boosted ensemble.

The game is the cover-weighted conditional expectation of the class margin:
a feature outside the coalition descends both children of its splits
weighted by their training cover share. Attributions are on margins
(pre-softmax), so base value plus contributions equals the class margin.

`attribute` runs one path kernel: the polynomial path recursion of TreeSHAP
(Lundberg et al. 2018), run for many rows and root-to-leaf paths at once.
Each call lists every root-to-leaf path of the ensemble once, as
GPUTreeShap does, and groups the paths that have the same number of splits
and revisit a feature at the same steps. Within a group the recursion's
bookkeeping does not depend on the row (which element a revisit divides
out, and the zero fractions: products of the weight shares the path takes),
so it is worked out once. Rows then go through in blocks
of ROW_BLOCK: for every row and path of a block the kernel replays EXTEND at
each split, UNWIND at each revisit and the UNWOUND SUM of each element at
the leaf as NumPy arrays, with the recursion's operations in its order. It
adds the results onto phi in the order the recursion visits the leaves (hot
child first) with one `np.bincount` per block, and sums the base value
bottom-up, left child's term first, so the output equals the per-row
recursion bit for bit. Time is O(rows * paths * D^2) for paths of at most D
splits; working memory is a few (D, ROW_BLOCK, paths) arrays and a
(ROW_BLOCK, leaves, D) ordering buffer, whatever the row count. No table
over hot/cold feature patterns is built, so deep trees cost D^2, not 2^D.

Since a row's phi does not depend on the other rows, a call shares its rows
among up to `min(CPUs, blocks)` processes. It builds the path groups once,
then `forked` workers each attribute one contiguous slice of whole blocks
and send its phi back as raw bytes, while the caller attributes the first
slice; the slices go into phi in row order, so phi is bit-identical at any
worker count. `booster.worker_count` keeps a call whose rows times leaves
would not pay for a fork in one process.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .booster import Ensemble, Tree, forked, worker_count
from .dataset import Database, csv_text
from .errors import RfclassError


def _child_fractions(tree: Tree) -> np.ndarray:
    """(2, nodes) training-cover shares of each node's left and right child.

    At a node of cover 0 each child gets 0.5. A leaf, its own child, gets 1
    (0.5 at cover 0) and never uses it.
    """
    children = np.stack([tree.left, tree.right])
    shares = np.full(children.shape, 0.5)
    known = tree.cover > 0
    shares[:, known] = tree.cover[children[:, known]] / tree.cover[known]
    return shares


#: Rows attributed together. On a 600-tree model two rows kept the peak
#: memory below that of the per-row recursion; four were about 20% faster
#: and took 3 MB more.
ROW_BLOCK = 2


def _extend(weight: np.ndarray, pz: np.ndarray, po: np.ndarray) -> np.ndarray:
    """EXTEND: the permutation weights after appending an element with zero
    fraction pz and one fraction po to the path."""
    depth = weight.shape[0]
    i = np.arange(depth)[:, None, None]
    out = np.empty((depth + 1,) + weight.shape[1:])
    stay = np.multiply(pz, weight, out=out[:depth])
    stay *= depth - i
    stay /= depth + 1
    out[depth] = 0.0
    move = po * weight
    move *= i + 1
    move /= depth + 1
    out[1:] += move
    return out


def _unwind(weight: np.ndarray, pz: np.ndarray, po: np.ndarray) -> np.ndarray:
    """UNWIND: the permutation weights with an element of fractions (pz, po)
    divided back out of the path."""
    depth = weight.shape[0] - 1
    out = np.empty((depth,) + weight.shape[1:])
    carry = weight[depth]
    for i in range(depth - 1, -1, -1):
        lifted = (carry * (depth + 1)) / (i + 1)  # po is 1 wherever this is kept
        carry = weight[i] - ((lifted * pz) * (depth - i)) / (depth + 1)
        out[i] = np.where(po != 0.0, lifted, (weight[i] * (depth + 1)) / (pz * (depth - i)))
    return out


def _unwound_sums(weight: np.ndarray, po: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """UNWOUND SUM of every element, with fractions (pz, po) stacked on the
    first axis: the permutation weight of the path without that element."""
    depth = weight.shape[0] - 1
    hot = np.zeros(po.shape)
    cold = np.zeros(po.shape)
    lifted = np.empty(po.shape)
    carry = np.empty(po.shape)
    carry[...] = weight[depth]
    for i in range(depth - 1, -1, -1):
        np.multiply(carry, depth + 1, out=lifted)
        lifted /= i + 1  # po is 1 wherever this is kept
        hot += lifted
        if i:
            lifted *= pz
            lifted *= depth - i
            lifted /= depth + 1
            np.subtract(weight[i], lifted, out=carry)
        np.divide(weight[i] * (depth + 1), pz * (depth - i), out=lifted)
        cold += lifted
    np.copyto(cold, hot, where=po != 0.0)
    return cold


@dataclass(frozen=True)
class _PathGroup:
    """Root-to-leaf paths that the path recursion handles alike.

    Arrays are (steps, paths), root first: the split's feature and
    threshold, whether the path goes left there, and how many leaves hang
    under the child it skips. Step k appends an element for its feature
    with zero fraction `zero[k]`. All paths of a group revisit features at
    the same steps: there `last[k]` is the earlier step whose element
    UNWIND divides out first. Only the weights depend on where elements sit
    on the path, so elements are kept by the step that appended them, and
    `spent` marks those a later revisit replaced.
    """

    feature: np.ndarray
    threshold: np.ndarray
    went_left: np.ndarray
    skipped: np.ndarray
    last: np.ndarray
    revisits: tuple[bool, ...]
    zero: np.ndarray
    vanishes: tuple[bool, ...]  # whether zero[k] is 0 on some path
    spent: np.ndarray
    target: np.ndarray       # slot * features + feature
    value: np.ndarray        # (paths,) leaf value
    first_leaf: np.ndarray   # (paths,) position of the first leaf of the path's tree

    @classmethod
    def build(cls, feature, threshold, went_left, share, skipped, last, slot, value,
              first_leaf, num_features: int) -> "_PathGroup":
        """Work out the zero fractions and spent elements of the paths."""
        cols = np.arange(share.shape[1])
        zero = np.empty(share.shape)
        spent = np.zeros(share.shape, dtype=bool)
        for k in range(share.shape[0]):
            revisit = last[k] >= 0
            zero[k] = np.where(revisit, zero[last[k], cols], 1.0) * share[k]
            spent[last[k][revisit], cols[revisit]] = True
        return cls(feature=feature, threshold=threshold, went_left=went_left,
                   skipped=skipped, last=last, revisits=tuple(bool(r) for r in last[:, 0] >= 0),
                   zero=zero, vanishes=tuple(bool((z == 0.0).any()) for z in zero),
                   spent=spent[:, None, :], target=slot * num_features + feature,
                   value=value, first_leaf=first_leaf)

    def contributions(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(steps, rows, paths) attributions that the recursion adds at the
        leaves for each step's element (0 where it prunes or the element
        is spent), and (rows, paths) positions of the leaves in its
        hot-child-first visiting order."""
        rows, n = block.shape[0], self.value.size
        hot = (block[:, self.feature] < self.threshold) == self.went_left  # (rows, steps, paths)
        order = self.first_leaf + np.where(hot, 0, self.skipped).sum(axis=1)
        ones = []
        weight = np.ones((1, rows, n))
        pruned = np.zeros((rows, n), dtype=bool)
        for k, revisit in enumerate(self.revisits):
            po = hot[:, k].astype(float)
            if revisit:
                incoming = np.take_along_axis(np.array(ones), self.last[k][None, None, :],
                                              axis=0)[0]
                weight = _unwind(weight, self.zero[self.last[k], np.arange(n)], incoming)
                po *= incoming
            if self.vanishes[k]:  # the recursion skips a child whose fractions both vanish
                pruned |= (po == 0.0) & (self.zero[k] == 0.0)
            weight = _extend(weight, self.zero[k], po)
            ones.append(po)
        po = np.array(ones)
        pz = self.zero[:, None, :]
        phi = _unwound_sums(weight, po, pz)
        po -= pz
        phi *= po
        phi *= self.value
        return np.where(self.spent | pruned, 0.0, phi), order


def _revisits(feature: np.ndarray) -> np.ndarray:
    """(steps, paths) latest earlier step that split on the same feature,
    -1 where none did."""
    last = np.full(feature.shape, -1)
    for k in range(feature.shape[0]):
        for j in range(k):
            last[k] = np.where(feature[j] == feature[k], j, last[k])
    return last


def _forest(trees: list[Tree]) -> Tree:
    """The trees as one Tree with many roots: node arrays concatenated and
    child links shifted to the concatenated positions."""
    sizes = [tree.n_nodes() for tree in trees]
    shift = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(tree, name) for tree in trees])

    return Tree(feature=cat("feature"), threshold=cat("threshold"), left=cat("left") + shift,
                right=cat("right") + shift, value=cat("value"), cover=cat("cover"),
                gain=cat("gain"))


def _paths(ensemble: Ensemble) -> tuple[list[_PathGroup], np.ndarray, int]:
    """Path groups of the ensemble's trees, the base value of each class, and
    the number of leaves."""
    classes = ensemble.hp.num_class
    listed = [(c, tree) for c in range(classes) for tree in ensemble.class_trees(c)]
    if not listed:
        return [], np.zeros(classes), 0
    trees = [tree for _, tree in listed]
    sizes = [tree.n_nodes() for tree in trees]
    forest = _forest(trees)
    slot_of_node = np.repeat([slot for slot, _ in listed], sizes)
    shares = _child_fractions(forest)

    # parent, side, share and sibling of every child node
    n = forest.n_nodes()
    internal = np.flatnonzero(forest.feature >= 0)
    lefts, rights = forest.left[internal], forest.right[internal]
    parent = np.full(n, -1)
    share = np.ones(n)
    went_left = np.zeros(n, dtype=bool)
    sibling = np.zeros(n, dtype=np.int64)
    for side, (children, others) in enumerate(((lefts, rights), (rights, lefts))):
        parent[children] = internal
        share[children] = shares[side, internal]
        went_left[children] = side == 0
        sibling[children] = others

    levels = forest.levels(np.flatnonzero(parent < 0))  # the roots, in tree order
    depth = np.zeros(n, dtype=np.int64)
    for d, level in enumerate(levels):
        depth[level] = d
    # bottom up: the empty coalition's expectation (left child's term first)
    # and the number of leaves under each node
    expected = forest.value.copy()
    n_leaves = (forest.feature < 0).astype(np.int64)
    for level in reversed(levels):
        inner = level[forest.feature[level] >= 0]
        lefts, rights = forest.left[inner], forest.right[inner]
        expected[inner] = shares[0, inner] * expected[lefts] + shares[1, inner] * expected[rights]
        n_leaves[inner] = n_leaves[lefts] + n_leaves[rights]
    roots = levels[0]
    base = np.bincount(slot_of_node[roots], weights=expected[roots], minlength=classes)

    leaves = np.flatnonzero(forest.feature < 0)
    # a tree's root is its first node, so the roots are where the trees start
    first_leaf = np.searchsorted(leaves, roots)[np.repeat(np.arange(len(trees)), sizes)]
    groups = []
    for steps in np.unique(depth[leaves]):
        if steps == 0:
            continue
        ends = leaves[depth[leaves] == steps]
        path = [ends]
        for _ in range(steps):
            path.append(parent[path[-1]])
        path = np.array(path[::-1])  # (steps + 1, paths): root ... leaf
        split, child = path[:-1], path[1:]
        last = _revisits(forest.feature[split])
        patterns, which = np.unique(last.T >= 0, axis=0, return_inverse=True)
        for g in range(len(patterns)):
            members = which.reshape(-1) == g
            s, c, end = split[:, members], child[:, members], ends[members]
            groups.append(_PathGroup.build(
                forest.feature[s], forest.threshold[s], went_left[c], share[c],
                n_leaves[sibling[c]], last[:, members], slot_of_node[end], forest.value[end],
                first_leaf[end], ensemble.num_features))
    return groups, base, leaves.size


def _path_shap(ensemble: Ensemble, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi (rows, classes, features) and base (classes,).

    A row's results do not depend on the other rows, so one row reproduces
    its slice of a call on many bit for bit, and so does a worker that
    attributes a slice of the rows.
    """
    groups, base, n_leaves = _paths(ensemble)
    phi = np.zeros((X.shape[0], base.size, ensemble.num_features))
    width = phi[0].size
    slots = max((group.target.shape[0] for group in groups), default=0)
    # the elements' bins of every path, one row per path, and a zero row for
    # the positions no path fills
    targets = np.zeros((sum(group.value.size for group in groups) + 1, slots), dtype=np.int64)
    first_path = np.cumsum([0] + [group.value.size for group in groups])
    for group, first in zip(groups, first_path):
        targets[first:first + group.value.size, :group.target.shape[0]] = group.target.T

    def attribute_rows(rows: slice) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):  # in lanes np.where drops
            for start in range(rows.start, rows.stop, ROW_BLOCK):
                block = X[start:start + ROW_BLOCK]  # rows.stop ends a block
                row = np.arange(block.shape[0])[:, None]
                # each row's attributions in the recursion's order of addition
                values = np.zeros((block.shape[0], n_leaves, slots))
                path = np.full((block.shape[0], n_leaves), targets.shape[0] - 1)
                for group, first in zip(groups, first_path):
                    contributions, order = group.contributions(block)
                    values[row, order, :contributions.shape[0]] = contributions.transpose(1, 2, 0)
                    path[row, order] = first + np.arange(group.value.size)
                bins = targets[path] + width * row[:, :, None]
                out = phi[start:start + ROW_BLOCK].reshape(-1)
                out += np.bincount(bins.ravel(), weights=values.ravel(), minlength=out.size)
        return phi[rows]

    def send_rows(rows: slice, conn) -> None:  # a forked worker's whole task
        conn.send_bytes(attribute_rows(rows))

    # one contiguous slice of whole blocks per process, this one's first
    blocks = -(-X.shape[0] // ROW_BLOCK)
    workers = worker_count(blocks, row_leaves=X.shape[0] * n_leaves)
    ends = [min(ROW_BLOCK * (blocks * w // workers), X.shape[0]) for w in range(workers + 1)]
    slices = [slice(start, stop) for start, stop in zip(ends, ends[1:])]
    works = [partial(send_rows, rows) for rows in slices[1:]]
    with forked(works, RfclassError("an attribution worker process exited mid-call")) as conns:
        attribute_rows(slices[0])
        for rows, conn in zip(slices[1:], conns):
            phi[rows] = np.frombuffer(conn.recv_bytes()).reshape(phi[rows].shape)
    return phi, base


@dataclass(frozen=True)
class Attribution:
    """Attributions for a dataset: phi has shape (rows, classes, features)."""

    phi: np.ndarray
    base: np.ndarray  # (classes,)
    feature_names: tuple[str, ...]


def attribute(ensemble: Ensemble, X: np.ndarray) -> Attribution:
    """TreeSHAP over every row and class of a matrix, through the path kernel."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("attribute expects a non-empty 2-D matrix")
    if X.shape[1] != ensemble.num_features:
        raise ValueError(f"expected {ensemble.num_features} features, got {X.shape[1]}")
    phi, base = _path_shap(ensemble, X)
    return Attribution(phi=phi, base=base, feature_names=ensemble.feature_names)


@dataclass(frozen=True)
class ImportanceSummary:
    feature_names: tuple[str, ...]
    per_class: np.ndarray  # (classes, features) mean |phi|
    overall: np.ndarray    # (features,) summed per-class means
    ranking: tuple[str, ...]  # feature names, most important first

    def to_csv(self) -> str:
        """Rows are features (most important first); columns per class plus overall."""
        k = self.per_class.shape[0]
        columns = [self.feature_names.index(name) for name in self.ranking]
        return csv_text([["feature", *[f"class_{c}" for c in range(k)], "overall"]] + [
            [self.feature_names[j], *[f"{self.per_class[c, j]:.6g}" for c in range(k)],
             f"{self.overall[j]:.6g}"]
            for j in columns])


def aggregate_importance(attribution: Attribution) -> ImportanceSummary:
    """Mean absolute attribution per (class, feature); overall rank by row sum."""
    if attribution.phi.shape[0] == 0:
        raise ValueError("cannot aggregate an empty attribution set")
    per_class = np.abs(attribution.phi).mean(axis=0)
    overall = per_class.sum(axis=0)
    order = np.argsort(-overall, kind="stable")
    ranking = tuple(attribution.feature_names[j] for j in order)
    return ImportanceSummary(
        feature_names=attribution.feature_names,
        per_class=per_class,
        overall=overall,
        ranking=ranking,
    )


def importance_from_database(
    ensemble: Ensemble,
    db: Database,
    sample: int | None = None,
    seed: int = 0,
) -> ImportanceSummary:
    """Importance summary for a (complete) database, optionally subsampled."""
    X = db.feature_matrix()
    if np.isnan(X).any():
        raise ValueError("database must be complete before attribution")
    if sample is not None and sample < X.shape[0]:
        rng = np.random.default_rng(seed)
        X = X[np.sort(rng.choice(X.shape[0], size=sample, replace=False))]
    return aggregate_importance(attribute(ensemble, X))
