"""Output checks written apart from the program under test.

Every check takes the input as plain edge arrays (``n``, ``eu``, ``ev``)
and the solution as a numpy array, and returns ``None`` when the solution
is valid or a one-line reason when it is not.  Only numpy and scipy are
used: nothing here imports ``repro.verify`` or reads
``SolveResult.verified``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

__all__ = [
    "adjacency",
    "bfs_depth_from_lowest_ids",
    "check",
    "check_coloring",
    "check_matching",
    "check_mis",
    "check_ruling2",
    "check_square",
    "check_vertex_cover",
    "self_test",
]


def adjacency(n: int, eu: np.ndarray, ev: np.ndarray) -> sp.csr_matrix:
    """Symmetric boolean CSR adjacency of an undirected edge list."""
    rows = np.concatenate([eu, ev]).astype(np.int64)
    cols = np.concatenate([ev, eu]).astype(np.int64)
    data = np.ones(rows.size, dtype=bool)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=bool)


def _node_mask(n: int, nodes: np.ndarray) -> tuple[np.ndarray | None, str | None]:
    nodes = np.asarray(nodes, dtype=np.int64).ravel()
    if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
        return None, "node id out of range"
    if np.unique(nodes).size != nodes.size:
        return None, "repeated node"
    mask = np.zeros(n, dtype=bool)
    mask[nodes] = True
    return mask, None


def _independent(mask: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> bool:
    return not bool(np.any(mask[eu] & mask[ev]))


def check_mis(n: int, eu: np.ndarray, ev: np.ndarray, nodes) -> str | None:
    """Independent, and every node outside the set has a neighbour in it."""
    mask, err = _node_mask(n, nodes)
    if err:
        return err
    if not _independent(mask, eu, ev):
        return "two adjacent nodes in the set"
    dominated = mask.copy()
    dominated[eu[mask[ev]]] = True
    dominated[ev[mask[eu]]] = True
    if not dominated.all():
        return f"not maximal: node {int(np.argmin(dominated))} can join"
    return None


def check_matching(n: int, eu: np.ndarray, ev: np.ndarray, pairs) -> str | None:
    """Pairs are input edges, share no vertex, and no edge can be added."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        return "node id out of range"
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    edge_keys = np.minimum(eu, ev) * n + np.maximum(eu, ev)
    if not np.isin(lo * n + hi, edge_keys).all():
        return "a pair is not an edge of the input"
    ends = pairs.ravel()
    if np.unique(ends).size != ends.size:
        return "two pairs share a vertex"
    matched = np.zeros(n, dtype=bool)
    matched[ends] = True
    if np.any(~matched[eu] & ~matched[ev]):
        return "not maximal: an edge has both ends unmatched"
    return None


def check_vertex_cover(n: int, eu: np.ndarray, ev: np.ndarray, nodes) -> str | None:
    """Every edge has an endpoint in the cover."""
    mask, err = _node_mask(n, nodes)
    if err:
        return err
    if np.any(~mask[eu] & ~mask[ev]):
        return "an edge is not covered"
    return None


def check_coloring(n: int, eu: np.ndarray, ev: np.ndarray, colors) -> str | None:
    """Proper, non-negative, and at most Delta + 1 distinct colours."""
    colors = np.asarray(colors, dtype=np.int64).ravel()
    if colors.size != n:
        return f"{colors.size} colours for {n} nodes"
    if n and colors.min() < 0:
        return "negative colour"
    if np.any(colors[eu] == colors[ev]):
        return "an edge has both ends the same colour"
    deg = np.bincount(np.concatenate([eu, ev]), minlength=n)
    delta = int(deg.max()) if n else 0
    used = np.unique(colors).size
    if used > delta + 1:
        return f"{used} colours > Delta + 1 = {delta + 1}"
    return None


def _dist_le2_mask(n: int, eu: np.ndarray, ev: np.ndarray, mask: np.ndarray) -> np.ndarray:
    near = mask.copy()
    for _ in range(2):
        step = near.copy()
        step[eu[near[ev]]] = True
        step[ev[near[eu]]] = True
        near = step
    return near


def check_ruling2(n: int, eu: np.ndarray, ev: np.ndarray, nodes) -> str | None:
    """Independent, and every node is within 2 hops of the set."""
    mask, err = _node_mask(n, nodes)
    if err:
        return err
    if not _independent(mask, eu, ev):
        return "two adjacent nodes in the set"
    if not _dist_le2_mask(n, eu, ev, mask).all():
        return "a node is more than 2 hops from the set"
    return None


_CHECKS = {
    "mis": check_mis,
    "matching": check_matching,
    "vc": check_vertex_cover,
    "coloring": check_coloring,
    "ruling2": check_ruling2,
}


def check(problem: str, n: int, eu: np.ndarray, ev: np.ndarray, solution) -> str | None:
    """Dispatch on the problem name (any model)."""
    return _CHECKS[problem](n, eu, ev, solution)


def bfs_depth_from_lowest_ids(n: int, eu: np.ndarray, ev: np.ndarray) -> int:
    """Largest BFS distance reached from each component's lowest-id node."""
    if n == 0 or eu.size == 0:
        return 0
    a = adjacency(n, eu, ev)
    _, labels = csgraph.connected_components(a, directed=False)
    roots = np.full(labels.max() + 1, n, dtype=np.int64)
    np.minimum.at(roots, labels, np.arange(n, dtype=np.int64))
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    frontier = seen.copy()
    depth = 0
    while True:
        nxt = (a @ frontier.astype(np.int32) > 0) & ~seen
        if not nxt.any():
            return depth
        depth += 1
        seen |= nxt
        frontier = nxt


def check_square(n: int, eu, ev, sq_u, sq_v) -> str | None:
    """``(sq_u, sq_v)`` is the off-diagonal nonzero pattern of A + A^2."""
    a = adjacency(n, np.asarray(eu), np.asarray(ev))
    reach = (a + a @ a).tocoo()
    off = reach.row != reach.col
    want = sp.csr_matrix(
        (reach.data[off], (reach.row[off], reach.col[off])), shape=(n, n), dtype=bool
    )
    want.sort_indices()
    got = adjacency(n, np.asarray(sq_u), np.asarray(sq_v))
    got.sort_indices()
    if got.nnz != 2 * np.asarray(sq_u).size:
        return "square graph repeats an edge or has a loop"
    if not (np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices)):
        return f"square graph has {got.nnz // 2} edges, A + A^2 has {want.nnz // 2}"
    return None


def self_test() -> list[str]:
    """Corrupt valid solutions and return the corruptions the checks missed.

    Uses a small fixed graph (no dependency on the benchmark seed) and
    brute-force greedy solutions built here, so an empty list means every
    check rejected its corrupted input and accepted the clean one.
    """
    rng = np.random.default_rng(12345)
    n = 40
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 0.12
    eu, ev = iu[keep].astype(np.int64), ju[keep].astype(np.int64)
    adj = [set() for _ in range(n)]
    for u, v in zip(eu.tolist(), ev.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    mis: list[int] = []
    for v in range(n):
        if not adj[v] & set(mis):
            mis.append(v)
    matched: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for u, v in zip(eu.tolist(), ev.tolist()):
        if u not in matched and v not in matched:
            pairs.append((u, v))
            matched.update((u, v))
    colors = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        taken = {int(colors[w]) for w in adj[v]}
        colors[v] = min(c for c in range(n) if c not in taken)
    cover = sorted(matched)
    ruling = mis  # an MIS is a 1-ruling set, hence a 2-ruling set

    missed: list[str] = []

    def expect(label: str, got: str | None, ok: bool) -> None:
        if (got is None) != ok:
            missed.append(f"{label}: {got or 'accepted'}")

    mis_a = np.array(mis)
    expect("clean mis", check_mis(n, eu, ev, mis_a), True)
    expect("mis minus a node", check_mis(n, eu, ev, mis_a[1:]), False)
    v = mis[0]
    w = next(iter(adj[v]))
    expect("mis plus a neighbour", check_mis(n, eu, ev, np.append(mis_a, w)), False)
    pairs_a = np.array(pairs)
    expect("clean matching", check_matching(n, eu, ev, pairs_a), True)
    expect("matching minus a pair", check_matching(n, eu, ev, pairs_a[1:]), False)
    free = [a for a in range(n) if a not in matched]
    if len(free) >= 2:  # unmatched nodes are pairwise non-adjacent
        expect(
            "matching plus a non-edge",
            check_matching(n, eu, ev, np.vstack([pairs_a, free[:2]])),
            False,
        )
    expect("clean colouring", check_coloring(n, eu, ev, colors), True)
    bad = colors.copy()
    bad[ev[0]] = bad[eu[0]]
    expect("colouring with one bad edge", check_coloring(n, eu, ev, bad), False)
    cover_a = np.array(cover)
    expect("clean cover", check_vertex_cover(n, eu, ev, cover_a), True)
    drop = set(pairs[0])
    expect(
        "cover minus a matched pair",
        check_vertex_cover(n, eu, ev, np.array([c for c in cover if c not in drop])),
        False,
    )
    expect("clean 2-ruling set", check_ruling2(n, eu, ev, np.array(ruling)), True)
    expect(
        "2-ruling set plus a neighbour",
        check_ruling2(n, eu, ev, np.append(np.array(ruling), w)),
        False,
    )
    expect("empty 2-ruling set", check_ruling2(n, eu, ev, np.array([], dtype=np.int64)), False)
    return missed
