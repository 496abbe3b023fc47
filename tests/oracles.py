"""Independent brute-force oracles for the exact-inference, statistics,
k-means and file-format tests.

Nothing here goes through the message-passing, correlation-report or k-means
code paths: conditionals come from literal weighted enumeration over all
derivations, pair joints from transfer-matrix products along the tree,
k-means from a literal per-cluster Lloyd loop that runs every restart, token
pair counts from one strided bincount per position pair, and dataset text
files from ``np.savetxt`` and a per-token Python parse.
"""

from __future__ import annotations

import numpy as np

from rhmlab import RuleSet, enumerate_all


def enumeration_conditionals(rs: RuleSet, lik: np.ndarray):
    """Exact conditionals of every node given leaf likelihoods, by summing the
    likelihood-weighted enumeration. Returns (marginals per level, log Z)."""
    enum = enumerate_all(rs)
    p = rs.params
    w = np.full(enum.n_rows, 1.0 / p.n_derivations)
    for i in range(p.seq_len):
        w = w * lik[i, enum.sequences[:, i]]
    z = w.sum()
    if z <= 0:
        raise ValueError("evidence admits no derivation")
    marginals = []
    for lvl in range(p.depth + 1):
        syms = enum.level_symbols(lvl)
        marg = np.zeros((syms.shape[1], p.vocab_size))
        for pos in range(syms.shape[1]):
            for mu in range(p.vocab_size):
                marg[pos, mu] = w[syms[:, pos] == mu].sum()
        marginals.append(marg / z)
    return marginals, float(np.log(z))


def _child_given_parent(rs: RuleSet, level: int, position: int) -> np.ndarray:
    """T[parent, child] = P(child at slot ``position`` | parent), from the rule
    table alone."""
    p = rs.params
    table = rs.rules_at(level)
    t = np.zeros((p.vocab_size, p.vocab_size))
    for parent in range(p.vocab_size):
        for k in range(p.n_synonyms):
            t[parent, table[parent, k, position]] += 1.0 / p.n_synonyms
    return t


def pair_joint_dp(rs: RuleSet, i: int, j: int) -> np.ndarray:
    """Exact joint P(x_i, x_j) by transfer matrices: push the uniform root down
    to the lowest common ancestor, expand its single (shared) production choice
    jointly onto the two diverging slots, then push each branch independently
    down to its leaf."""
    p = rs.params
    v, s, m = p.vocab_size, p.branching, p.n_synonyms
    a, b, lca = i, j, 0
    while a != b:
        a //= s
        b //= s
        lca += 1
    # distribution of the LCA node value: uniform at the root, pushed down
    node = i // s**lca
    dist = np.full(v, 1.0 / v)
    path = []
    n = node
    for _ in range(lca, p.depth):
        path.append(n % s)
        n //= s
    for lvl, slot in zip(range(p.depth, lca, -1), reversed(path)):
        dist = dist @ _child_given_parent(rs, lvl, slot)

    # the two leaves share the LCA's production choice: expand jointly
    slot_i = (i // s ** (lca - 1)) % s
    slot_j = (j // s ** (lca - 1)) % s
    table = rs.rules_at(lca)
    pair = np.zeros((v, v, v))  # [g, child_i, child_j]
    for g in range(v):
        for k in range(m):
            pair[g, table[g, k, slot_i], table[g, k, slot_j]] += 1.0 / m

    def down_from(leaf: int, top_level: int) -> np.ndarray:
        out = np.eye(v)
        for lvl in range(top_level, 0, -1):
            slot = (leaf // s ** (lvl - 1)) % s
            out = out @ _child_given_parent(rs, lvl, slot)
        return out

    mi = down_from(i, lca - 1)
    mj = down_from(j, lca - 1)
    return np.einsum("g,gcd,ca,db->ab", dist, pair, mi, mj)


def lloyd_kmeans_oracle(
    points: np.ndarray,
    k: int,
    seed: int,
    n_restarts: int = 16,
    max_iter: int = 200,
    rel_tol: float = 1e-8,
) -> dict:
    """Best-of-restarts k-means with the same seeding, init, tie and re-seat
    rules as ``rhmlab.kmeans_fit``, written as plain per-cluster loops. Every
    restart runs, repeated first points included. Returns the winning fit's
    labels, centers, inertia, n_iter and restart, plus the number of
    empty-cluster re-seats over all restarts and the served distance each
    re-seated point had before it moved."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]

    def sq_dists(centers):
        diff = points[:, None, :] - centers[None, :, :]
        return np.einsum("nkd,nkd->nk", diff, diff)

    firsts = np.random.default_rng(seed).integers(0, n, size=n_restarts)
    best = None
    reseats = 0
    served = []
    for r in range(n_restarts):
        idx = [int(firsts[r])]
        d2 = ((points - points[idx[0]]) ** 2).sum(axis=1)
        for _ in range(k - 1):
            idx.append(int(np.argmax(d2)))
            d2 = np.minimum(d2, ((points - points[idx[-1]]) ** 2).sum(axis=1))
        centers = points[idx].copy()
        prev = np.inf
        it = 0
        for it in range(1, max_iter + 1):
            d2 = sq_dists(centers)
            labels = d2.argmin(axis=1)
            own = d2[np.arange(n), labels]
            for c in range(k):
                if not np.any(labels == c):
                    sizes = np.bincount(labels, minlength=k)
                    order = np.argsort(-own, kind="stable")
                    pick = next(int(i) for i in order if sizes[labels[i]] > 1)
                    labels[pick] = c
                    served.append(float(own[pick]))
                    own[pick] = 0.0
                    reseats += 1
            inertia = float(own.sum())
            for c in range(k):
                mask = labels == c
                if np.any(mask):
                    centers[c] = points[mask].mean(axis=0)
            if prev - inertia <= rel_tol * max(inertia, 1e-300):
                break
            prev = inertia
        d2 = sq_dists(centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        if best is None or inertia < best["inertia"]:
            best = {"labels": labels, "centers": centers, "inertia": inertia,
                    "n_iter": it, "restart": r}
    best["reseats"] = reseats
    best["reseat_served"] = served
    return best


def token_pair_counts_oracle(
    seqs: np.ndarray, branching: int, depth: int, vocab_size: int
) -> np.ndarray:
    """Joint counts of every position pair i < j, in the pair order of
    ``TokenCovarianceAccumulator``, as one bincount over two strided columns
    per pair."""
    v = vocab_size
    d = branching**depth
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    counts = np.zeros((len(pairs), v, v), dtype=np.int64)
    for idx, (i, j) in enumerate(pairs):
        counts[idx] = np.bincount(
            seqs[:, i] * v + seqs[:, j], minlength=v * v
        ).reshape(v, v)
    return counts


def save_dataset_text_oracle(
    seqs: np.ndarray, vocab_size: int, grammar_hash: str, path
) -> None:
    """A dataset text file written with ``np.savetxt(fmt="%d")``."""
    with open(path, "w") as fh:
        fh.write(f"{seqs.shape[1]} {vocab_size} {seqs.shape[0]} {grammar_hash}\n")
        np.savetxt(fh, seqs, fmt="%d")


def load_dataset_text_oracle(path) -> tuple[np.ndarray, dict]:
    """A dataset text file parsed one token at a time in Python."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    d, vocab, n, grammar_hash = lines[0].split()
    seqs = np.array(
        [[int(t) for t in line.split()] for line in lines[1 : int(n) + 1]],
        dtype=np.int32,
    ).reshape(int(n), int(d))
    header = dict(
        seq_len=int(d), vocab_size=int(vocab), n_rows=int(n), grammar_hash=grammar_hash
    )
    return seqs, header
