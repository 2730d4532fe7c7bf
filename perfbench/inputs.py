"""Seeded input generation for the benchmark.

Nothing here imports surfwalk: the inputs are rotation-system texts and
plain edge lists built from numpy's RNG, so the program under test only
ever sees what this module generated.  The same seed gives byte-identical
inputs, and :func:`digest` fingerprints them so two commits can be shown to
have run on the same data.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

CENSUS_VERTICES = (3, 4, 5, 6)
CENSUS_RAW_LIMIT = 8192
# random_kn_system picks the median of KN_DRAWS draws, traced KN_CHUNK at
# a time to bound memory.
KN_DRAWS = 2048
KN_CHUNK = 32
# random_system_with_faces gives up after this many draws.
MAX_FACE_DRAWS = 1000


def raw_system_count(n: int, edges) -> int:
    """prod (deg - 1)! * 2^|E|: rotations times twist assignments."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return math.prod(math.factorial(d - 1) for d in deg) * 2 ** len(edges)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def census_family() -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Connected simple graphs on 3-6 vertices with minimum degree 2 and at
    most CENSUS_RAW_LIMIT raw rotation systems, one per isomorphism class.

    Brute force: every edge subset of K_n is kept if it passes the filters,
    and keyed by the smallest edge bitmask over all n! relabellings.
    """
    family = []
    for n in CENSUS_VERTICES:
        pairs = list(itertools.combinations(range(n), 2))
        index = {p: k for k, p in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        # weight[p, k]: the bit edge k lands on under relabelling p.
        weight = np.array(
            [[1 << index[tuple(sorted((p[u], p[v])))] for u, v in pairs] for p in perms],
            dtype=np.int64,
        )
        masks = np.arange(1 << len(pairs), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(len(pairs))) & 1
        deg = np.zeros((len(masks), n), dtype=np.int64)
        for k, (u, v) in enumerate(pairs):
            deg[:, u] += bits[:, k]
            deg[:, v] += bits[:, k]
        keep = []
        for m in np.flatnonzero(deg.min(axis=1) >= 2):
            edges = [pairs[k] for k in range(len(pairs)) if bits[m, k]]
            if raw_system_count(n, edges) <= CENSUS_RAW_LIMIT and _connected(n, edges):
                keep.append(m)
        if not keep:
            continue
        canon = (bits[keep] @ weight.T).min(axis=1)
        for c in sorted(set(canon.tolist())):
            family.append((n, tuple(p for k, p in enumerate(pairs) if (c >> k) & 1)))
    return family


def relabel(n: int, edges, rng) -> tuple[tuple[int, int], ...]:
    """An isomorphic copy: random vertex labels and a random edge order."""
    perm = rng.permutation(n)
    out = [tuple(int(x) for x in sorted((perm[u], perm[v]))) for u, v in edges]
    return tuple(out[i] for i in rng.permutation(len(out)))


def random_system(n: int, edges, rng) -> tuple[list[list[int]], list[int]]:
    """Uniform random cyclic neighbour orders and twists on a graph."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    orders = [[int(v) for v in rng.permutation(nb)] for nb in nbrs]
    twists = [int(t) for t in rng.integers(0, 2, len(edges))]
    return orders, twists


def system_text(n: int, edges, orders, twists) -> str:
    """The rotation-system file format read by ``surfwalk``."""
    lines = [f"vertices {n}"]
    lines += [f"edge {u} {v} {t}" for (u, v), t in zip(edges, twists)]
    lines += [f"rotation {x}: " + " ".join(map(str, order)) for x, order in enumerate(orders)]
    return "\n".join(lines) + "\n"


def complete_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n), 2))


def kn_face_counts(n: int, orders: np.ndarray, twists: np.ndarray) -> np.ndarray:
    """Face lengths of many embeddings of K_n at once.

    ``orders`` is (draws, n, n - 1) and ``twists`` is (draws, |E|), with the
    edges as :func:`complete_edges` lists them.  Faces are traced on (arc,
    twist parity) states; arc ``2k`` runs along edge ``k`` as listed and
    ``2k + 1`` runs back.  Row ``d`` of the result holds each face's length
    at the smallest state of its orbit and 0 elsewhere.  Every face is found
    twice (once per sheet), which is also the multiset of face-block sizes
    of the hedgehog.
    """
    draws = orders.shape[0]
    n_arcs = n * (n - 1)
    arc = np.zeros((n, n), dtype=np.int64)
    for k, (u, v) in enumerate(complete_edges(n)):
        arc[u, v], arc[v, u] = 2 * k, 2 * k + 1
    # into[d, x, j] is the arc from orders[d, x, j] into x.
    into = arc[orders, np.arange(n)[:, None]]
    row = np.arange(draws)[:, None, None]
    rot = np.empty((draws, n_arcs), dtype=np.int64)
    rot_inv = np.empty((draws, n_arcs), dtype=np.int64)
    rot[row, into] = np.roll(into, -1, axis=2)
    rot_inv[row, into] = np.roll(into, 1, axis=2)
    # Successor of state (e, s): turn at t(e), leave along the reverse arc
    # and absorb its twist into the parity.
    out0, out1 = rot ^ 1, rot_inv ^ 1
    succ = np.empty((draws, 2 * n_arcs), dtype=np.int64)
    succ[:, 0::2] = 2 * out0 + np.take_along_axis(twists, out0 >> 1, axis=1)
    succ[:, 1::2] = 2 * out1 + (1 ^ np.take_along_axis(twists, out1 >> 1, axis=1))
    # Pointer doubling, on all draws' states numbered one after another,
    # labels every state with the smallest state on its orbit.
    states = 2 * n_arcs * draws
    jump = (succ + 2 * n_arcs * np.arange(draws)[:, None]).ravel()
    label = np.arange(states)
    for _ in range(int(np.ceil(np.log2(2 * n_arcs))) + 1):
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    return np.bincount(label, minlength=states).reshape(draws, 2 * n_arcs)


def face_lengths(n: int, edges, orders, twists) -> list[int]:
    """Face lengths of one embedding, each face listed twice.

    The same walk as :func:`kn_face_counts`, on any graph: states are
    (arc, twist parity), arc ``2k`` runs along edge ``k`` as listed and
    ``2k + 1`` runs back, and each orbit of the successor map is a face on
    one sheet.
    """
    arc = {}
    for k, (u, v) in enumerate(edges):
        arc[u, v], arc[v, u] = 2 * k, 2 * k + 1
    rot, rot_inv = {}, {}
    for x, order in enumerate(orders):
        into = [arc[w, x] for w in order]
        for j, e in enumerate(into):
            rot[e] = into[(j + 1) % len(into)]
            rot_inv[e] = into[j - 1]

    def succ(state):
        e, parity = state >> 1, state & 1
        out = (rot_inv[e] if parity else rot[e]) ^ 1
        return 2 * out + (twists[out >> 1] ^ parity)

    lengths, seen = [], set()
    for state in range(4 * len(edges)):
        length = 0
        while state not in seen:
            seen.add(state)
            state = succ(state)
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths, reverse=True)


def random_system_with_faces(n: int, edges, faces: int, rng):
    """A uniform random system on an isomorphic copy of the graph, drawn
    again until it has the given number of faces: its edges, orders and
    twists."""
    for _ in range(MAX_FACE_DRAWS):
        copy = relabel(n, edges, rng)
        orders, twists = random_system(n, copy, rng)
        if len(face_lengths(n, copy, orders, twists)) == 2 * faces:
            return copy, orders, twists
    raise ValueError(f"no system with {faces} faces in {MAX_FACE_DRAWS} draws")


def random_kn_system(n: int, rng):
    """Of ``KN_DRAWS`` seeded uniform random embeddings of K_n, the one with
    the median cube share.

    The closed forms invert one dense block per face, so their cost grows
    as the cube of the face lengths.  The cube share, sum over faces of
    (length / arcs)^3, is that cost relative to a single face holding every
    arc.  It spreads widely over uniform embeddings (from below 0.1 to 1,
    with its median near 0.5 for K16 to K32), so one random draw would
    make one seed's work several times another's.  The median draw is a
    typical embedding, and the median of many draws moves little from seed
    to seed; a fixed number of draws keeps generation time the same too.
    """
    edges = complete_edges(n)
    nbrs = np.array([[w for w in range(n) if w != x] for x in range(n)])
    orders = rng.permuted(np.broadcast_to(nbrs, (KN_DRAWS, n, n - 1)), axis=2)
    twists = rng.integers(0, 2, (KN_DRAWS, len(edges)))
    shares = []
    for lo in range(0, KN_DRAWS, KN_CHUNK):
        counts = kn_face_counts(n, orders[lo:lo + KN_CHUNK], twists[lo:lo + KN_CHUNK])
        shares.append(((counts / (n * (n - 1))) ** 3).sum(axis=1) / 2)
    pick = int(np.argsort(np.concatenate(shares), kind="stable")[KN_DRAWS // 2])
    return edges, orders[pick].tolist(), twists[pick].tolist()


def d_real_coin_params(rng, magnitude: float) -> dict:
    """Parameters of ``Coin.from_params``: |d| = |a| = magnitude, seeded phases
    and sign."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return {
        "s": sign * magnitude,
        "phi": float(rng.uniform(0.0, 2.0 * np.pi)),
        "beta": float(rng.uniform(0.0, 2.0 * np.pi)),
    }


def digest(inputs) -> str:
    """sha256 of the canonical JSON form of the generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
