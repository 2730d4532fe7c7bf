"""The orbit-BFS census, kept as a test oracle for the integer-indexed one.

Every raw system is a (rot, twist) key generated as tuples in raw-index
order; each orbit is found by a BFS that builds a validated RotationSystem
per key and applies every vertex flip, the mirror and every graph
automorphism (found by brute force over all vertex permutations), and is
represented by its first key in that order.  Nothing here calls
``surfwalk.enumeration``.
"""

import itertools

from surfwalk.graph_core import arc_edge
from surfwalk.rotation_system import RotationSystem, flip_vertex, mirror, trace_faces


def brute_force_automorphisms(g):
    """Every adjacency-preserving vertex permutation, trying all n!."""
    adj = {frozenset(e) for e in g.edges()}
    degs = [g.degree(x) for x in range(g.vertex_count)]
    autos = []
    for perm in itertools.permutations(range(g.vertex_count)):
        if any(degs[x] != degs[perm[x]] for x in range(g.vertex_count)):
            continue
        if all(frozenset((perm[u], perm[v])) in adj for u, v in g.edges()):
            autos.append(perm)
    return autos


def apply_automorphism(g, key, perm):
    rot, twist = key
    amap = [g.arc_between(perm[g.origin[e]], perm[g.terminus[e]]) for e in range(g.arc_count)]
    rot2 = [0] * g.arc_count
    for e in range(g.arc_count):
        rot2[amap[e]] = amap[rot[e]]
    twist2 = [0] * g.edge_count
    for e in range(0, g.arc_count, 2):
        twist2[arc_edge(amap[e])] = twist[arc_edge(e)]
    return tuple(rot2), tuple(twist2)


def all_keys(g):
    """Every raw (rot, twist) key, in raw-index order."""
    per_vertex = []
    for x in range(g.vertex_count):
        ax = g.incoming_arcs(x)
        cycles = []
        for perm in itertools.permutations(ax[1:]):
            order = (ax[0],) + perm
            cycles.append(tuple((order[i], order[(i + 1) % len(order)]) for i in range(len(order))))
        per_vertex.append(cycles)
    for combo in itertools.product(*per_vertex):
        rot = [0] * g.arc_count
        for cyc in combo:
            for e, f in cyc:
                rot[e] = f
        rot = tuple(rot)
        for bits in range(2 ** g.edge_count):
            yield rot, tuple((bits >> k) & 1 for k in range(g.edge_count))


def census(g):
    """One record per class, in the library's order: (representative,
    orbit size, orientable, genus, face lengths, self-intersection profile).
    The representative is the orbit's first key in :func:`all_keys` order,
    the key its BFS starts from."""
    autos = brute_force_automorphisms(g)
    seen = set()
    records = []
    for key in all_keys(g):
        if key in seen:
            continue
        orbit = {key}
        stack = [key]
        while stack:
            cur = stack.pop()
            rs = RotationSystem(g, *cur)
            neighbors = [((f := flip_vertex(rs, x)).rot, f.twist) for x in range(g.vertex_count)]
            m = mirror(rs)
            neighbors.append((m.rot, m.twist))
            neighbors.extend(apply_automorphism(g, cur, perm) for perm in autos)
            for nxt in neighbors:
                if nxt not in orbit:
                    orbit.add(nxt)
                    stack.append(nxt)
        seen |= orbit
        rep = RotationSystem(g, *key)
        fd = trace_faces(rep)
        profile = tuple(
            sorted(((len(f), len(hits)) for f, hits in zip(fd.faces, fd.self_intersections)), reverse=True)
        )
        records.append((rep, len(orbit), fd.orientable, fd.genus, fd.face_lengths, profile))
    records.sort(key=lambda r: (not r[2], r[3], r[4], r[5]))
    return records
