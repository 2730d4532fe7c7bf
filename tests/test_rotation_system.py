import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import face_oracle
from conftest import projective_k4, planar_k4, random_rotation_system
from surfwalk.covering_blowup import double_cover, hedgehog
from surfwalk.errors import GraphError
from surfwalk.graph_core import complete_graph, cycle_graph, path_graph
from surfwalk.rotation_system import (
    RotationSystem,
    _flipped,
    detect_orientability,
    flip_vertex,
    mirror,
    trace_faces,
)


def unique_cycle_rotation(g):
    """The only rotation of a graph whose vertices all have degree 2."""
    rot = [0] * g.arc_count
    for x in range(g.vertex_count):
        e0, e1 = g.incoming_arcs(x)
        rot[e0], rot[e1] = e1, e0
    return rot


def test_k4_sphere_faces():
    fd = trace_faces(planar_k4())
    assert fd.face_lengths == (3, 3, 3, 3)
    assert fd.orientable and fd.genus == 0
    assert all(not hits for hits in fd.self_intersections)


def test_twisted_planar_k4_faces():
    fd = trace_faces(projective_k4())
    assert fd.face_lengths == (6, 3, 3)
    assert not fd.orientable
    assert fd.genus == 1
    # Euler count quoted for this system: k = 2 - (|F| - |E| + |V|).
    assert fd.genus == 2 - (len(fd.faces) - 6 + 4)


def test_cycle_graph_planar_faces():
    for n in (3, 5, 8):
        g = cycle_graph(n)
        rs = RotationSystem(g, tuple(unique_cycle_rotation(g)), (0,) * n)
        fd = trace_faces(rs)
        assert fd.face_lengths == (n, n)
        assert fd.orientable and fd.genus == 0


def test_triangle_twist_parity_classes():
    g = cycle_graph(3)
    rot = tuple(unique_cycle_rotation(g))
    seen = {}
    for bits in range(8):
        tw = tuple((bits >> k) & 1 for k in range(3))
        fd = trace_faces(RotationSystem(g, rot, tw))
        seen.setdefault((fd.orientable, fd.genus, fd.face_lengths), 0)
        seen[(fd.orientable, fd.genus, fd.face_lengths)] += 1
    assert seen == {(True, 0, (3, 3)): 4, (False, 1, (6,)): 4}


def test_face_lengths_partition_arcs(rng):
    for _ in range(25):
        rs = random_rotation_system(rng)
        fd = trace_faces(rs)
        assert sum(len(f) for f in fd.faces) == rs.graph.arc_count
        assert len(fd.cover_faces) == 2 * len(fd.faces)
        assert all(len(f) > 2 for f in fd.faces)


def test_euler_parity_bound(rng):
    for _ in range(25):
        rs = random_rotation_system(rng)
        fd = trace_faces(rs)
        g = rs.graph
        chi = g.vertex_count - g.edge_count + len(fd.faces)
        assert chi <= 2
        assert (chi == 2) == (fd.genus == 0 and fd.orientable)


def test_self_intersection_is_edge_property(rng):
    for _ in range(20):
        fd = trace_faces(random_rotation_system(rng))
        for face, hits in zip(fd.faces, fd.self_intersections):
            for edge, (d1, d2) in hits.items():
                assert d1 + d2 == len(face)
                both = [e for e in face if e >> 1 == edge]
                assert len(both) >= 2


def test_flip_vertex_involution():
    rs = projective_k4()
    assert flip_vertex(flip_vertex(rs, 2), 2) == rs


def test_flip_preserves_embedding_invariants(rng):
    for _ in range(20):
        rs = random_rotation_system(rng)
        x = int(rng.integers(rs.graph.vertex_count))
        fd1, fd2 = trace_faces(rs), trace_faces(flip_vertex(rs, x))
        assert fd1.face_lengths == fd2.face_lengths
        assert fd1.orientable == fd2.orientable
        assert fd1.genus == fd2.genus
        prof1 = sorted((len(f), len(h)) for f, h in zip(fd1.faces, fd1.self_intersections))
        prof2 = sorted((len(f), len(h)) for f, h in zip(fd2.faces, fd2.self_intersections))
        assert prof1 == prof2


def test_flip_preserves_closed_walk_parity(rng):
    for _ in range(20):
        rs = random_rotation_system(rng)
        g = rs.graph
        x = int(rng.integers(g.vertex_count))
        flipped = flip_vertex(rs, x)
        # Random closed walk: wander then close along a shortest path; here
        # simply walk an even trip out-and-back plus the walk around a face.
        fd = trace_faces(rs)
        for face in fd.faces:
            p1 = sum(rs.twist[e >> 1] for e in face) % 2
            p2 = sum(flipped.twist[e >> 1] for e in face) % 2
            assert p1 == p2


def test_mirror_involution_and_invariants(rng):
    rs = projective_k4()
    assert mirror(mirror(rs)) == rs
    for _ in range(15):
        rs = random_rotation_system(rng)
        fd1, fd2 = trace_faces(rs), trace_faces(mirror(rs))
        assert fd1.face_lengths == fd2.face_lengths
        assert fd1.orientable == fd2.orientable
        assert fd1.genus == fd2.genus


def _min_rotation(seq):
    best = None
    for k in range(len(seq)):
        cand = seq[k:] + seq[:k]
        if best is None or cand < best:
            best = cand
    return best


def test_mirror_faces_are_reversed_walks():
    fd = trace_faces(planar_k4())
    fdm = trace_faces(mirror(planar_k4()))
    proj = double_cover(fdm.rs).proj
    mirror_walks = {_min_rotation(tuple(proj[c] for c in f)) for f in fdm.cover_faces}
    for face in fd.faces:
        reversed_walk = tuple((e ^ 1) for e in reversed(face))
        assert _min_rotation(reversed_walk) in mirror_walks


def _oracle_systems():
    rng = np.random.default_rng(909)
    yield from (random_rotation_system(rng, max_vertices=7) for _ in range(400))
    for n in range(4, 9):
        yield from (random_rotation_system(rng, complete_graph(n)) for _ in range(20))


def test_trace_faces_matches_state_oracle():
    # The library traces cover arcs and the oracle trace states; the two
    # must agree face by face once the oracle's orbits are lifted.
    count = 0
    for rs in _oracle_systems():
        fd, expect = trace_faces(rs), face_oracle.trace(rs)
        assert list(fd.faces) == expect["faces"]
        assert [list(h.items()) for h in fd.self_intersections] == [
            list(h.items()) for h in expect["self_intersections"]
        ]
        assert (fd.orientable, fd.genus) == (expect["orientable"], expect["genus"])
        lift = double_cover(rs).lift
        at = {lift[s]: (j, p) for j, orbit in enumerate(expect["orbits"]) for p, s in enumerate(orbit)}
        assert len(fd.cover_faces) == len(fd.cover_base) == len(expect["orbits"])
        for walk, label in zip(fd.cover_faces, fd.cover_base):
            j, p = at[walk[0]]
            orbit = expect["orbits"][j]
            assert list(walk) == [lift[orbit[(p + k) % len(orbit)]] for k in range(len(orbit))]
            assert label == expect["cover_base"][j]
        count += 1
    assert count == 500


def test_chiral_tie_goes_to_the_smaller_state():
    # Two faces of this triangle share the arc sequence (0, 4, 3); the one
    # read from the smaller state is face 0.
    rs = random_rotation_system(np.random.default_rng(77), max_vertices=7)
    fd = trace_faces(rs)
    assert fd.faces == ((0, 4, 3), (0, 4, 3))
    assert hedgehog(rs).faces == fd.cover_faces
    assert list(fd.cover_base) == [(1, False), (0, True), (0, False), (1, True)]


def test_detect_orientability_all_zero_twists(rng):
    for _ in range(10):
        rs = random_rotation_system(rng)
        rs0 = RotationSystem(rs.graph, rs.rot, (0,) * rs.graph.edge_count)
        orientable, normalized = detect_orientability(rs0)
        assert orientable
        assert normalized == rs0


def test_detect_orientability_projective_k4():
    orientable, normalized = detect_orientability(projective_k4())
    assert not orientable
    # The normalization never changes the embedding.
    fd1, fd2 = trace_faces(projective_k4()), trace_faces(normalized)
    assert fd1.face_lengths == fd2.face_lengths
    assert fd1.genus == fd2.genus


def _flip_by_flip(rs):
    """Tree normalization one validated vertex flip at a time (the oracle)."""
    g = rs.graph
    seen, queue, out, tree_edges = {0}, [0], rs, set()
    while queue:
        x = queue.pop(0)
        for e in g.incoming_arcs(x):
            y = g.origin[e]
            if y in seen:
                continue
            seen.add(y)
            queue.append(y)
            k = g.arc_between(x, y) >> 1
            tree_edges.add(k)
            if out.twist[k]:
                out = flip_vertex(out, y)
    orientable = all(out.twist[k] == 0 for k in range(g.edge_count) if k not in tree_edges)
    return orientable, out


def test_detect_orientability_matches_flip_by_flip(rng):
    for n in (4, 5, 6, 8, 12):
        for _ in range(6):
            rs = random_rotation_system(rng, graph=complete_graph(n))
            # An orientable system in disguise: untwisted, then flipped at
            # random vertices, so the normalization has tree edges to undo.
            disguised = RotationSystem(rs.graph, rs.rot, (0,) * rs.graph.edge_count)
            for x in rng.choice(n, size=n // 2, replace=False):
                disguised = flip_vertex(disguised, int(x))
            for system in (rs, disguised):
                orientable, normalized = detect_orientability(system)
                assert (orientable, normalized) == _flip_by_flip(system)
                assert orientable == trace_faces(system).orientable
                assert orientable == (double_cover(system).components == 2)
            assert detect_orientability(disguised)[0]


def _orientable_genus(rs):
    fd = trace_faces(rs)
    return fd.orientable, fd.genus


def test_euler_genus_values():
    assert _orientable_genus(planar_k4()) == (True, 0)
    assert _orientable_genus(projective_k4()) == (False, 1)
    g = cycle_graph(4)
    rs = RotationSystem(g, tuple(unique_cycle_rotation(g)), (0,) * 4)
    assert _orientable_genus(rs) == (True, 0)


def test_euler_genus_requires_connected():
    from surfwalk.graph_core import SymmetricDigraph

    g = SymmetricDigraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    rot = unique_cycle_rotation(g)
    rs = RotationSystem(g, tuple(rot), (0,) * 6)
    with pytest.raises(GraphError):
        trace_faces(rs)


def test_rotation_requires_degree_two():
    g = path_graph(3)
    with pytest.raises(GraphError):
        RotationSystem(g, (1, 0, 3, 2), (0, 0))


def test_rotation_rejects_broken_cycles():
    g = complete_graph(4)
    rs = planar_k4()
    rot = list(rs.rot)
    e = g.incoming_arcs(0)[0]
    rot[e] = e  # fixed point
    with pytest.raises(GraphError):
        RotationSystem(g, tuple(rot), rs.twist)


def test_rotation_rejects_arc_ids_out_of_range():
    rs = planar_k4()
    last = rs.graph.arc_count - 1
    e = rs.rot.index(last)
    for bad in (-1, last + 1):
        rot = list(rs.rot)
        rot[e] = bad  # -1 would index the last arc
        with pytest.raises(GraphError, match="outside"):
            RotationSystem(rs.graph, tuple(rot), rs.twist)


def test_rotation_rejects_permutation_leaving_its_vertex():
    rs = planar_k4()
    g = rs.graph
    e0, e1 = g.incoming_arcs(0)[0], g.incoming_arcs(1)[0]
    rot = list(rs.rot)
    rot[e0], rot[e1] = rot[e1], rot[e0]  # still a permutation of all arcs
    with pytest.raises(GraphError, match="leaves A_0"):
        RotationSystem(g, tuple(rot), rs.twist)


def test_rotation_rejects_two_cycles_at_one_vertex():
    g = complete_graph(5)
    rs = RotationSystem.from_neighbor_orders(g, [[w for w in range(5) if w != x] for x in range(5)])
    a, b, c, d = g.incoming_arcs(0)
    rot = list(rs.rot)
    rot[a], rot[b], rot[c], rot[d] = b, a, d, c
    with pytest.raises(GraphError, match="not a single cycle"):
        RotationSystem(g, tuple(rot), rs.twist)


def test_flipped_equals_successive_flips(rng):
    for n in (4, 5, 7):
        for _ in range(8):
            rs = random_rotation_system(rng, complete_graph(n))
            bits = [int(b) for b in rng.integers(0, 2, n)]
            one_by_one = rs
            for x in range(n):
                if bits[x]:
                    one_by_one = flip_vertex(one_by_one, x)
            assert _flipped(rs, bits) == one_by_one


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_face_partition_property(seed):
    rng = np.random.default_rng(seed)
    rs = random_rotation_system(rng, max_vertices=5)
    fd = trace_faces(rs)
    assert sum(len(f) for f in fd.faces) == rs.graph.arc_count
    g = rs.graph
    chi = g.vertex_count - g.edge_count + len(fd.faces)
    assert chi == 2 - (2 * fd.genus if fd.orientable else fd.genus)


def test_mirror_is_flip_of_every_vertex(rng):
    # Why the enumerator needs no mirror generator: flipping every vertex
    # inverts every rotation and toggles each edge's twist twice.
    for n in (4, 5, 6, 7, 8):
        for _ in range(5):
            rs = random_rotation_system(rng, complete_graph(n))
            flipped = rs
            for x in range(n):
                flipped = flip_vertex(flipped, x)
            assert mirror(rs) == flipped
