import inspect
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import face_oracle
import parse_oracle
from conftest import decomposition_fields, projective_k4, planar_k4, random_rotation_system
import surfwalk
from surfwalk import fileformat
from surfwalk.covering_blowup import double_cover, hedgehog
from surfwalk.enumeration import enumerate_embeddings
from surfwalk.errors import GraphError
from surfwalk.fileformat import parse_rotation_system, serialize_rotation_system
from surfwalk.graph_core import SymmetricDigraph, complete_graph, cycle_graph, path_graph
from surfwalk.rotation_system import (
    RotationSystem,
    _cover_walks,
    _decompose,
    _flipped,
    detect_orientability,
    flip_vertex,
    mirror,
    trace_batch,
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
        assert len(hedgehog(rs).faces) == 2 * len(fd.faces)
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
    mirror_walks = {_min_rotation(tuple(proj[c] for c in f)) for f in hedgehog(fdm.rs).faces}
    for face in fd.faces:
        reversed_walk = tuple((e ^ 1) for e in reversed(face))
        assert _min_rotation(reversed_walk) in mirror_walks


def _oracle_systems():
    rng = np.random.default_rng(909)
    yield from (random_rotation_system(rng, max_vertices=7) for _ in range(400))
    for n in range(4, 9):
        yield from (random_rotation_system(rng, complete_graph(n)) for _ in range(20))


def test_permutation_cycles_start_at_their_smallest_element():
    succ = [3, 0, 2, 4, 1, 6, 5]
    cycles, cycle_of, position = face_oracle.permutation_cycles(succ)
    assert cycles == [[0, 3, 4, 1], [2], [5, 6]]
    for x in range(len(succ)):
        assert cycles[cycle_of[x]][position[x]] == x
    for bad in ([1, 1, 0], [1, 2, 1]):
        with pytest.raises(GraphError, match="not a permutation"):
            face_oracle.permutation_cycles(bad)


def test_neighbor_orders_start_each_rho_cycle_at_the_smallest_arc(rng):
    for rs in [planar_k4(), projective_k4()] + [random_rotation_system(rng) for _ in range(40)]:
        g = rs.graph
        cycles, cycle_of, _ = face_oracle.permutation_cycles(rs.rot)
        expect = [[g.origin[e] for e in cycles[cycle_of[min(g.incoming_arcs(x))]]] for x in range(g.vertex_count)]
        assert rs.neighbor_orders() == expect


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
        walks = hedgehog(rs).faces
        assert len(walks) == len(fd.cover_base) == len(expect["orbits"])
        for walk, label in zip(walks, fd.cover_base):
            j, p = at[walk[0]]
            orbit = expect["orbits"][j]
            assert list(walk) == [lift[orbit[(p + k) % len(orbit)]] for k in range(len(orbit))]
            assert label == expect["cover_base"][j]
        count += 1
    assert count == 500


@pytest.mark.parametrize("n", range(4, 11))
def test_batch_trace_is_the_per_system_trace(n):
    rng = np.random.default_rng(4000 + n)
    systems = [random_rotation_system(rng, complete_graph(n)) for _ in range(12)]
    # Some untwisted copies, so orientable and non-orientable rows mix.
    systems += [RotationSystem(rs.graph, rs.rot, (0,) * rs.graph.edge_count) for rs in systems[:4]]
    batch = trace_batch(systems)
    # The batch fills no trace memo of its systems.
    assert not any("_cover" in vars(rs) or "_walks" in vars(rs) for rs in systems)
    assert [fd.rs for fd in batch] == systems
    fields = [decomposition_fields(fd) for fd in batch]
    assert fields == [decomposition_fields(trace_faces(rs)) for rs in systems]
    for fd in batch:
        expect = face_oracle.trace(fd.rs)
        assert (list(fd.faces), fd.orientable, fd.genus) == (expect["faces"], expect["orientable"], expect["genus"])
    # A system's trace does not depend on the rest of its batch.
    assert [decomposition_fields(fd) for fd in trace_batch(systems[::-1])] == fields[::-1]
    assert [decomposition_fields(fd) for fd in trace_batch(systems[3:4])] == fields[3:4]


def test_empty_batch_traces_nothing():
    assert trace_batch([]) == []


def test_batch_rejects_systems_of_two_graphs():
    with pytest.raises(GraphError, match="^a batch traces systems of one graph$"):
        trace_batch([planar_k4(), random_rotation_system(np.random.default_rng(5), complete_graph(5))])


def test_batch_rejects_a_disconnected_graph_as_the_single_trace_does():
    g = SymmetricDigraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    rot = tuple(unique_cycle_rotation(g))
    systems = [RotationSystem(g, rot, (0,) * 6), RotationSystem(g, rot, (1, 0, 0, 0, 0, 1))]
    message = "^orientability and genus need a connected graph$"
    with pytest.raises(GraphError, match=message):
        trace_faces(systems[1])
    with pytest.raises(GraphError, match=message):
        trace_batch(systems)


def test_a_self_paired_walk_is_rejected():
    # No rotation system has a walk that is its own chiral reverse: such a
    # walk would hold an arc c whose successor is c ^ 3, so the cover
    # rotation would send c to c ^ 2, across the sheets it keeps apart.  So
    # the guard is driven with a doctored walk set: one walk of planar K4
    # joined to its chiral partner into one cycle.
    rs = planar_k4()
    walks = list(hedgehog(rs).faces)
    first = walks.pop(0)
    partner = next(w for w in walks if first[0] ^ 3 in w)
    walks.remove(partner)
    succ = list(range(rs.graph.arc_count * 2))
    for walk in walks + [first + partner]:
        for c, d in zip(walk, walk[1:] + walk[:1]):
            succ[c] = d
    _, lift, state = rs._cover
    doctored = _cover_walks(np.array(succ) ^ 1, len(succ))
    with pytest.raises(GraphError, match="^facial walk equals its own chiral reverse$"):
        _decompose([rs], np.array([rs.twist]), lift, state, doctored)


def _trace_peak(n):
    """The tracemalloc peak of trace_faces on a fresh copy of a seeded random
    K_n system, and its arc count; one untraced trace runs first."""
    rs = random_rotation_system(np.random.default_rng(101), graph=complete_graph(n))
    trace_faces(RotationSystem(rs.graph, rs.rot, rs.twist))
    fresh = RotationSystem(rs.graph, rs.rot, rs.twist)
    tracemalloc.start()
    try:
        trace_faces(fresh)
        return tracemalloc.get_traced_memory()[1], rs.graph.arc_count
    finally:
        tracemalloc.stop()


def test_trace_memory_follows_the_arcs():
    # Pointer doubling keeps one key and one jump array per round, not one
    # per round: from K16 to K32 the peak grows at most twice as fast as the
    # arcs, and at K64 (4,032 arcs) it stays under 4 MB.
    (peak16, arcs16), (peak32, arcs32) = _trace_peak(16), _trace_peak(32)
    assert (arcs16, arcs32) == (240, 992)
    assert peak32 <= 2 * peak16 * arcs32 / arcs16
    peak64, _ = _trace_peak(64)
    assert peak64 < 4e6


def test_chiral_tie_goes_to_the_smaller_state():
    # Two faces of this triangle share the arc sequence (0, 4, 3); the one
    # read from the smaller state is face 0.
    rs = random_rotation_system(np.random.default_rng(77), max_vertices=7)
    fd = trace_faces(rs)
    assert fd.faces == ((0, 4, 3), (0, 4, 3))
    assert list(fd.cover_base) == [(1, False), (0, True), (0, False), (1, True)]
    # The representative of face 0 is the walk whose smallest state is the
    # smaller one (state = 2 * base arc + sheet).
    dc = double_cover(rs)
    state = 2 * dc.proj + dc.sheet
    smallest = {label: min(state[list(walk)]) for walk, label in zip(hedgehog(rs).faces, fd.cover_base)}
    assert smallest[(0, False)] < smallest[(1, False)]


def test_decompositions_hash_and_compare_by_their_system(k4_classes):
    systems = [cls.representative for cls in k4_classes]
    for cls, rs in zip(k4_classes, systems):
        fd = trace_faces(rs)
        assert fd == cls.decomposition and hash(fd) == hash(cls.decomposition)
        # A vertex flip keeps the surface and changes the system.
        other = trace_faces(flip_vertex(rs, 0))
        assert (other.genus, other.orientable, other.face_lengths) == (fd.genus, fd.orientable, fd.face_lengths)
        assert other != fd
    traced = {trace_faces(rs) for rs in systems + systems} | {cls.decomposition for cls in k4_classes}
    assert len(traced) == len(systems) == len(set(k4_classes))
    assert {fd.rs for fd in traced} == set(systems)


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


def _grid(m):
    """The m x m grid graph: every vertex has degree 2 to 4."""
    edges = [(m * i + j, m * i + j + 1) for i in range(m) for j in range(m - 1)]
    edges += [(m * i + j, m * (i + 1) + j) for i in range(m - 1) for j in range(m)]
    return SymmetricDigraph.from_edges(m * m, edges)


def test_detect_orientability_matches_flip_by_flip_on_deep_trees(rng):
    # Breadth-first trees of depth 2 to 12, so the flips take several
    # rounds of pointer jumping.
    for g in [cycle_graph(n) for n in (5, 9, 16, 25)] + [_grid(m) for m in (3, 5, 7)]:
        for _ in range(4):
            rs = random_rotation_system(rng, graph=g)
            disguised = RotationSystem(g, rs.rot, (0,) * g.edge_count)
            for x in rng.choice(g.vertex_count, size=g.vertex_count // 2, replace=False):
                disguised = flip_vertex(disguised, int(x))
            for system in (rs, disguised):
                orientable, normalized = detect_orientability(system)
                assert (orientable, normalized) == _flip_by_flip(system)
                assert orientable == trace_faces(system).orientable == face_oracle.orientable(system)
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


def _rotation(g, cycles):
    """The rotation with the given cycles of arcs; arcs not named are fixed."""
    rot = list(range(g.arc_count))
    for cycle in cycles:
        for i, e in enumerate(cycle):
            rot[e] = cycle[(i + 1) % len(cycle)]
    return tuple(rot)


def _split(g, x):
    """Two cycles at vertex x: its first two arcs, and the rest."""
    ax = g.incoming_arcs(x)
    return [ax[:2], ax[2:]]


def _whole_but(g, *skip):
    """One cycle through the arcs of each vertex not in ``skip``."""
    return [g.incoming_arcs(x) for x in range(g.vertex_count) if x not in skip]


def _swapped(g, rot, x, y):
    """rot with the images of the first arcs of x and y exchanged."""
    rot = list(rot)
    e, f = g.incoming_arcs(x)[0], g.incoming_arcs(y)[0]
    rot[e], rot[f] = rot[f], rot[e]
    return tuple(rot)


def _pendant_k5(pendant):
    """K5 on the vertices other than ``pendant``, plus one edge to it."""
    rest = [x for x in range(6) if x != pendant]
    edges = [(u, v) for i, u in enumerate(rest) for v in rest[i + 1 :]]
    return SymmetricDigraph.from_edges(6, [(pendant, rest[0])] + edges)


def _bad_rotation_cases():
    k5 = complete_graph(5)
    yield "two low degrees", path_graph(4), tuple(range(6)), "vertex 0 has degree 1; "
    leave = _swapped(k5, _swapped(k5, _rotation(k5, _whole_but(k5)), 0, 1), 2, 3)
    yield "two leaving", k5, leave, f"rotation leaves A_0 at arc {k5.incoming_arcs(0)[0]}"
    split = _rotation(k5, _split(k5, 1) + _split(k5, 3) + _whole_but(k5, 1, 3))
    yield "two split", k5, split, "rotation at vertex 1 is not a single cycle"
    leave_then_split = _swapped(k5, _rotation(k5, _split(k5, 4) + _whole_but(k5, 4)), 1, 2)
    yield "leave, split", k5, leave_then_split, f"rotation leaves A_1 at arc {k5.incoming_arcs(1)[0]}"
    split_then_leave = _swapped(k5, _rotation(k5, _split(k5, 1) + _whole_but(k5, 1)), 3, 4)
    yield "split, leave", k5, split_then_leave, "rotation at vertex 1 is not a single cycle"
    g = _pendant_k5(5)
    yield "split, degree", g, _rotation(g, _split(g, 1) + _whole_but(g, 1)), "rotation at vertex 1 is not a single cycle"
    g = _pendant_k5(0)
    yield "degree, split", g, _rotation(g, _split(g, 2) + _whole_but(g, 2)), "vertex 0 has degree 1; "
    g = _pendant_k5(4)
    leave = _swapped(g, _rotation(g, _whole_but(g)), 0, 1)
    yield "leave, degree", g, leave, f"rotation leaves A_0 at arc {g.incoming_arcs(0)[0]}"


@pytest.mark.parametrize("case", list(_bad_rotation_cases()), ids=lambda case: case[0])
def test_first_bad_vertex_is_named(case):
    _, g, rot, message = case
    with pytest.raises(GraphError) as err:
        RotationSystem(g, rot, (0,) * g.edge_count)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda rs: flip_vertex(rs, 4), "unknown vertex 4"),
        (lambda rs: RotationSystem(rs.graph, rs.rot[:-1], rs.twist), "rotation must cover every arc"),
        (lambda rs: RotationSystem(rs.graph, rs.rot, rs.twist[:-1]), "twist must cover every edge"),
        (lambda rs: RotationSystem(rs.graph, rs.rot, (2,) + rs.twist[1:]), "twists must be 0 or 1"),
    ],
    ids=["flip-unknown-vertex", "short-rot", "short-twist", "twist-of-2"],
)
def test_invalid_input_raises_graph_error(build, message):
    with pytest.raises(GraphError) as err:
        build(planar_k4())
    assert err.type is GraphError
    assert str(err.value) == message


def _rotation_or_error(build):
    try:
        return build()
    except GraphError as exc:
        return str(exc)


def test_neighbor_lookup_matches_the_vertex_loop(rng):
    # Cyclic neighbour lists on seeded graphs, most often right and
    # otherwise with one list broken (a neighbour swapped for a stranger, a
    # repeat, a drop, an extra) or the list count off by one, against the
    # per-vertex loop of tests/parse_oracle.py.
    for _ in range(600):
        rs = random_rotation_system(rng, max_vertices=7)
        g = rs.graph
        orders = rs.neighbor_orders()
        kind = int(rng.integers(8))
        x = int(rng.integers(g.vertex_count))
        stranger = int(rng.integers(-1, g.vertex_count + 2))
        if kind == 1:
            orders[x][int(rng.integers(len(orders[x])))] = stranger
        elif kind == 2:
            orders[x][0] = orders[x][-1]
        elif kind == 3:
            orders[x].pop()
        elif kind == 4:
            orders[x].append(stranger)
        elif kind == 5:
            orders.append(list(orders[0]))
        elif kind == 6:
            orders.pop()
        got = _rotation_or_error(lambda: RotationSystem.from_neighbor_orders(g, orders, rs.twist))
        want = _rotation_or_error(lambda: parse_oracle.neighbor_rotation(g.origin, g._incoming, orders))
        if isinstance(want, str):
            assert got == want
        else:
            assert got == _rotation_or_error(lambda: RotationSystem(g, tuple(want), rs.twist))
            if kind == 0:
                assert got == rs


def _fault(build):
    """The message of the GraphError ``build()`` raises, or None."""
    try:
        build()
    except GraphError as exc:
        return str(exc)
    return None


def _any_graph(rng):
    """A graph on up to 6 vertices whose edges are drawn at random, so that
    some vertices may have degree 0 or 1, with at least one edge."""
    while True:
        n = int(rng.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if pairs:
            return SymmetricDigraph.from_edges(n, pairs)


def _perturbed(rng, g):
    """A rotation of ``g`` (one random cycle per vertex) and its twists,
    most often broken in one to three of the ways the check names."""
    rot = list(range(g.arc_count))
    for x in range(g.vertex_count):
        ax = [int(e) for e in rng.permutation(g.incoming_arcs(x))]
        for i, e in enumerate(ax):
            rot[e] = ax[(i + 1) % len(ax)]
    twist = [int(t) for t in rng.integers(0, 2, g.edge_count)]
    for _ in range(int(rng.integers(0, 4))):
        e, f = (int(a) for a in rng.integers(g.arc_count, size=2))
        kind = int(rng.integers(5))
        if kind == 0:  # may leave a vertex, or split a cycle
            rot[e], rot[f] = rot[f], rot[e]
        elif kind == 1:  # no permutation
            rot[e] = rot[f]
        elif kind == 2:  # outside the arcs, now and then
            rot[e] = int(rng.integers(-2, g.arc_count + 2))
        elif kind == 3:  # a fixed point, or a cycle cut short
            rot[e] = e if rng.random() < 0.5 else rot[rot[e] % g.arc_count]
        else:
            twist[int(rng.integers(g.edge_count))] = int(rng.integers(-1, 3))
    return rot, twist


def test_row_check_matches_the_vertex_loop(rng):
    # The array check names the fault the per-vertex loop of
    # tests/parse_oracle.py named first, on random and broken rotations.
    faults = set()
    for _ in range(1500):
        g = _any_graph(rng) if rng.random() < 0.3 else random_rotation_system(rng, max_vertices=7).graph
        rot, twist = _perturbed(rng, g)
        want = _fault(lambda: parse_oracle.check_rotation(g, rot, twist))
        assert _fault(lambda: RotationSystem(g, tuple(rot), tuple(twist))) == want, (g, rot, twist)
        assert _fault(lambda: RotationSystem(g, np.array(rot), np.array(twist))) == want
        faults.add(want and re.sub(r"\d+", "#", want.split(";")[0]))
    # Every kind of fault, and sound systems, came up.
    assert faults == {
        None,
        "twists must be # or #",
        "rotation names an arc outside #..#",
        "successor map is not a permutation",
        "vertex # has degree #",
        "rotation leaves A_# at arc #",
        "rotation at vertex # is not a single cycle",
    }


def test_a_batch_names_the_fault_of_its_first_faulty_row(rng):
    for _ in range(300):
        g = random_rotation_system(rng, max_vertices=6).graph
        rows = [_perturbed(rng, g) if rng.random() < 0.3 else _sound(rng, g) for _ in range(int(rng.integers(1, 6)))]
        rot, twist = np.array([r for r, _ in rows]), np.array([t for _, t in rows])
        alone = [_fault(lambda: RotationSystem(g, tuple(r), tuple(t))) for r, t in rows]
        first = next((fault for fault in alone if fault is not None), None)
        assert _fault(lambda: RotationSystem.from_rows(g, rot, twist)) == first
        if first is None:
            systems = RotationSystem.from_rows(g, rot, twist)
            assert systems == [RotationSystem(g, tuple(r), tuple(t)) for r, t in rows]


def _sound(rng, g):
    rs = random_rotation_system(rng, g)
    return list(rs.rot), [int(t) for t in rng.integers(0, 2, g.edge_count)]


def test_batch_rows_are_kept_as_read_only_views():
    rs = projective_k4()
    rot, twist = np.array([rs.rot, mirror(rs).rot]), np.array([rs.twist, rs.twist])
    systems = RotationSystem.from_rows(rs.graph, rot, twist)
    assert systems == [rs, mirror(rs)]
    for i, system in enumerate(systems):
        assert np.shares_memory(system.rot_array, rot) and system.rot_array.tolist() == list(system.rot)
        assert np.shares_memory(system.twist_array, twist) and not system.rot_array.flags.writeable
        assert {type(i) for i in system.rot + system.twist} == {int}
    assert not rot.flags.writeable and not twist.flags.writeable
    with pytest.raises(GraphError, match="^rotation must cover every arc$"):
        RotationSystem.from_rows(rs.graph, rot[:, 1:], twist)
    with pytest.raises(GraphError, match="^twist must cover every edge$"):
        RotationSystem.from_rows(rs.graph, rot, twist[:1])
    with pytest.raises(GraphError, match="^from_rows takes integer arrays$"):
        RotationSystem.from_rows(rs.graph, rot.astype(float), twist)
    assert RotationSystem.from_rows(rs.graph, rot[:0], twist[:0]) == []


def test_census_checks_every_class_in_one_batch(monkeypatch):
    # The classes are validated by the batch check, not one by one, and
    # each keeps its rows of the census's arrays.
    built = []
    post_init = RotationSystem.__post_init__
    monkeypatch.setattr(RotationSystem, "__post_init__", lambda rs: built.append(rs) or post_init(rs))
    classes = enumerate_embeddings(complete_graph(4))
    assert len(classes) == 11 and built == []
    monkeypatch.undo()
    systems = [c.decomposition.rs for c in classes]
    assert all(np.shares_memory(rs.rot_array, systems[0].rot_array.base) for rs in systems)
    assert systems == [RotationSystem(rs.graph, rs.rot, rs.twist) for rs in systems]


def test_kept_arrays_are_read_only_and_out_of_equality_hash_and_pickles():
    rs = projective_k4()
    assert rs.rot_array.dtype == np.int64 and rs.rot_array.tolist() == list(rs.rot)
    assert rs.twist_array.dtype == np.int64 and rs.twist_array.tolist() == list(rs.twist)
    for a in (rs.rot_array, rs.twist_array):
        with pytest.raises(ValueError):
            a[0] = 1
    # A system built from the tuples is validated from the arrays it forms
    # once; one built from those arrays keeps them.
    from_tuples = RotationSystem(rs.graph, rs.rot, rs.twist)
    from_arrays = RotationSystem(rs.graph, rs.rot_array, rs.twist_array)
    assert from_arrays.rot_array is rs.rot_array and from_arrays.twist_array is rs.twist_array
    assert from_tuples == from_arrays == rs and hash(from_tuples) == hash(from_arrays) == hash(rs)
    assert repr(from_tuples) == repr(from_arrays)
    before = pickle.dumps(from_tuples)
    trace_faces(from_tuples), hedgehog(from_tuples)
    assert pickle.dumps(from_tuples) == before == pickle.dumps(from_arrays)
    clone = pickle.loads(before)
    # A restored system derives its arrays again, on first read.
    assert clone == rs and hash(clone) == hash(rs) and "rot_array" not in vars(clone)
    assert clone.rot_array is not rs.rot_array and clone.rot_array.tolist() == list(rs.rot)
    assert clone.twist_array.tolist() == list(rs.twist) and not clone.twist_array.flags.writeable
    assert decomposition_fields(trace_faces(clone)) == decomposition_fields(trace_faces(rs))


def test_parsed_system_keeps_the_parsers_rotation_array(monkeypatch):
    made = []
    rotation = fileformat._rotation
    monkeypatch.setattr(fileformat, "_rotation", lambda *args: made.append(rotation(*args)) or made[-1])
    rs = parse_rotation_system(serialize_rotation_system(projective_k4()))
    assert rs == projective_k4()
    assert rs.rot_array is made[0] and np.shares_memory(rs.rot_array, made[0])
    assert not made[0].flags.writeable


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda rs: RotationSystem(rs.graph, rs.rot, (1.0,) + rs.twist[1:]), "twists must be 0 or 1"),
        (lambda rs: RotationSystem(rs.graph, rs.rot, np.array(rs.twist, dtype=float)), "twists must be 0 or 1"),
        (lambda rs: RotationSystem(rs.graph, rs.rot, ("1",) + rs.twist[1:]), "twists must be 0 or 1"),
        (
            lambda rs: RotationSystem(rs.graph, rs.rot[:3] + (float(rs.rot[3]),) + rs.rot[4:], rs.twist),
            "rotation entry {r3:.1f} at arc 3 is not an integer",
        ),
        (
            lambda rs: RotationSystem(rs.graph, np.array(rs.rot, dtype=float), rs.twist),
            "rotation entry {r0:.1f} at arc 0 is not an integer",
        ),
        (lambda rs: RotationSystem(rs.graph, rs.rot[:-1] + (2**64,), rs.twist), "rotation names an arc outside 0..11"),
    ],
    ids=["float-twist", "float-twist-array", "string-twist", "float-rot", "float-rot-array", "rot-beyond-int64"],
)
def test_entries_that_are_no_integers_are_rejected_at_construction(build, message):
    rs = projective_k4()
    with pytest.raises(GraphError) as err:
        build(rs)
    assert str(err.value) == message.format(r0=rs.rot[0], r3=rs.rot[3])


def test_bool_twists_work_as_ints():
    rs = projective_k4()
    flags = RotationSystem(rs.graph, rs.rot, tuple(bool(t) for t in rs.twist))
    assert flags.twist == (True, False, False, False, False, False)
    assert flags == rs and flags.twist_array.tolist() == list(rs.twist)
    assert decomposition_fields(trace_faces(flags)) == decomposition_fields(trace_faces(rs))
    assert detect_orientability(flags) == detect_orientability(rs)


SRC = Path(surfwalk.__file__).parent
# np.<any function>([x.]...rot or twist, or a comprehension over systems'
# rot or twist: a conversion of a system's tuples to an array.
_CONVERSION = re.compile(r"np\.\w+\(\[?[A-Za-z_.]*\.(rot|twist)\b|\.(rot|twist) for \w+ in")


def test_src_converts_rot_and_twist_only_in_their_memos():
    memos = {
        line.strip()
        for name in ("rot_array", "twist_array")
        for line in inspect.getsource(RotationSystem.__dict__[name].func).splitlines()
    }
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if _CONVERSION.search(line) and not (path.name == "rotation_system.py" and line.strip() in memos)
    ]
    assert found == []
    # The pattern finds the conversions the arrays replace.
    assert all(_CONVERSION.search(line) for line in ("np.array([rs.twist])", "np.array(dc.base.twist, dtype=np.int64)"))
    assert _CONVERSION.search("np.array([rs.rot for rs in systems])")
