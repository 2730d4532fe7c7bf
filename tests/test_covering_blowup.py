import numpy as np

from conftest import projective_k4, planar_k4, random_rotation_system
from surfwalk.covering_blowup import (
    attach_hedgehog,
    base_face_map,
    blow_up,
    double_cover,
    hedgehog,
)
from surfwalk.graph_core import arc_edge
from surfwalk.rotation_system import detect_orientability, trace_faces


def test_cover_counts():
    dc = double_cover(planar_k4())
    assert dc.graph.vertex_count == 8
    assert dc.graph.edge_count == 12
    assert dc.arc_count == 24


def test_cover_components_match_orientability(rng):
    assert double_cover(planar_k4()).components == 2
    assert double_cover(projective_k4()).components == 1
    for _ in range(40):
        rs = random_rotation_system(rng)
        orientable, _ = detect_orientability(rs)
        assert (double_cover(rs).components == 2) == orientable


def test_cover_adjacency_follows_twists(rng):
    for _ in range(10):
        rs = random_rotation_system(rng)
        dc = double_cover(rs)
        g, cg = rs.graph, dc.graph
        for c in range(dc.arc_count):
            e = dc.proj[c]
            s = dc.sheet[c]
            assert cg.terminus[c] == 2 * g.terminus[e] + s
            assert cg.origin[c] == 2 * g.origin[e] + (s ^ rs.twist[arc_edge(e)])


def test_cover_rotation_per_sheet():
    rs = planar_k4()
    dc = double_cover(rs)
    rot_inv = rs.rot_inverse()
    for c in range(dc.arc_count):
        e, s = dc.proj[c], dc.sheet[c]
        expect = rs.rot[e] if s == 0 else rot_inv[e]
        assert dc.proj[dc.rot[c]] == expect
        assert dc.sheet[dc.rot[c]] == s


def test_blow_up_counts():
    bg = blow_up(double_cover(planar_k4()))
    assert bg.size == 24  # vertices = islands = bridges
    assert not bg.hedgehog
    assert attach_hedgehog(bg).hedgehog


def test_islands_are_rotation_cycles():
    rs = planar_k4()
    dc = double_cover(rs)
    bg = blow_up(dc)
    # Blow-up vertices on one island = incoming cover arcs of one cover
    # vertex; the island arcs chain them along the rotation.
    for x in range(dc.graph.vertex_count):
        members = [c for c in range(dc.arc_count) if dc.graph.terminus[c] == x]
        assert len(members) == 3  # K4 is cubic
        c = members[0]
        cycle = [c]
        while bg.rot[cycle[-1]] != c:
            cycle.append(int(bg.rot[cycle[-1]]))
        assert sorted(cycle) == sorted(members)


def test_incidence_map_relations(rng):
    for _ in range(10):
        rs = random_rotation_system(rng)
        bg = blow_up(double_cover(rs))
        cg = bg.cover.graph
        for g in range(bg.size):
            # o(xi) = t(br(xi)), t(xi) = t(br_sharp(xi)) for island arc g.
            assert bg.br(g) == (g ^ 1)
            assert cg.terminus[bg.br(g) ^ 1] == cg.origin[bg.br(g)]
            # is(b) ends at o(b), is_sharp(b) starts there; rot(is) = is_sharp.
            assert bg.rot[bg.is_(g)] == bg.is_sharp(g)
            assert bg.is_(g) != bg.is_sharp(g)


def test_extended_walks_cover_everything_once(rng):
    for _ in range(10):
        rs = random_rotation_system(rng)
        bg = blow_up(double_cover(rs))
        islands = [g for face in bg.faces for g in face]
        assert sorted(islands) == list(range(bg.size))
        bridges = [int(bg.bar[g]) for face in bg.faces for g in face]
        assert sorted(bridges) == list(range(bg.size))
        # Successive islands are joined by the bridge into the next one.
        for face in bg.faces:
            for j, g in enumerate(face):
                nxt = face[(j + 1) % len(face)]
                assert bg.rot[g] == bg.bar[nxt]


def test_hedgehog_tail_count_and_phi_bijection():
    bg = hedgehog(projective_k4())
    tails = bg.boundary_islands()
    assert len(tails) == 24  # one per island arc = 2|A|
    images = {bg.tail_of_bridge(g) for g in range(bg.size)}
    assert images == set(range(bg.size))
    for g in range(bg.size):
        assert bg.bridge_of_tail(bg.tail_of_bridge(g)) == g


def test_quay_sits_on_one_face():
    bg = hedgehog(projective_k4())
    owner = {}
    for i, face in enumerate(bg.faces):
        for g in face:
            assert g not in owner
            owner[g] = i
    assert len(owner) == bg.size


def test_blow_up_faces_match_base_decomposition(rng):
    for _ in range(10):
        rs = random_rotation_system(rng)
        fd = trace_faces(rs)
        bg = blow_up(double_cover(rs))
        assert sorted(len(f) for f in bg.faces) == sorted(len(f) for f in fd.cover_faces)
        for s in range(2 * rs.graph.arc_count):
            i, p = fd.face_of(s)
            assert fd.cover_faces[i][p] == s
        # Each extended walk is the lift of one traced orbit, step by step.
        dc = bg.cover
        for face in bg.faces:
            i, p = fd.face_of(dc.arc_to_state(face[0]))
            orbit = fd.cover_faces[i]
            assert len(face) == len(orbit)
            assert list(face) == [dc.lift[orbit[(p + k) % len(orbit)]] for k in range(len(face))]
        labels = base_face_map(bg, fd)
        # Each base face owns exactly two extended walks, one per chirality.
        by_base = {}
        for base, chiral in labels:
            by_base.setdefault(base, []).append(chiral)
        assert all(sorted(v) == [False, True] for v in by_base.values())


def test_bridge_twists_project_to_base():
    rs = projective_k4()
    bg = blow_up(double_cover(rs))
    for g in range(bg.size):
        e = bg.cover.proj[g]
        assert bg.bridge_twist[g] == rs.twist[arc_edge(e)]
        assert bg.bridge_twist[g] == bg.bridge_twist[bg.bar[g]]
    # One twisted base edge: two arcs, each with two lifts.
    assert int(bg.bridge_twist.sum()) == 4
