from conftest import projective_k4, planar_k4, random_rotation_system
from surfwalk.covering_blowup import (
    attach_hedgehog,
    blow_up,
    double_cover,
    hedgehog,
)
from surfwalk.graph_core import SymmetricDigraph, arc_edge
from surfwalk.rotation_system import detect_orientability, trace_faces


def test_cover_counts():
    dc = double_cover(planar_k4())
    assert dc.graph.vertex_count == 8
    assert dc.graph.edge_count == 12
    assert dc.arc_count == 24
    assert dc == double_cover(planar_k4()) != double_cover(projective_k4())
    assert hash(dc) == hash(double_cover(planar_k4()))


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


def test_cover_graph_is_built_only_when_read(monkeypatch):
    rs = projective_k4()
    built = []
    validate = SymmetricDigraph.__post_init__

    def counting(self):
        built.append(self.vertex_count)
        validate(self)

    monkeypatch.setattr(SymmetricDigraph, "__post_init__", counting)
    hedgehog(rs)
    assert built == []
    dc = double_cover(rs)
    assert dc.components == dc.components == 1
    assert built == [8]


def test_blow_up_counts():
    bg = blow_up(double_cover(planar_k4()))
    assert bg.size == 24  # vertices = islands = bridges = tails
    assert attach_hedgehog(bg) is bg


def test_blow_up_compares_and_hashes_by_its_cover():
    bg = hedgehog(projective_k4())
    assert bg == hedgehog(projective_k4())
    assert hash(bg) == hash(hedgehog(projective_k4()))
    assert bg != hedgehog(planar_k4())
    assert len({bg, hedgehog(projective_k4()), hedgehog(planar_k4())}) == 2


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
            # o(xi) = t(br(xi)) with br(xi) = bar[xi] for island arc g.
            assert bg.bar[g] == (g ^ 1)
            assert cg.terminus[bg.bar[g] ^ 1] == cg.origin[bg.bar[g]]
            # is(b) = rot_inv[b] ends at o(b), is_sharp(b) = b starts there;
            # rot(is) = is_sharp.
            assert bg.rot[bg.rot_inv[g]] == g
            assert bg.rot_inv[g] != g


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
    assert bg.size == 24  # one tail per island arc = 2|A|
    # phi(bridge g) = tail on island bar[g]; tail i is fed by bridge bar[i].
    images = {int(bg.bar[g]) for g in range(bg.size)}
    assert images == set(range(bg.size))
    for g in range(bg.size):
        assert bg.bar[bg.bar[g]] == g


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
        assert bg.faces == fd.cover_faces
        # Each base face owns exactly two extended walks, one per chirality.
        by_base = {}
        for base, chiral in fd.cover_base:
            by_base.setdefault(base, []).append(chiral)
        assert sorted(by_base) == list(range(len(fd.faces)))
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
