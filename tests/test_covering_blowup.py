import dataclasses
import pickle
import sys

import numpy as np
import pytest

import index_oracle
from conftest import grid_graph, planar_grid, projective_k4, planar_k4, random_rotation_system
from surfwalk import rotation_system
from surfwalk.comfortability import average_by_enumeration
from surfwalk.covering_blowup import (
    attach_hedgehog,
    blow_up,
    double_cover,
    hedgehog,
)
from surfwalk.errors import GraphError
from surfwalk.graph_core import SymmetricDigraph, arc_edge, complete_graph
from surfwalk.rotation_system import detect_orientability, mirror, trace_faces
from surfwalk.scattering import scattering_matrix
from surfwalk.walk_dynamics import Coin


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
    rot_inv = mirror(rs).rot
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


def _arrays(x) -> list[np.ndarray]:
    """The arrays of a nest of tuples, in order."""
    return [x] if isinstance(x, np.ndarray) else [a for y in x for a in _arrays(y)]


def test_hedgehog_is_built_once_and_read_only():
    rs = projective_k4()
    bg = hedgehog(rs)
    assert hedgehog(rs) is bg
    # A fresh system gets its own graph, equal to the shared one.
    fresh = hedgehog(projective_k4())
    assert fresh is not bg and fresh == bg
    arrays = [bg.rot, bg.rot_inv, bg.bar, bg.bridge_twist, bg.bridge_sign]
    arrays += _arrays([bg.face_layout, bg.face_index, bg.gram_index, bg.same_face_pairs])
    arrays += [blow_up(double_cover(rs)).bar]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0


def test_face_layout_is_shared_and_follows_the_twists():
    bg = hedgehog(projective_k4())
    tails, offsets, parity = bg.face_layout
    assert bg.face_layout[0] is tails
    assert sorted(tails.tolist()) == list(range(bg.size))
    assert [len(face) for face in bg.faces] == np.diff(offsets).tolist()
    assert tails.tolist() == [t for face in bg.faces for t in face]
    # P_j: the twist parity along each face, restarted at its first tail.
    expected = [int(sum(bg.bridge_twist[list(face[: j + 1])]) % 2) for face in bg.faces for j in range(len(face))]
    assert parity.tolist() == expected
    for coin in (Coin.hadamard_type(), Coin.real_symmetric(0.3)):
        s = scattering_matrix(bg, coin)
        assert s.tails is tails and s.offsets is offsets and s.parity is parity
    # A graph rebuilt with the bridges into the first two tails of face 0
    # flipped derives its own layout: P_0 flips and the face stays even.
    twist = bg.bridge_twist.copy()
    twist[list(bg.faces[0][:2])] ^= 1
    other = dataclasses.replace(bg, bridge_twist=twist, bridge_sign=1.0 - 2.0 * twist)
    assert other.face_layout[2].tolist() == [1 - parity[0]] + parity[1:].tolist()
    # With one of them flipped, face 0 has odd twist parity and is refused.
    twist[bg.faces[0][1]] ^= 1
    odd = dataclasses.replace(bg, bridge_twist=twist, bridge_sign=1.0 - 2.0 * twist)
    with pytest.raises(GraphError, match="face 0 crosses an odd number"):
        odd.face_layout


def test_face_layout_reads_the_traced_walks(k4_classes):
    rng = np.random.default_rng(29)
    systems = [c.representative for c in k4_classes]
    systems += [random_rotation_system(rng, complete_graph(n)) for n in (5, 8, 12)]
    systems += [random_rotation_system(rng, grid_graph(6)), planar_grid(5)]
    for rs in systems:
        bg = hedgehog(rs)
        arrays = bg.face_layout + bg.face_index
        for mine, expected in zip(arrays, index_oracle.layout_from_tuples(bg), strict=True):
            assert mine.dtype == expected.dtype and np.array_equal(mine, expected)
        # The walk arrays are the system's trace, read, not copied.
        walks = rs._walks
        assert np.shares_memory(bg.face_layout[0], walks.arcs)
        assert np.shares_memory(bg.face_index[0], walks.lengths)


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
        # A walk projects to its base face, read from some arc on, and its
        # chiral copy to the reversed face on the reversed arcs.
        for walk, (base, chiral) in zip(bg.faces, fd.cover_base, strict=True):
            arcs = [int(bg.cover.proj[c]) for c in walk]
            if chiral:
                arcs = [e ^ 1 for e in reversed(arcs)]
            assert any(tuple(arcs[k:] + arcs[:k]) == fd.faces[base] for k in range(len(arcs)))
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


def _count_calls(monkeypatch, name, original):
    """Count calls to ``original`` through every surfwalk module binding it."""
    calls = []

    def counting(*args):
        calls.append(name)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("surfwalk") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _count_traces(monkeypatch):
    covers = _count_calls(monkeypatch, "_cover_arcs", rotation_system._cover_arcs)
    walks = _count_calls(monkeypatch, "_cover_walks", rotation_system._cover_walks)
    return covers, walks


@pytest.mark.parametrize("order", ["faces first", "hedgehog first"])
def test_the_cover_is_traced_once_per_system(monkeypatch, order):
    rs = projective_k4()
    covers, walks = _count_traces(monkeypatch)
    if order == "faces first":
        fd, bg = trace_faces(rs), hedgehog(rs)
    else:
        bg, fd = hedgehog(rs), trace_faces(rs)
    assert bg is hedgehog(rs) and len(bg.faces) == len(fd.cover_base)
    trace_faces(rs), hedgehog(rs), double_cover(rs)
    assert (len(covers), len(walks)) == (1, 1)


def test_double_cover_alone_traces_no_walks(monkeypatch):
    rs = projective_k4()
    covers, walks = _count_traces(monkeypatch)
    double_cover(rs)
    assert (len(covers), len(walks)) == (1, 0)


def test_traced_system_compares_hashes_and_pickles_as_before():
    rs, fresh = projective_k4(), projective_k4()
    before = (repr(rs), hash(rs), pickle.dumps(rs))
    trace_faces(rs), hedgehog(rs)
    assert (repr(rs), hash(rs), pickle.dumps(rs)) == before
    assert rs == fresh and fresh == rs
    again = pickle.loads(pickle.dumps(rs))
    assert again == rs and hash(again) == hash(rs)
    assert trace_faces(again) == trace_faces(rs)


def test_face_indices_are_shared_and_derived_per_graph():
    rs = projective_k4()
    bg, fd = hedgehog(rs), trace_faces(rs)
    names = ("face_layout", "face_index", "gram_index", "same_face_pairs")
    seen = []
    for coin in (Coin.hadamard_type(), Coin.real_symmetric(0.3)):
        s = scattering_matrix(bg, coin)
        s.unitarity_defect()
        average_by_enumeration(fd, coin)
        seen.append(_arrays([getattr(bg, name) for name in names]))
    # Both scattering matrices read the very same arrays.
    assert len(seen[0]) == len(seen[1]) > 8
    for first, second in zip(*seen):
        assert first is second
    # A rebuilt graph derives its own, equal to the shared ones.
    other = dataclasses.replace(bg)
    assert other == bg
    for mine, shared in zip(_arrays([getattr(other, name) for name in names]), seen[0], strict=True):
        assert mine is not shared and np.array_equal(mine, shared)


def test_one_scattering_matrix_derives_only_the_indices_it_reads():
    bg = hedgehog(projective_k4())
    s = scattering_matrix(bg, Coin.hadamard_type())
    assert {"face_layout", "face_index"} <= vars(bg).keys()
    assert "gram_index" not in vars(bg) and "same_face_pairs" not in vars(bg)
    s.unitarity_defect()
    assert "gram_index" in vars(bg) and "same_face_pairs" not in vars(bg)
