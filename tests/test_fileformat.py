import pytest

from conftest import projective_k4, random_rotation_system
from surfwalk.errors import ParseError
from surfwalk.fileformat import parse_rotation_system, serialize_rotation_system

PROJECTIVE_K4_FILE = """\
# K4 on the projective plane
vertices 4
edge 0 1 1
edge 0 2 0
edge 0 3 0
edge 1 2 0
edge 1 3 0
edge 2 3 0
rotation 0: 1 2 3
rotation 1: 0 3 2
rotation 2: 0 1 3
rotation 3: 0 2 1
"""


def test_parse_projective_k4():
    rs = parse_rotation_system(PROJECTIVE_K4_FILE)
    assert rs == projective_k4()


def test_round_trip(rng):
    for _ in range(15):
        rs = random_rotation_system(rng)
        again = parse_rotation_system(serialize_rotation_system(rs))
        assert again.graph == rs.graph
        assert again == rs


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_rotation_system(PROJECTIVE_K4_FILE.replace("edge 0 1 1", "edge 0 1 7"))
    assert err.value.line == 3

    with pytest.raises(ParseError):
        parse_rotation_system(PROJECTIVE_K4_FILE.replace("rotation 3: 0 2 1", ""))

    with pytest.raises(ParseError):
        parse_rotation_system("vertices 3\nedge 0 1 0\nedge 1 2 0\n")

    with pytest.raises(ParseError):
        parse_rotation_system(PROJECTIVE_K4_FILE.replace("rotation 0: 1 2 3", "rotation 0: 1 2 2"))

    with pytest.raises(ParseError):
        parse_rotation_system(PROJECTIVE_K4_FILE + "wibble 3\n")


def test_parse_rejects_malformed_rotation_line():
    broken = PROJECTIVE_K4_FILE.replace("rotation 0: 1 2 3", "rotation 0 1 2 3")
    with pytest.raises(ParseError):
        parse_rotation_system(broken)


# 66 bytes that declare a million vertices: rejected before any per-vertex
# work, with a short message.
HUGE_VERTEX_COUNT_FILE = "vertices 1000000\nedge 0 1 0\nedge 1 2 0\nedge 2 0 0\nrotation 0: 1 2\n"


def test_vertex_count_above_edge_count_fails_fast():
    with pytest.raises(ParseError) as err:
        parse_rotation_system(HUGE_VERTEX_COUNT_FILE)
    assert len(str(err.value)) < 100


def test_missing_rotation_lines_are_listed_briefly():
    lines = ["vertices 30"]
    lines += [f"edge {x} {(x + 1) % 30} 0" for x in range(30)]
    lines.append("rotation 0: 1 29")
    with pytest.raises(ParseError) as err:
        parse_rotation_system("\n".join(lines))
    assert "and 19 more" in str(err.value)


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("vertices 4", "vertices four", 1),
        ("edge 0 2 0", "edge x 2 0", 1),
        ("edge 0 2 0", "edge 0 two 0", 2),
        ("edge 0 2 0", "edge 0 2 0.0", 3),
        ("edge 0 2 0", "edge 0 y z", 2),
        ("rotation 2: 0 1 3", "rotation 2: 0 one 3", 3),
        ("rotation 2: 0 1 3", "rotation 2: 0 1 3x", 4),
        ("rotation 2: 0 1 3", "rotation 2: 0 a b", 3),
    ],
)
def test_non_integer_field_is_named_with_its_line(old, new, field):
    text = PROJECTIVE_K4_FILE.replace(old, new)
    lineno = text.splitlines().index(new) + 1
    with pytest.raises(ParseError) as err:
        parse_rotation_system(text)
    assert err.value.line == lineno
    assert str(err.value) == f"line {lineno}: expected an integer in field {field}"
