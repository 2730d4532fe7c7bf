import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from conftest import planar_grid, projective_k4, random_rotation_system
from surfwalk.cli import main
from surfwalk.errors import ParseError
from surfwalk.fileformat import _DECIMAL, _integers, parse_rotation_system, read_float, serialize_rotation_system
from surfwalk.graph_core import complete_graph

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


# Each malformed file: the text, the message and the line it names (None for
# a fault of the file as a whole).
MALFORMED = {
    "edge-3-fields": (
        PROJECTIVE_K4_FILE.replace("edge 0 2 0", "edge 0 2"),
        "edge lines read: edge <u> <v> <twist>",
        4,
    ),
    "rotation-x": (
        PROJECTIVE_K4_FILE.replace("rotation 1: 0 3 2", "rotation x: 0 3 2"),
        "bad vertex 'x'",
        10,
    ),
    "duplicate-rotation": (
        PROJECTIVE_K4_FILE + "rotation 2: 0 1 3\n",
        "duplicate rotation line for vertex 2",
        13,
    ),
    "duplicate-vertices": (PROJECTIVE_K4_FILE + "vertices 4\n", "duplicate vertices line", 13),
    "no-vertices": (PROJECTIVE_K4_FILE.replace("vertices 4\n", ""), "missing vertices line", None),
    "no-edges": ("vertices 1\nrotation 0:\n", "no edges", None),
    "rotation-7-of-4": (
        PROJECTIVE_K4_FILE + "rotation 7: 0 1\n",
        "rotation lines for unknown vertices [7]",
        None,
    ),
    "vertices-4-5": (
        PROJECTIVE_K4_FILE.replace("vertices 4", "vertices 4 5"),
        "expected 2 fields, got 3",
        2,
    ),
}


@pytest.mark.parametrize("text, message, line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_names_its_fault(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_rotation_system(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_malformed_file_exits_2(tmp_path, capsys):
    text, message, line = MALFORMED["duplicate-rotation"]
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["faces", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: line {line}: {message}\n"


# --------------------------------------------------------------------------
# The parser against the line parser it replaced (tests/parse_oracle.py).
# --------------------------------------------------------------------------


def assert_parses_as_oracle(text):
    """The library's parse of ``text`` equals the oracle's in every field,
    the graph's incoming-arc lists included, all of Python ints."""
    rs = parse_rotation_system(text)
    oracle, incoming = parse_oracle.parse_rotation_system(text)
    g, h = rs.graph, oracle.graph
    assert (g.vertex_count, g.origin, g.terminus, g._incoming) == (h.vertex_count, h.origin, h.terminus, incoming)
    assert (rs.rot, rs.twist) == (oracle.rot, oracle.twist)
    assert {type(i) for i in (g.vertex_count, *g.origin, *g.terminus, *rs.rot, *rs.twist)} == {int}
    assert rs == oracle


def parse_failure(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.line, str(err.value)


def test_seeded_systems_parse_as_the_oracle_does(rng):
    for _ in range(200):
        assert_parses_as_oracle(serialize_rotation_system(random_rotation_system(rng, max_vertices=8)))


def test_large_systems_parse_as_the_oracle_does():
    timing = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "front_end_timing.py"))
    rng = np.random.default_rng(timing["SEED"])
    for n in (16, 32, 64, 128):
        assert_parses_as_oracle(serialize_rotation_system(timing["random_system"](complete_graph(n), rng)))
    assert_parses_as_oracle(serialize_rotation_system(planar_grid(30)))


def test_layout_variants_parse_as_the_oracle_does(rng):
    lines = serialize_rotation_system(random_rotation_system(rng, complete_graph(7))).splitlines()
    head = lines[:1]
    edges = [line for line in lines if line.startswith("edge")]
    rotations = [line for line in lines if line.startswith("rotation")]
    shuffled = [rotations[i] for i in rng.permutation(len(rotations))]
    variants = {
        "shuffled rotation lines": head + edges + shuffled,
        "rotation lines first": shuffled + head + edges,
        "tabs": [line.replace(" ", "\t") for line in lines],
        "trailing comments": [line + "  # note: 1 2 3" for line in lines],
        "blank and comment lines": ["", "# a file", "   "] + [x for line in lines for x in (line, "", "\t#")],
    }
    for variant in variants.values():
        for end in ("\n", "\r\n"):
            assert_parses_as_oracle(end.join(variant) + end)
    assert_parses_as_oracle("\r\n".join(lines))


@pytest.mark.parametrize("text, message, line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_fails_as_the_oracle_does(text, message, line):
    assert parse_failure(parse_rotation_system, text) == parse_failure(parse_oracle.parse_rotation_system, text)


NON_INTEGER = [
    ("vertices 4", "vertices four"),
    ("edge 0 2 0", "edge x 2 0"),
    ("edge 0 2 0", "edge 0 two 0"),
    ("edge 0 2 0", "edge 0 2 0.0"),
    ("edge 0 2 0", "edge 0 y z"),
    ("edge 0 2 0", "edge 0 2 +"),
    ("edge 0 2 0", "edge 0 2 -"),
    ("edge 0 2 0", "edge 0 1+1 0"),
    ("rotation 1: 0 3 2", "rotation -: 0 3 2"),
    ("rotation 2: 0 1 3", "rotation 2: 0 one 3"),
    ("rotation 2: 0 1 3", "rotation 2: 0 1 3x"),
    ("rotation 2: 0 1 3", "rotation 2: 0 a b"),
]

# Faults of value, each alone and behind a fault on a later line: the first
# in line order is named.
VALUE_FAULTS = [
    ("edge 0 2 0", "edge 0 2 5"),
    ("edge 0 2 0", "edge 0 2 -1"),
    ("rotation 3: 0 2 1", "rotation 1: 0 2 1"),
    ("edge 0 1 1", "edge 0 -1 1"),
    ("rotation 3: 0 2 1", "rotation 3: 0 2 -1"),
    ("vertices 4", "vertices -4"),
    ("vertices 4", "vertices 0"),
]


@pytest.mark.parametrize("old, new", NON_INTEGER + VALUE_FAULTS)
def test_field_faults_fail_as_the_oracle_does(old, new):
    text = PROJECTIVE_K4_FILE.replace(old, new)
    assert parse_failure(parse_rotation_system, text) == parse_failure(parse_oracle.parse_rotation_system, text)
    for later in ("edge 1 3 0", "rotation 3: 0 2 1", "edge 2 3 0"):
        if later != old:
            twice = text.replace(later, "edge x 3 0" if later.startswith("edge") else "wibble")
            first = parse_failure(parse_oracle.parse_rotation_system, twice)
            assert parse_failure(parse_rotation_system, twice) == first


# --------------------------------------------------------------------------
# Lines end at \n only, and integers fit in int64.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("mark", ["\x0c", "\x0b", "\x1c", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
def test_only_newline_ends_a_line(mark):
    # str.splitlines would end the comment at the mark and read "page
    # break" as a directive, and count one line more for every later line.
    text = f"# header{mark} page break\n" + PROJECTIVE_K4_FILE
    assert parse_rotation_system(text) == projective_k4()
    broken = text.replace("edge 0 3 0", "edge 0 3 2")
    assert parse_failure(parse_rotation_system, broken) == (6, "line 6: twist must be 0 or 1, got 2")
    assert broken.split("\n")[5] == "edge 0 3 2"


def test_crlf_file_parses():
    assert parse_rotation_system(PROJECTIVE_K4_FILE.replace("\n", "\r\n")) == projective_k4()
    lined = PROJECTIVE_K4_FILE.replace("\n", "\r\n").replace("edge 0 3 0", "edge 0 3 x")
    assert parse_failure(parse_rotation_system, lined) == (5, "line 5: expected an integer in field 3")


BEYOND_INT64 = [
    "9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999999",
    "-99999999999999999999999",
    # int() refuses more than 4300 digits.
    pytest.param("9" * 5000, id="5000-digits"),
    pytest.param("-" + "9" * 5000, id="minus-5000-digits"),
]


@pytest.mark.parametrize("huge", BEYOND_INT64)
@pytest.mark.parametrize(
    "old, new, field",
    [
        ("vertices 4", "vertices {}", 1),
        ("edge 0 2 0", "edge {} 2 0", 1),
        ("edge 0 2 0", "edge 0 {} 0", 2),
        ("edge 0 2 0", "edge 0 2 {}", 3),
        ("rotation 2: 0 1 3", "rotation {}: 0 1 3", 1),
        ("rotation 2: 0 1 3", "rotation 2: 0 {} 3", 3),
    ],
)
def test_integer_beyond_int64_is_named_with_its_line(huge, old, new, field):
    new = new.format(huge)
    text = PROJECTIVE_K4_FILE.replace(old, new)
    lineno = text.split("\n").index(new) + 1
    message = f"line {lineno}: field {field} does not fit in 64 bits"
    assert parse_failure(parse_rotation_system, text) == (lineno, message)


def test_int64_extremes_are_integers():
    for value in ("9223372036854775807", "-9223372036854775808"):
        text = PROJECTIVE_K4_FILE.replace("edge 0 2 0", f"edge 0 {value} 0")
        assert parse_failure(parse_rotation_system, text) == (None, "edge 1 references unknown vertex")
    assert parse_rotation_system(PROJECTIVE_K4_FILE.replace("edge 0 2 0", "edge +0 +2 -0")) == projective_k4()


@pytest.mark.parametrize("field", ["1_0", "\u0663", "\uff11", "0x1"])
def test_integers_are_ascii_decimal(field):
    # int() reads the first three (10, 3 and 1); the file format does not.
    text = PROJECTIVE_K4_FILE.replace("edge 0 2 0", f"edge 0 2 {field}")
    assert parse_failure(parse_rotation_system, text) == (4, "line 4: expected an integer in field 3")


@pytest.mark.parametrize("text", ["1", "-1.", ".5", "+2.5E-3", "1e400", "inf", "-Infinity", "NaN"])
def test_read_float_reads_what_float_reads_in_ascii(text):
    assert np.array_equal(read_float(text), float(text), equal_nan=True)


@pytest.mark.parametrize("text", ["1_0", " 1", "1\n", "\u0660.\u0665", "\uff11", "0x1", ".", "e5", "1e", "infinit", ""])
def test_read_float_refuses_separators_spaces_and_other_digits(text):
    # float() reads the first five (10, 1, 1, 0.5 and 1).
    assert read_float(text) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="0123456789+-_x\u0663", min_size=1, max_size=21), min_size=1, max_size=6))
def test_bulk_read_is_trusted_only_when_right(fields):
    values, doubtful = _integers(fields)
    decimal = all(_DECIMAL.fullmatch(f) and -(2**63) <= int(f) < 2**63 for f in fields)
    if not doubtful or decimal:
        # A trusted read, or one whose fields all pass the per-field check,
        # is every field's integer.
        assert decimal and values is not None
        assert values.tolist() == [int(f) for f in fields]
