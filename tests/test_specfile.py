import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ciflie import (
    EMPTY,
    PrimeField,
    SpecError,
    cif_degree,
    gen_random_table,
    make_cifset,
    parse_spec,
    run_cli,
    serialize,
    space_vectors,
    superalgebra_from_pairs,
)
from ciflie.degrees import FULL, Degree
from ciflie.specfile import Workspace, WorkspaceSet
from helpers import gen_fuzz_document, gen_workspace

MINIMAL = "field 3\nspace A1 dim 1 parity 0\n"

H_DOC = """\
# sample document
field 3
space H dim 2 parity 0 1
bracket H 1 1 -> 1 0
cifset A on H default 0/1 0/1 1/1 1/1
entry A 0 1 deg 2/3 1/2 1/4 1/3
map phi H -> H kind anti rows 2 0 / 0 1
"""


def test_minimal_document():
    ws = parse_spec(MINIMAL)
    assert ws.field.p == 3
    alg = ws.algebras["A1"]
    assert alg.dim == 1 and alg.parity == (0,)
    assert alg.structure == (((0,),),)


def test_document_with_set_and_map():
    ws = parse_spec(H_DOC)
    A = ws.sets["A"].cifset
    from ciflie import cif_degree

    assert A.table[(0, 1)] == cif_degree("2/3", "1/2", "1/4", "1/3")
    assert A.table[(0, 0)] == FULL
    assert ws.maps["phi"].map.kind == "anti"


def test_budget_error_carries_line():
    doc = MINIMAL + "cifset A on A1 default 0 0 1 1\nentry A 1 deg 3/4 1/2 1/2 0\n"
    with pytest.raises(SpecError) as err:
        parse_spec(doc)
    assert err.value.line == 4
    assert "budget" in err.value.message


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("space X dim 1 parity 0\n", "field statement must come first"),
        ("field 3\nfield 5\n", "duplicate field"),
        ("field 4\n", "prime"),
        ("field 3\nspace X dim 1 parity 0\nspace X dim 1 parity 0\n", "duplicate space"),
        ("field 3\nspace X dim 2 parity 0\n", "parity bits"),
        ("field 3\nwibble 1 2\n", "unknown statement"),
        ("field 3\nspace X dim 1 parity 0\nbracket Y 0 0 -> 1\n", "unknown space"),
        ("field 3\nspace X dim 2 parity 0 1\nbracket X 1 0 -> 0 0\n", "i <= j"),
        ("field 3\nspace X dim 2 parity 0 1\nbracket X 0 1 -> 1\n", "expected 2"),
        ("field 3\nspace X dim 1 parity 0\ncifset A on Y default 0 0 1 1\n", "unknown space"),
        ("field 3\nentry A 0 deg 0 0 1 1\n", "unknown cifset"),
        ("field 3\nspace X dim 1 parity 0\ncifset A on X default 0 0 1 1\nentry A 0 deg 0 0 1 1\n", "pin"),
        ("field 3\nspace X dim 1 parity 0\nmap m X -> Y kind plain rows 1\n", "unknown space"),
        ("field 3\nspace X dim 1 parity 0\nmap m X -> X kind odd rows 1\n", "kind"),
        ("field 3\nspace X dim 1 parity 0\nmap m X -> X kind plain rows 1 2\n", "entries"),
        ("field 3\nspace X dim 1 parity 0\ncifset A on X default 0 0 1/0 1\n", "rational"),
        ("field 3\nspace X dim 1 parity 0\ncifset A on X default 0 0 7/4 1\n", "[0, 1]"),
    ],
)
def test_located_errors(doc, fragment):
    with pytest.raises(SpecError) as err:
        parse_spec(doc)
    assert fragment in str(err.value)


def test_duplicate_entry_rejected():
    doc = MINIMAL + (
        "cifset A on A1 default 0 0 1 1\n"
        "entry A 1 deg 0 0 1 1\n"
        "entry A 1 deg 1/2 0 0 1\n"
    )
    with pytest.raises(SpecError) as err:
        parse_spec(doc)
    assert "duplicate entry" in err.value.message


def test_comments_and_blank_lines_ignored():
    doc = "\n# leading comment\n\nfield 3   # trailing comment\nspace A dim 1 parity 1\n\n"
    ws = parse_spec(doc)
    assert ws.algebras["A"].parity == (1,)


def test_skew_fill_from_upper_pairs():
    doc = "field 3\nspace S dim 2 parity 0 1\nbracket S 0 1 -> 0 1\n"
    alg = parse_spec(doc).algebras["S"]
    # [b1, b0] = -(-1)^{0*1} [b0, b1] = -[b0, b1]
    assert alg.structure[0][1] == (0, 1)
    assert alg.structure[1][0] == (0, 2)


def test_round_trip_fixed_document():
    ws = parse_spec(H_DOC)
    assert parse_spec(serialize(ws)) == ws


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_round_trip_generated_workspaces(seed):
    ws = gen_workspace(random.Random(seed))
    text = serialize(ws)
    assert parse_spec(text) == ws
    # serialization is canonical: one more cycle is byte-stable
    assert serialize(parse_spec(text)) == text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_parser_total_on_fuzz_documents(seed):
    doc = gen_fuzz_document(random.Random(seed))
    try:
        parse_spec(doc)
    except SpecError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=300))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_spec(text)
    except SpecError:
        pass


BIG_DOC = """\
field 13
space X dim 6 parity 0 0 0 0 0 0
cifset A on X default 0/1 0/1 1/1 1/1
"""


def test_carrier_limit_refused_at_the_space_statement(no_enumeration):
    # 13^6 = 4826809 vectors per set; refused before the set is built
    with pytest.raises(SpecError) as err:
        parse_spec(BIG_DOC)
    assert err.value.line == 2
    assert "carrier too large: 13^6 = 4826809 vectors" in err.value.message
    assert "at most 3125" in err.value.message


def test_largest_supported_carriers_load():
    for p, dim in ((5, 5), (3, 6), (2, 6)):
        doc = f"field {p}\nspace X dim {dim} parity {' '.join('0' * dim)}\n"
        assert parse_spec(doc).algebras["X"].size <= 3125
    with pytest.raises(SpecError, match="dim must be in 1..6, got 7"):
        parse_spec("field 2\nspace X dim 7 parity 0 0 0 0 0 0 0\n")


def _workspaces(alg):
    """Workspaces on ``alg``: one set with a degree per nonzero vector,
    one with a 24-degree palette, and one holding both."""
    vectors = [x for x in space_vectors(alg) if x != alg.zero()]
    n = len(vectors)
    order = random.Random(4).sample(range(n), n)
    degrees = [
        cif_degree(Fraction(i, n), Fraction(n - i, n), Fraction(n - 1 - i, n), Fraction(i, 2 * n))
        for i in order
    ]
    distinct = make_cifset(alg, list(zip(vectors, degrees)), EMPTY)
    palette = gen_random_table(alg, random.Random(5))
    sets = {"D": WorkspaceSet("L", EMPTY, distinct), "P": WorkspaceSet("L", EMPTY, palette)}
    return [
        Workspace(alg.field, {"L": alg}, {name: sets[name]}, {}) for name in sets
    ] + [Workspace(alg.field, {"L": alg}, sets, {})]


def _degree_tuples(text):
    return {line.split(" deg ")[1] for line in text.splitlines() if line.startswith("entry")}


def test_round_trip_l5_with_distinct_and_repeated_degrees(L5):
    per_vector, palette, both = _workspaces(L5)
    assert len(_degree_tuples(serialize(per_vector))) == L5.size - 1
    assert len(_degree_tuples(serialize(palette))) <= 24
    for ws in (per_vector, palette, both):
        parsed = parse_spec(serialize(ws))
        assert parsed == ws
        for entry in parsed.sets.values():
            # equal degrees of a parsed set are one object
            table = entry.cifset.table
            assert len({id(d) for d in table.values()}) == len(set(table.values()))


def test_each_distinct_degree_tuple_is_validated_once(L5, monkeypatch):
    built = []
    original = Degree.__post_init__
    monkeypatch.setattr(Degree, "__post_init__", lambda d: built.append(d) or original(d))
    for ws in _workspaces(L5):
        text = serialize(ws)
        built.clear()
        parse_spec(text)
        assert len(built) <= 2 * (len(_degree_tuples(text)) + len(ws.sets)) + 4


REPEATS = """field 3
space X dim 2 parity 0 1
cifset A on X default 0/1 0/1 1/1 1/1
entry A 0 1 deg 1/2 1/2 1/2 1/2
entry A 0 2 deg 1/2 1/2 1/2 1/2
entry A 1 0 deg 1/2 1/2 1/2 1/2
"""


@pytest.mark.parametrize(
    "bad, fragment",
    [("3/4 0 1/2 0", "budget"), ("0 0 7/4 1", "[0, 1]"), ("0 0 1/0 1", "rational")],
)
def test_bad_degree_after_repeats_is_reported_at_its_first_line(bad, fragment):
    # the bad tuple first appears on line 7, after a tuple seen three times
    for tail in ([f"entry A 1 1 deg {bad}"], [f"entry A 1 1 deg {bad}", f"entry A 1 2 deg {bad}"]):
        with pytest.raises(SpecError) as err:
            parse_spec(REPEATS + "\n".join(tail) + "\n")
        assert err.value.line == 7
        assert fragment in err.value.message
    # a repeat of a good tuple after it still parses
    ws = parse_spec(REPEATS + "entry A 1 1 deg 1/2 1/2 1/2 1/2\n")
    assert ws.sets["A"].cifset.table[(1, 1)] == cif_degree("1/2", "1/2", "1/2", "1/2")


MEMO_BASE = """field 3
space X dim 2 parity 0 1
cifset A on X default 0/1 0/1 1/1 1/1
entry A 0 1 deg 1/2 1/2 1/2 1/2
"""


@pytest.mark.parametrize(
    ("tail", "message"),
    [
        # a bad coordinate token, first seen after lines that fill the memo
        (
            "entry A 1 0 deg 1/2 1/2 1/2 1/2\nentry A 1 x deg 1/2 1/2 1/2 1/2\n"
            "entry A x 2 deg 1/2 1/2 1/2 1/2\n",
            "line 6: coordinate: 'x' is not an integer",
        ),
        # 4 and 1 are one element of F_3, so the second line repeats the first
        (
            "entry A 1 4 deg 1/4 1/2 1/2 1/2\nentry A 1 1 deg 1/3 1/2 1/2 1/2\n",
            "line 6: duplicate entry for vector (1, 1)",
        ),
        # a bad rational token in two distinct degree tuples
        (
            "entry A 1 0 deg 1/3 1/2 1/2 1/0\nentry A 1 1 deg 1/2 1/3 1/2 1/0\n",
            "line 5: degree component: '1/0' is not a rational",
        ),
        # a bad entry line before a bad map line: the entry's line wins
        (
            "entry A 1 0 deg 1/2 1/2 1/2 2/1\nmap m X -> X kind plain rows 1 0 / 0 9 9\n",
            "line 5: phase must lie in [0, 1], got 2",
        ),
        # 0 3 is the zero vector of F_3^2
        (
            "entry A 0 3 deg 1/2 1/2 1/2 1/2\n",
            "line 5: zero entry must match the pin (mem 1/1 1/1, non 0/1 0/1)",
        ),
    ],
)
def test_memoised_tokens_keep_the_first_error_and_its_line(tail, message):
    with pytest.raises(SpecError) as info:
        parse_spec(MEMO_BASE + tail)
    assert str(info.value) == message


def test_memoised_tokens_reduce_like_fresh_ones():
    ws = parse_spec(MEMO_BASE + "entry A 4 2 deg 1/2 1/2 1/2 1/2\nentry A 2 5 deg 2/4 1/2 1/2 1/2\n")
    table = ws.sets["A"].cifset.table
    assert table[(1, 2)] is table[(0, 1)]
    assert table[(2, 2)] == table[(0, 1)]


SPACE_H = "field 3\nspace H dim 2 parity 0 1\n"
SET_A = "cifset A on H default 0 0 1 1\n"


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ("field 3\nspace 9H dim 1 parity 0\n", "line 2: invalid name '9H'"),
        ("field 3\nspace H dim 2\n", "line 2: usage: space NAME dim INT parity BIT..."),
        ("field 3\nspace H dim 2 parity 0 2\n", "line 2: parity bit must be 0 or 1, got '2'"),
        (SPACE_H + "bracket H 1 1 1 0\n", "line 3: usage: bracket NAME i j -> c_1 ... c_n"),
        (SPACE_H + "bracket H 0 2 -> 1 0\n", "line 3: basis indices must be in 0..1"),
        (
            SPACE_H + "bracket H 1 1 -> 1 0\nbracket H 1 1 -> 2 0\n",
            "line 4: duplicate bracket declaration for (1, 1)",
        ),
        (SPACE_H + "cifset A on H\n", "line 3: usage: cifset NAME on SPACE default R W RH WH"),
        (SPACE_H + SET_A + SET_A, "line 4: duplicate cifset 'A'"),
        (SPACE_H + SET_A + "entry A\n", "line 4: usage: entry NAME v_1 ... v_n deg R W RH WH"),
        (
            SPACE_H + SET_A + "entry A 0 1 deg 1 1 0\n",
            "line 4: usage: entry NAME v_1 ... v_n deg R W RH WH",
        ),
        (
            SPACE_H + "map phi H H kind anti rows 1 0 / 0 1\n",
            "line 3: usage: map NAME SPACE -> SPACE kind {plain|anti} rows c ... / ...",
        ),
        (SPACE_H + "map phi H -> H kind anti rows 1 0\n", "line 3: expected 2 rows, got 1"),
        (
            SPACE_H + "map phi H -> H kind anti rows 1 0 / 0 1\n" * 2,
            "line 4: duplicate map 'phi'",
        ),
    ],
)
def test_each_refusal_names_its_line(doc, message):
    with pytest.raises(SpecError) as info:
        parse_spec(doc)
    assert str(info.value) == message


def test_catch_alls_turn_any_other_error_into_a_spec_error(monkeypatch):
    import ciflie.specfile as specfile

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setitem(specfile._STATEMENTS, "space", boom)
    with pytest.raises(SpecError, match=r"^line 2: malformed statement: boom$"):
        parse_spec(MINIMAL)
    monkeypatch.undo()
    monkeypatch.setattr(specfile, "CIFSet", boom)
    with pytest.raises(SpecError, match=r"^line 0: inconsistent document: boom$"):
        parse_spec(SPACE_H + SET_A)


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ("field 1_1\n", "line 1: field modulus: '1_1' is not an integer"),
        ("field \u0663\n", "line 1: field modulus: '\u0663' is not an integer"),
        ("field 3\nspace X dim \u0661 parity 0\n", "line 2: dim: '\u0661' is not an integer"),
        (SPACE_H + "bracket H 0_1 1 -> 1 0\n", "line 3: basis index: '0_1' is not an integer"),
        (SPACE_H + "bracket H 1 1 -> \u0661 0\n", "line 3: structure constant: '\u0661' is not an integer"),
        (SPACE_H + SET_A + "entry A 1_0 \u0662 deg 1_0/2_0 1/2 0 1\n", "line 4: coordinate: '1_0' is not an integer"),
        (SPACE_H + SET_A + "entry A 0 \u0662 deg 1/2 1/2 0 1\n", "line 4: coordinate: '\u0662' is not an integer"),
        (
            SPACE_H + SET_A + "entry A 0 1 deg 1_0/2_0 1/2 0 1\n",
            "line 4: degree component: '1_0/2_0' is not a rational",
        ),
        (SPACE_H + SET_A + "entry A 0 1 deg 1/\u0662 1/2 0 1\n", "line 4: degree component: '1/\u0662' is not a rational"),
        (SPACE_H + "cifset A on H default 0 0 1_0/1_0 1\n", "line 3: degree component: '1_0/1_0' is not a rational"),
        (
            SPACE_H + "map phi H -> H kind anti rows 1 0 / 0 \u0661\n",
            "line 3: matrix entry: '\u0661' is not an integer",
        ),
    ],
)
def test_only_ascii_digits_make_an_integer(doc, message):
    """``int`` also reads underscores and other scripts' digits; the
    grammar's INT and num/den are ASCII digits with an optional sign."""
    with pytest.raises(SpecError) as info:
        parse_spec(doc)
    assert str(info.value) == message


def test_signed_integers_still_load():
    ws = parse_spec(SPACE_H + SET_A + "entry A -1 +2 deg +1/+2 1/2 -0 1\n")
    assert ws.sets["A"].cifset.table[(2, 2)] == cif_degree("1/2", "1/2", 0, 1)


@pytest.fixture(scope="module")
def F5_5():
    """The L5 bracket table over F_5 (|V| = 3125, the carrier limit)."""
    e = (1, 0, 0, 0, 0)
    return superalgebra_from_pairs(
        PrimeField(5), (0, 1, 1, 0, 1), {(1, 1): e, (1, 2): e, (2, 2): (2, 0, 0, 0, 0), (4, 4): e}
    )


def _respaced(text, rng):
    """``text`` with every line re-rendered: its tokens parted by runs of
    spaces and tabs, led by one, and followed by a comment that would be
    a bad statement if it were read."""
    gaps = (" ", "  ", "\t", " \t ", "\t\t")
    lines = []
    for line in text.splitlines():
        body = "".join(rng.choice(gaps) + token for token in line.split())
        lines.append(body + rng.choice(gaps + ("",)) + rng.choice(("# note", "#entry Q x deg 1/0", "##")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["L5", "F5_5"])
def test_respaced_and_commented_lines_parse_alike(name, request):
    per_vector, palette, _ = _workspaces(request.getfixturevalue(name))
    for ws in (per_vector, palette):
        text = serialize(ws)
        for seed in range(2):
            assert parse_spec(_respaced(text, random.Random(seed))) == ws


@pytest.fixture(scope="module")
def l5_text(L5):
    """The serialized L5 workspace holding a per-vector set D and a
    palette set P."""
    return serialize(_workspaces(L5)[2])


def _mutated(text, kind, seed):
    """``text`` with one entry line, drawn by ``seed``, broken as ``kind``
    says, and the number of the line that is to be refused."""
    lines = text.splitlines()
    p = int(lines[0].split()[1])
    rng = random.Random(seed)
    name = rng.choice("DP")
    j, i = sorted(rng.sample([k for k, line in enumerate(lines) if line.startswith(f"entry {name} ")], 2))
    tokens = lines[i].split()
    coords, degree = tokens[2:-5], tokens[-4:]
    at = rng.randrange(len(coords))
    if kind == "before cifset":
        c = lines.index(next(line for line in lines if line.startswith(f"cifset {name} ")))
        return "\n".join(lines[:c] + [lines[i]] + lines[c:i] + lines[i + 1 :]) + "\n", c + 1
    if kind == "coordinate":
        coords[at] = "x"
    elif kind == "rational":
        degree[at % 4] = "1/0"
    elif kind == "budget":
        degree = ["3/4", "0", "1/2", "0"]
    elif kind in ("duplicate", "unreduced duplicate"):
        coords = lines[j].split()[2:-5]
        if kind == "unreduced duplicate":
            coords[at] = str(int(coords[at]) + p)
    elif kind == "zero pin":
        coords = ["0"] * len(coords)
        coords[at] = str(p)
    elif kind == "arity":
        del coords[at]
    elif kind == "unknown set":
        name = "Q"
    lines[i] = " ".join(["entry", name, *coords, "deg", *degree])
    return "\n".join(lines) + "\n", i + 1


# Each mutation's refusal, recorded on the loader before its memos keyed
# whole vectors and degree tuples.
MUTATIONS = [
    ("coordinate", 0, "line 478: coordinate: 'x' is not an integer"),
    ("coordinate", 1, "line 224: coordinate: 'x' is not an integer"),
    ("rational", 2, "line 31: degree component: '1/0' is not a rational"),
    ("rational", 3, "line 159: degree component: '1/0' is not a rational"),
    ("budget", 4, 'line 85: amplitude budget exceeded: 3/4 + 1/2 > 1'),
    ("budget", 5, 'line 440: amplitude budget exceeded: 3/4 + 1/2 > 1'),
    ("duplicate", 6, 'line 203: duplicate entry for vector (1, 1, 1, 2, 2)'),
    ("duplicate", 7, 'line 352: duplicate entry for vector (0, 1, 1, 1, 0)'),
    ("unreduced duplicate", 8, 'line 104: duplicate entry for vector (1, 0, 1, 1, 2)'),
    ("unreduced duplicate", 9, 'line 407: duplicate entry for vector (1, 0, 1, 2, 0)'),
    ("zero pin", 10, 'line 131: zero entry must match the pin (mem 1/1 1/1, non 0/1 0/1)'),
    ("zero pin", 11, 'line 472: zero entry must match the pin (mem 1/1 1/1, non 0/1 0/1)'),
    ("arity", 12, 'line 419: usage: entry NAME v_1 ... v_n deg R W RH WH'),
    ("arity", 13, 'line 426: usage: entry NAME v_1 ... v_n deg R W RH WH'),
    ("unknown set", 14, "line 187: unknown cifset 'Q'"),
    ("unknown set", 15, "line 141: unknown cifset 'Q'"),
    ("before cifset", 16, "line 250: unknown cifset 'P'"),
    ("before cifset", 1, "line 7: unknown cifset 'D'"),
]


@pytest.mark.parametrize(("kind", "seed", "message"), MUTATIONS)
def test_a_mutated_line_is_refused_at_its_line(l5_text, kind, seed, message):
    text, line = _mutated(l5_text, kind, seed)
    with pytest.raises(SpecError) as info:
        parse_spec(text)
    assert info.value.line == line
    assert str(info.value) == message


def test_of_two_bad_lines_the_first_is_refused(l5_text):
    in_place = [m for m in MUTATIONS if m[0] != "before cifset"]
    for (kind, seed, message), (other, other_seed, other_message) in zip(in_place, in_place[1:] + in_place[:1]):
        first, line = _mutated(l5_text, kind, seed)
        second, other_line = _mutated(l5_text, other, other_seed)
        assert line != other_line
        lines = second.splitlines()
        lines[line - 1] = first.splitlines()[line - 1]
        with pytest.raises(SpecError) as info:
            parse_spec("\n".join(lines) + "\n")
        assert str(info.value) == (message if line < other_line else other_message)


def test_a_bad_line_in_a_set_the_command_does_not_read_refuses_the_file(L5, tmp_path, capsys):
    per_vector, palette, _ = _workspaces(L5)
    sets = {"S1": palette.sets["P"], "S2": per_vector.sets["D"]}
    lines = serialize(Workspace(L5.field, {"L": L5}, sets, {})).splitlines()
    bad = max(i for i, line in enumerate(lines) if line.startswith("entry S2 "))
    path = tmp_path / "two.spec"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["check", "subspace", str(path), "--name", "S1"]) == 3
    lines[bad] = lines[bad].split(" deg ")[0] + " deg 3/4 0 1/2 0"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(["check", "subspace", str(path), "--name", "S1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"load error: line {bad + 1}: amplitude budget exceeded: 3/4 + 1/2 > 1\n"
