import json
import re
import sys

import pytest

import ciflie
from ciflie import CIFSet, Report, run_cli, trivial_cifset
from helpers import rebind_everywhere

H_DOC = """\
field 3
space H dim 2 parity 0 1
bracket H 1 1 -> 1 0
cifset A on H default 0/1 0/1 1/1 1/1
entry A 0 1 deg 2/3 1/2 1/4 1/3
entry A 0 2 deg 2/3 1/2 1/4 1/3
cifset B on H default 0/1 0/1 1/1 1/1
entry B 0 1 deg 1/3 1/4 1/2 1/2
entry B 0 2 deg 1/3 1/4 1/2 1/2
cifset N on H default 0/1 0/1 1/1 1/1
entry N 0 1 deg 1/2 1/2 0/1 0/1
entry N 0 2 deg 1/4 1/4 0/1 0/1
cifset C on H default 0/1 0/1 1/1 1/1
entry C 1 0 deg 1/2 1/2 1/4 1/4
entry C 2 0 deg 1/2 1/2 1/4 1/4
map phi H -> H kind anti rows 2 0 / 0 1
"""

INVALID_DOC = """\
field 3
space X dim 1 parity 0
bracket X 0 0 -> 1
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "h.spec"
    path.write_text(H_DOC, encoding="utf-8")
    return str(path)


def test_validate_ok(spec_file, capsys):
    assert run_cli(["validate", spec_file]) == 0
    out = capsys.readouterr().out
    assert "space H: valid" in out
    assert "map phi: valid (surjective)" in out


def test_validate_invalid_algebra(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text(INVALID_DOC, encoding="utf-8")
    assert run_cli(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "skew" in err


def test_validate_missing_file(capsys):
    assert run_cli(["validate", "/nonexistent/nope.spec"]) == 2


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "syntax.spec"
    path.write_text("field 3\nwibble\n", encoding="utf-8")
    assert run_cli(["validate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_usage_errors(capsys, spec_file):
    assert run_cli([]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["compute", "sum", spec_file, "--left", "A"]) == 1
    assert run_cli(["verify", "thrm-999", spec_file, "--trials", "1"]) == 1


def test_check_pass_and_fail(spec_file, capsys):
    assert run_cli(["check", "subspace", spec_file, "--name", "A"]) == 0
    assert "PASS" in capsys.readouterr().out
    # N violates the scalar condition, so it is not a subspace
    assert run_cli(["check", "subspace", spec_file, "--name", "N"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "scalar" in captured.err


def test_check_other_predicates(spec_file, capsys):
    assert run_cli(["check", "graded", spec_file, "--name", "A"]) == 0
    # A gives [f, f] = e no membership, so it is not an ideal; C is one
    assert run_cli(["check", "ideal", spec_file, "--name", "A"]) == 3
    assert run_cli(["check", "ideal", spec_file, "--name", "C"]) == 0
    assert run_cli(["check", "homogeneous", spec_file, "--name", "A"]) == 0
    assert (
        run_cli(["check", "homogeneous", spec_file, "--name", "A", "--with", "B"]) == 0
    )
    assert run_cli(["check", "anti-hom", spec_file, "--name", "phi"]) == 0
    assert run_cli(["check", "direct-sum", spec_file, "--name", "A", "--with", "B"]) == 3


ANTI_FAIL_DOC = """\
field 3
space H dim 2 parity 0 1
bracket H 1 1 -> 1 0
map psi H -> H kind anti rows 1 0 / 0 1
"""


def test_check_anti_hom_reports_a_failing_map(tmp_path, capsys):
    path = tmp_path / "psi.spec"
    path.write_text(ANTI_FAIL_DOC, encoding="utf-8")
    argv = ["check", "anti-hom", str(path), "--name", "psi"]
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "anti-hom psi: FAIL (surjective)\n"
    assert captured.err == "anti condition: phi([b1, b1]) != -[phi(b1), phi(b1)]\n"
    # another map that fails validation still makes the file a load error
    path.write_text(ANTI_FAIL_DOC + "map chi H -> H kind anti rows 1 0 / 0 1\n", encoding="utf-8")
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "map chi: anti condition: phi([b1, b1]) != -[phi(b1), phi(b1)]\n"


@pytest.mark.parametrize(
    ("rows", "code", "out"),
    [
        # [f, f] = e but -[psi f, psi f] = -e: not anti, whatever the kind says
        ("1 0 / 0 1", 3, "anti-hom psi: FAIL (surjective)\n"),
        # phi(e) = 2e = -[f, f]: a genuine anti map passes under kind plain
        ("2 0 / 0 1", 0, "anti-hom psi: PASS (surjective)\n"),
    ],
)
def test_check_anti_hom_tests_a_plain_map_as_anti(tmp_path, capsys, rows, code, out):
    path = tmp_path / "plain.spec"
    doc = ANTI_FAIL_DOC.replace("kind anti rows 1 0 / 0 1", f"kind plain rows {rows}")
    path.write_text(doc, encoding="utf-8")
    assert run_cli(["check", "anti-hom", str(path), "--name", "psi"]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    if code:
        assert captured.err == "anti condition: phi([b1, b1]) != -[phi(b1), phi(b1)]\n"
    # the file itself still validates: a plain map need not be anti
    assert run_cli(["validate", str(path)]) == 0


def test_check_unknown_name(spec_file, capsys):
    assert run_cli(["check", "subspace", spec_file, "--name", "ZZZ"]) == 2


def test_compute_bracket_with_oracle(spec_file, capsys):
    assert (
        run_cli(["compute", "bracket", spec_file, "--left", "A", "--right", "B", "--oracle"])
        == 0
    )
    out = capsys.readouterr().out
    assert "1/3 1/4" in out


def test_compute_scalar_zero_gives_trivial(spec_file, capsys):
    assert run_cli(["compute", "scalar", spec_file, "--left", "A", "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 1 | 0/1 0/1 | 1/1 1/1" in out
    assert "0 0 | 1/1 1/1 | 0/1 0/1" in out


def test_compute_image_needs_map(spec_file, capsys):
    assert run_cli(["compute", "image", spec_file, "--left", "A"]) == 1
    assert (
        run_cli(["compute", "image", spec_file, "--left", "A", "--map", "phi"]) == 0
    )


def test_compute_json_deterministic(spec_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        rc = run_cli(
            [
                "compute",
                "bracket",
                spec_file,
                "--left",
                "A",
                "--right",
                "B",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["tool"] == "ciflie"
    assert payload["input_digest"].startswith("sha256:")
    assert payload["result"][0] == {
        "vector": [0, 0],
        "mem": ["1/1", "1/1"],
        "non": ["0/1", "0/1"],
    }
    assert "." not in json.dumps(payload["result"])  # no floats anywhere


def test_verify_pass_and_json(spec_file, capsys, tmp_path):
    assert run_cli(["verify", "lem-5", spec_file, "--trials", "3", "--seed", "9"]) == 0
    assert "PASS" in capsys.readouterr().out
    out = tmp_path / "verify.json"
    rc = run_cli(
        [
            "verify",
            "thrm-2",
            spec_file,
            "--trials",
            "2",
            "--seed",
            "9",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["runs"][0]["space"] == "H"
    assert payload["runs"][0]["failures"] == []


def test_verify_thrm4_hundred_trials_json(spec_file, tmp_path):
    out = tmp_path / "t4.json"
    rc = run_cli(
        [
            "verify",
            "thrm-4",
            spec_file,
            "--trials",
            "100",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 100
    assert payload["passed"] is True
    assert all(run["failures"] == [] for run in payload["runs"])


def test_cifset_text_lists_the_carrier_in_order(H):
    """Rows follow the carrier's lexicographic order, not the order the
    table was filled in."""
    A = trivial_cifset(H)
    backwards = CIFSet(H, dict(reversed(list(A.table.items()))))
    lines = ciflie.cli._cifset_text(backwards).splitlines()[1:]
    assert [tuple(map(int, line.split(" | ")[0].split())) for line in lines] == sorted(A.table)
    assert ciflie.cli._cifset_text(backwards) == ciflie.cli._cifset_text(A)


def test_compute_sum_and_intersection_and_preimage(spec_file, capsys):
    assert run_cli(["compute", "sum", spec_file, "--left", "A", "--right", "B"]) == 0
    assert (
        run_cli(["compute", "intersection", spec_file, "--left", "A", "--right", "B"])
        == 0
    )
    assert (
        run_cli(["compute", "preimage", spec_file, "--left", "A", "--map", "phi"]) == 0
    )
    capsys.readouterr()


def test_verify_anti_ideal_is_an_unknown_id(spec_file, capsys):
    # the predicate is undefined, so no run under that id could check it
    for fmt in ("text", "json"):
        argv = ["verify", "anti-ideal", spec_file, "--trials", "5", "--format", fmt]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: unknown theorem id 'anti-ideal'")


def test_verify_neg_controls(spec_file, capsys):
    assert (
        run_cli(["verify", "neg-controls", spec_file, "--trials", "60", "--seed", "2"])
        == 0
    )
    assert "falsified" in capsys.readouterr().out


def test_verify_invalid_file_blocks(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text(INVALID_DOC, encoding="utf-8")
    assert run_cli(["verify", "lem-5", str(path), "--trials", "1"]) == 2


def test_no_ansi_on_a_terminal(spec_file, capsys, monkeypatch):
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    for argv in (
        ["check", "subspace", spec_file, "--name", "A"],
        ["check", "subspace", spec_file, "--name", "N"],
        ["check", "anti-hom", spec_file, "--name", "phi"],
        ["check", "direct-sum", spec_file, "--name", "A", "--with", "B"],
        ["verify", "lem-5", spec_file, "--trials", "1"],
    ):
        run_cli(argv)
        out = capsys.readouterr().out
        assert "PASS" in out or "FAIL" in out
        assert "\x1b[" not in out


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_verify_rejects_trial_counts_below_one(spec_file, capsys, trials):
    assert run_cli(["verify", "lem-5", spec_file, "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "--trials must be at least 1" in captured.err


def test_verify_rejects_file_without_space(tmp_path, capsys):
    path = tmp_path / "empty.spec"
    path.write_text("field 3\n", encoding="utf-8")
    assert run_cli(["verify", "lem-5", str(path), "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "declares no space" in captured.err


L5_DOC = """\
field 3
space L dim 5 parity 0 1 1 0 1
bracket L 1 1 -> 1 0 0 0 0
bracket L 1 2 -> 1 0 0 0 0
bracket L 2 2 -> 2 0 0 0 0
bracket L 4 4 -> 1 0 0 0 0
cifset A on L default 0/1 0/1 1/1 1/1
entry A 0 1 0 0 0 deg 1/2 1/2 1/4 1/4
cifset B on L default 0/1 0/1 1/1 1/1
entry B 0 1 1 0 0 deg 1/3 1/3 1/2 1/2
"""

TWO_SPACES_DOC = """\
field 3
space H dim 2 parity 0 1
space K dim 1 parity 0
cifset A on H default 0/1 0/1 1/1 1/1
cifset B on K default 0/1 0/1 1/1 1/1
"""


DIM6_DOC = """\
field 3
space X dim 6 parity 0 1 1 0 1 0
cifset A on X default 0/1 0/1 1/1 1/1
cifset B on X default 0/1 0/1 1/1 1/1
"""


def test_compute_bracket_with_oracle_on_a_dim6_file(tmp_path, capsys):
    path = tmp_path / "dim6.spec"
    path.write_text(DIM6_DOC, encoding="utf-8")
    argv = ["compute", "bracket", str(path), "--left", "A", "--right", "B"]
    assert run_cli(argv + ["--oracle", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["oracle_checked"] is True


def test_compute_bracket_with_oracle_on_l5(tmp_path, capsys):
    path = tmp_path / "l5.spec"
    path.write_text(L5_DOC, encoding="utf-8")
    argv = ["compute", "bracket", str(path), "--left", "A", "--right", "B"]
    assert run_cli(argv + ["--oracle", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_checked"] is True
    # [b1, b1 + b2] = 2e, and e = 2 * 2e lies in the same coset closure
    row = {"mem": ["1/3", "1/3"], "non": ["1/2", "1/2"]}
    for e in ([1, 0, 0, 0, 0], [2, 0, 0, 0, 0]):
        assert {"vector": e, **row} in payload["result"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "sum", "--left", "A", "--right", "B"],
        ["compute", "intersection", "--left", "A", "--right", "B"],
        ["compute", "bracket", "--left", "A", "--right", "B"],
        ["check", "homogeneous", "--name", "A", "--with", "B"],
    ],
)
def test_sets_on_different_spaces_are_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "two.spec"
    path.write_text(TWO_SPACES_DOC, encoding="utf-8")
    assert run_cli(argv[:2] + [str(path)] + argv[2:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: CIF sets live on different spaces\n"


def test_validate_reports_each_map_once(spec_file, capsys, monkeypatch):
    import ciflie.cli as cli

    calls = []
    original = cli.validate_map
    monkeypatch.setattr(cli, "validate_map", lambda m: calls.append(m) or original(m))
    assert run_cli(["validate", spec_file]) == 0
    assert len(calls) == 1


def test_invalid_file_gives_the_same_lines_to_every_command(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text(INVALID_DOC + "cifset A on X default 0/1 0/1 1/1 1/1\n", encoding="utf-8")
    errs = []
    for argv in (
        ["validate", str(path)],
        ["check", "subspace", str(path), "--name", "A"],
        ["compute", "scalar", str(path), "--left", "A", "--alpha", "1"],
        ["verify", "lem-5", str(path), "--trials", "1"],
    ):
        assert run_cli(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("space X: super skew-symmetry")
    assert errs == [errs[0]] * 4


def test_carrier_limit_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "big.spec"
    path.write_text("field 13\nspace X dim 6 parity 0 0 0 0 0 0\n", encoding="utf-8")
    assert run_cli(["validate", str(path)]) == 2
    assert "load error: line 2: carrier too large" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "sum", "--left", "A", "--right", "A"],
        ["compute", "bracket", "--left", "A", "--right", "B", "--format", "json"],
        ["verify", "lem-5", "--trials", "1"],
        ["verify", "lem-5", "--trials", "1", "--format", "json"],
    ],
)
def test_unwritable_out_is_a_usage_error(spec_file, tmp_path, capsys, argv):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert run_cli(argv[:2] + [spec_file] + argv[2:] + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: cannot write '{out}': ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "--right", "B"],
        ["intersection", "--right", "B"],
        ["scalar", "--alpha", "2"],
        ["image", "--map", "phi"],
        ["preimage", "--map", "phi"],
    ],
    ids=lambda argv: argv[0],
)
def test_oracle_on_another_operation_is_a_usage_error(spec_file, capsys, argv):
    full = ["compute", argv[0], spec_file, "--left", "A", *argv[1:], "--oracle"]
    assert run_cli(full) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --oracle applies to bracket only\n"


READERS = {
    "--with": "homogeneous and direct-sum",
    "--right": "sum, intersection and bracket",
    "--alpha": "scalar",
    "--map": "image and preimage",
}


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("check subspace --name A --with ZZ", "--with"),
        ("check anti-hom --name phi --with B", "--with"),
        ("compute scalar --left A --alpha 2 --right B --map q", "--right"),
        ("compute image --left A --map phi --right B", "--right"),
        ("compute sum --left A --right B --alpha 2 --format json", "--alpha"),
        ("compute bracket --left A --right B --alpha 0", "--alpha"),
        ("compute scalar --left A --alpha 1 --map q", "--map"),
        ("compute intersection --left A --right B --map phi", "--map"),
    ],
)
def test_an_option_the_operation_never_reads_is_a_usage_error(spec_file, capsys, argv, flag):
    """Refused before the file is read, whether or not the option names
    anything in it; --alpha 0 counts as given."""
    command, operation, *rest = argv.split()
    assert run_cli([command, operation, spec_file, *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {flag} applies to {READERS[flag]} only\n"


def test_check_anti_hom_validates_the_judged_map_once(spec_file, capsys, monkeypatch):
    import ciflie.cli as cli

    calls = []
    original = cli.validate_map
    monkeypatch.setattr(cli, "validate_map", lambda m: calls.append(m) or original(m))
    assert run_cli(["check", "anti-hom", spec_file, "--name", "phi"]) == 0
    assert capsys.readouterr().out == "anti-hom phi: PASS (surjective)\n"
    assert [m.kind for m in calls] == ["anti"]


@pytest.mark.parametrize(
    ("argv", "code", "err"),
    [
        (["compute", "scalar", "--left", "A"], 1, "usage error: scalar needs --alpha\n"),
        (["check", "direct-sum", "--name", "A"], 1, "usage error: direct-sum needs --with\n"),
        (
            ["compute", "image", "--left", "A", "--map", "psi"],
            2,
            "load error: line 0: unknown map 'psi'\n",
        ),
        (
            ["check", "anti-hom", "--name", "psi"],
            2,
            "load error: line 0: unknown map 'psi'\n",
        ),
    ],
)
def test_refusals_print_their_reason_and_exit_code(spec_file, capsys, argv, code, err):
    assert run_cli(argv[:2] + [spec_file] + argv[2:]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_text_compute_prints_the_result_notes(spec_file, capsys):
    assert run_cli(["compute", "sum", spec_file, "--left", "A", "--right", "N"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "# vector | mem r w | non r w",
        "# note: sum of a non-homogeneous pair: componentwise reading applied",
        "0 0 | 1/1 1/1 | 0/1 0/1",
    ]


def test_oracle_mismatch_exits_3(spec_file, capsys, monkeypatch):
    import ciflie.cli as cli

    monkeypatch.setattr(cli, "bracket_product_oracle", lambda A, B: trivial_cifset(A.space))
    argv = ["compute", "bracket", spec_file, "--left", "A", "--right", "B", "--oracle"]
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle mismatch at vector (1, 0): ladder and coset oracle disagree\n"


def test_verify_text_lists_the_first_five_failures(spec_file, capsys, monkeypatch):
    failed = Report(False, ("sabotaged",))
    rebind_everywhere(ciflie.is_cif_subspace, lambda A: failed, monkeypatch.setattr)
    assert run_cli(["verify", "mylemma-1", spec_file, "--trials", "7", "--seed", "9"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mylemma-1 on H: FAIL (7 trials, 7 failures)"
    assert len(lines) == 6
    assert all(re.fullmatch(r"  seed \d+: .*sabotaged", line) for line in lines[1:])


def test_one_process_runs_several_commands(spec_file, capsys):
    """The parser is built once per process, and no command's options
    reach the next one."""
    assert ciflie.cli.build_parser() is ciflie.cli.build_parser()
    argv = ["compute", "scalar", spec_file, "--left", "A", "--alpha", "2", "--format", "json"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["args"] == {"left": "A", "alpha": 2}
    argv = ["compute", "sum", spec_file, "--left", "A", "--right", "B", "--format", "json"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["args"] == {"left": "A", "right": "B"}
    assert run_cli(["compute", "sum", spec_file, "--right", "B"]) == 1
    assert capsys.readouterr().err == "usage error: the following arguments are required: --left\n"
    assert run_cli(["compute", "sum", spec_file, "--left", "A"]) == 1
    assert capsys.readouterr().err == "usage error: sum needs --right\n"
    with pytest.raises(SystemExit) as done:
        run_cli(["--version"])
    assert done.value.code == 0
    assert capsys.readouterr().out == f"{ciflie.__version__}\n"
