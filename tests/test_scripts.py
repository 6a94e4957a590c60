"""The experiment drivers under scripts/ run end to end at a tiny size."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from ciflie import Report, gen_anti_hom, gen_cif_ideal, gen_pair, make_config, parse_spec, run_cli
from ciflie.cifset import table_fingerprint


ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def import_time_kernels():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import time_kernels
    finally:
        sys.path.pop(0)
    return time_kernels


def test_run_catalog_with_one_trial_keeps_the_controls_budget():
    done = run_script("run_catalog.py", "--trials", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    controls = [line.split() for line in lines if line.startswith("neg-controls")]
    assert [c[1] for c in controls] == ["H", "L3"]
    assert all(c[-1] == "pass" for c in controls)
    assert lines[-1].startswith("total: ") and lines[-1].endswith(", 0 failing entries")


def test_oracle_sweep_small():
    done = run_script("oracle_sweep.py", "--pairs", "5", "--pairs-dim3", "5")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == [
        "H: 5 pairs checked, 1 of them random-degree",
        "L3: 5 pairs checked, 1 of them random-degree",
    ]
    assert lines[2].startswith("0 mismatches in ")


def test_time_kernels_on_h(H, tmp_path, capsys):
    done = run_script("time_kernels.py", "--algebras", "H", "--repeat", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    rows = [json.loads(line) for line in lines]
    assert lines == [json.dumps(row, sort_keys=True) for row in rows]
    assert [(r["input"], r["operation"]) for r in rows] == [
        (kind, op) for kind in ("subspace", "palette", "per-vector") for op in ("cif_sum", "bracket_product")
    ] + [
        ("palette", "bracket_product_oracle"), ("per-vector", "bracket_product_oracle"),
        ("palette", "parse_spec"), ("per-vector", "parse_spec"), ("algebra", "validate_superalgebra"),
        ("subspace", "is_cif_subspace"), ("ideal", "is_cif_ideal"),
        ("two-lines", "is_cif_subspace"), ("odd-line", "is_cif_ideal"), ("palette", "image"), ("per-vector", "image"),
        ("per-vector", "Degree"), ("pool", "make_config"),
        ("config", "gen_pair"), ("config", "gen_cif_ideal"), ("config", "gen_anti_hom"),
        ("subspace", "rank_encode"), ("palette", "rank_encode"), ("per-vector", "rank_encode"),
    ] + [
        (kind, f"run_cli {command}") for kind in ("palette", "per-vector") for command in ("compute sum", "check subspace")
    ]
    # two predicate rows time a passing check, two a failing one, digested by its witness
    witnesses = [
        repr(Report(True)), repr(Report(True)),
        "additivity (membership): x=(1, 0), y=(1, 2)", "bracket clause (membership): x=(0, 1), y=(0, 1)",
    ]
    assert [r["digest"] for r in rows if r["operation"].startswith("is_cif")] == [
        hashlib.sha256(text.encode()).hexdigest()[:16] for text in witnesses
    ]
    pool = hashlib.sha256(repr(make_config(0, H).degree_pool).encode()).hexdigest()[:16]
    assert [r["digest"] for r in rows if r["operation"] == "make_config"] == [pool]
    # the generator rows digest the draws of make_config(0, H)
    cfg = make_config(0, H)
    drawn = {
        "gen_pair": "&".join(map(table_fingerprint, gen_pair(cfg, kind="subspace"))),
        "gen_cif_ideal": table_fingerprint(gen_cif_ideal(cfg)),
        "gen_anti_hom": repr(gen_anti_hom(cfg).matrix),
    }
    assert {r["operation"]: r["digest"] for r in rows if r["input"] == "config"} == {
        op: hashlib.sha256(text.encode()).hexdigest()[:16] for op, text in drawn.items()
    }
    # the command rows digest the exit code and the stdout of run_cli on the spec files
    time_kernels, commands = import_time_kernels(), {}
    for kind in ("palette", "per-vector"):
        path = tmp_path / f"{kind}.spec"
        path.write_text(time_kernels.spec_text(H, *time_kernels.inputs("H", H, kind)))
        for argv in (
            ["compute", "sum", str(path), "--left", "A", "--right", "B"],
            ["check", "subspace", str(path), "--name", "A"],
        ):
            code = run_cli(argv)
            text = f"{code}\n{capsys.readouterr().out}"
            commands[kind, f"run_cli {argv[0]} {argv[1]}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert text.startswith("0\n# vector") if argv[0] == "compute" else text == "3\nsubspace A: FAIL\n"
    assert {(r["input"], r["operation"]): r["digest"] for r in rows if r["operation"].startswith("run_cli")} == commands
    assert all(r["algebra"] == "H" and r["size"] == 9 and r["best_s"] > 0 for r in rows)


def test_time_kernels_writes_the_spec_files_it_parses(tmp_path):
    """``--write-spec`` writes the palette and per-vector workspaces of
    each algebra, the text that its ``parse_spec`` rows parse, and times
    nothing."""
    done = run_script("time_kernels.py", "--algebras", "H,F5^5", "--write-spec", str(tmp_path / "specs"))
    assert done.returncode == 0, done.stdout + done.stderr
    names = ["H-palette.spec", "H-per-vector.spec", "F5_5-palette.spec", "F5_5-per-vector.spec"]
    assert done.stdout.splitlines() == [str(tmp_path / "specs" / name) for name in names]
    time_kernels = import_time_kernels()
    known = time_kernels.algebras()
    for name in names:
        algebra, kind = name.removesuffix(".spec").replace("_", "^").split("-", 1)
        alg = known[algebra]
        text = (tmp_path / "specs" / name).read_text()
        assert text == time_kernels.spec_text(alg, *time_kernels.inputs(algebra, alg, kind))
        assert parse_spec(text).sets["A"].cifset.space == alg
    # every nonzero vector of the per-vector file has its own degree
    per_vector = parse_spec((tmp_path / "specs" / "F5_5-per-vector.spec").read_text()).sets
    assert len({d for S in per_vector.values() for d in S.cifset.table.values()}) == 2 * (known["F5^5"].size - 1) + 1


def test_time_kernels_times_the_fixture_osp12(osp12_F3):
    """The script's osp12 is the osp(1|2)/F_3 fixture, the one perfect
    algebra it times."""
    assert import_time_kernels().algebras()["osp12"] == osp12_F3
