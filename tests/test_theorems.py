import pytest

import ciflie
from ciflie import (
    CATALOG,
    THEOREM_IDS,
    Report,
    SpanBuilder,
    SubspaceBasis,
    check_theorem,
    make_config,
    negative_controls,
    run_cli,
)
from ciflie import generators, theorems
from ciflie.theorems import NEGATIVE_CONTROLS
from helpers import rebind_everywhere


EXPECTED_IDS = {
    "mylemma-1",
    "sum-ideal",
    "lem-1",
    "lem-2",
    "lem-3",
    "lem-4",
    "lem-5",
    "thrm-1",
    "thrm-2",
    "thrm-3",
    "thrm-4",
    "thrm-9",
    "thrm-10",
    "thrm-11",
    "thrm-15",
    "preimg-bracket",
    "cor-image-bilinear",
    "cor-preimage-bilinear",
}


def test_catalog_covers_every_stable_id():
    assert set(THEOREM_IDS) == EXPECTED_IDS
    assert "oracle" in CATALOG


def test_unknown_id_rejected(H):
    with pytest.raises(KeyError):
        check_theorem("thrm-999", make_config(0, H), 1)


@pytest.mark.parametrize("theorem_id", sorted(EXPECTED_IDS) + ["oracle"])
def test_catalog_smoke_on_h(theorem_id, H):
    report = check_theorem(theorem_id, make_config(1234, H), 8)
    assert report.passed, report.failures[:2]
    assert report.trials == 8


@pytest.mark.parametrize("theorem_id", ["lem-5", "thrm-2", "thrm-3", "thrm-15"])
def test_catalog_smoke_on_l3(theorem_id, L3):
    report = check_theorem(theorem_id, make_config(77, L3), 4)
    assert report.passed, report.failures[:2]


def test_only_failing_trials_are_digested(H, monkeypatch):
    """The harness hashes a trial's inputs only to report its failure:
    not at all on a passing catalog, once per failure when every check
    fails."""
    calls = []
    digest = theorems._digest
    monkeypatch.setattr(theorems, "_digest", lambda *sets: calls.append(sets) or digest(*sets))
    cfg = make_config(1234, H)
    for theorem_id in CATALOG:
        assert check_theorem(theorem_id, cfg, 3).passed
    assert calls == []
    failed = Report(False, ("sabotaged",))
    for name, stand_in in {
        "first_difference": lambda A, B: A.space.zero(),
        "subset_of": lambda A, B: False,
        "is_direct_sum": lambda A, B: False,
        "is_cif_subspace": lambda A: failed,
        "is_cif_ideal": lambda A: failed,
        "is_z2_graded": lambda A: failed,
    }.items():
        rebind_everywhere(getattr(ciflie, name), stand_in, monkeypatch.setattr)
    failures = [f for theorem_id in CATALOG for f in check_theorem(theorem_id, cfg, 3).failures]
    assert len(failures) == 3 * len(CATALOG)
    assert len(calls) == len(failures)
    assert sorted(f.inputs_digest for f in failures) == sorted(digest(*sets) for sets in calls)


def test_each_trial_draws_one_pool(H, monkeypatch):
    """A config draws its degree pool on first read, and a trial reads
    only its own config's: check_theorem draws one pool per trial and
    none for the config it is handed, and so do the negative controls."""
    draws = []
    draw = generators.make_degree_pool
    monkeypatch.setattr(generators, "make_degree_pool", lambda rng, length: draws.append(length) or draw(rng, length))
    for theorem_id in CATALOG:
        draws.clear()
        check_theorem(theorem_id, make_config(5, H), 3)
        assert len(draws) == 3, theorem_id
    draws.clear()
    report = negative_controls(make_config(5, H))
    assert len(draws) == report.trials


def test_lem5_trivial_on_abelian(AB2):
    report = check_theorem("lem-5", make_config(0, AB2), 1)
    assert report.passed


def test_thrm2_alpha_one_passes(H):
    # alpha = 1 is the identity action; any seed that draws it passes
    report = check_theorem("thrm-2", make_config(3, H), 10)
    assert report.passed


def test_reports_are_deterministic(H):
    cfg = make_config(42, H)
    r1 = check_theorem("lem-1", cfg, 6)
    r2 = check_theorem("lem-1", cfg, 6)
    assert r1 == r2


def test_negative_controls_all_falsified_on_h(H):
    report = negative_controls(make_config(11, H), trials=100)
    assert report.passed, report.failures
    for name in NEGATIVE_CONTROLS:
        assert f"{name}: falsified at seed" in report.note


def test_negative_controls_partially_inapplicable_on_abelian(AB2):
    report = negative_controls(make_config(11, AB2), trials=30)
    # the ideal mutation has no witness on an abelian algebra
    assert "ideal-on-nonideal: not applicable" in report.note


@pytest.mark.parametrize("name", ["sl2", "C2"])
def test_catalog_and_controls_on_larger_derived_algebras(request, name):
    """A few trials of every law, and the negative controls, where the
    bracket products span more than one dimension."""
    cfg = make_config(7, request.getfixturevalue(name))
    failing = [tid for tid in sorted(CATALOG) if not check_theorem(tid, cfg, 2).passed]
    assert failing == []
    report = negative_controls(cfg, trials=60)
    assert report.passed, report.failures
    # sl2 is all even, so only the grading control has no witness there
    inapplicable = ["graded-on-nongraded"] if name == "sl2" else []
    assert [n for n in NEGATIVE_CONTROLS if f"{n}: not applicable" in report.note] == inapplicable


@pytest.mark.parametrize("name", ["gl11_F3", "osp12_F3", "gl11_F5"])
def test_catalog_on_mixed_brackets(request, name):
    """Two trials of every law on gl(1|1) and osp(1|2), whose even parts
    act on their odd parts.  Ladder and oracle are compared there in
    test_oracle."""
    cfg = make_config(7, request.getfixturevalue(name))
    assert [tid for tid in THEOREM_IDS if not check_theorem(tid, cfg, 2).passed] == []


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("name", ["osp12_F3", "gl11_F3", "gl11_F5"])
def test_negative_controls_fire_on_mixed_brackets(request, name, seed):
    """On these algebras the brackets of two arbitrary sets and of their
    arbitrary subsets often reach the same cuts, so the reversed lem-1
    control cuts its smaller pair from graded subspaces to fire."""
    assert negative_controls(make_config(seed, request.getfixturevalue(name)), 20).passed


GUARD_SPEC = """\
field 3
space H dim 2 parity 0 1
bracket H 1 1 -> 1 0
map phi H -> H kind anti rows 2 0 / 0 1
"""


def test_no_production_path_builds_an_echelon_form(H, L3, tmp_path, monkeypatch):
    """Subspaces are carrier bitsets outside the joint ladder: with the
    echelon classes refusing every use, the catalog, the negative
    controls and the map checks of the CLI still run."""

    def refuse(*args, **kwargs):
        raise AssertionError("an echelon form was built")

    monkeypatch.setattr(SpanBuilder, "add", refuse)
    monkeypatch.setattr(SpanBuilder, "contains", refuse)
    monkeypatch.setattr(SubspaceBasis, "__post_init__", refuse)
    for alg in (H, L3):
        for theorem_id in CATALOG:
            assert check_theorem(theorem_id, make_config(5, alg), 2).passed, theorem_id
    assert negative_controls(make_config(5, H), 20).passed
    path = tmp_path / "phi.spec"
    path.write_text(GUARD_SPEC, encoding="utf-8")
    assert run_cli(["validate", str(path)]) == 0
    assert run_cli(["check", "anti-hom", str(path), "--name", "phi"]) == 0
