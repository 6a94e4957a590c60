"""Pins the law catalog's trials: inputs digests, RNG order and witness text.

Every catalog id runs its first ``TRIALS`` trials on H under a set of
sabotaged kernels.  Each sabotage rebinds one or more ciflie functions in
every loaded ciflie module (as the benchmark tracer does) with a wrong
but deterministic stand-in, so the laws fail and their reports show
which inputs each trial drew and how the failing check is labelled.  The
expected reports were recorded from the unrefactored catalog and are
kept in ``data/catalog_pins.json``; a runner that draws its inputs in
another order, or relabels a check, changes them.

``fail-every-check`` makes every equality, containment and predicate
fail, so it pins the inputs digest of every trial and the label of each
runner's first check.  Every id must fail at least once under some other
sabotage, so every id is also pinned on a wrong kernel that it catches.

Re-record (only when the catalog is meant to change):

    PYTHONPATH=src python tests/test_catalog_pins.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import ciflie
from ciflie import (
    CATALOG,
    CIFDegree,
    CIFSet,
    PrimeField,
    Report,
    check_theorem,
    make_config,
    space_vectors,
    superalgebra_from_pairs,
)
from ciflie.generators import trial_config
from helpers import rebind_everywhere

PINS = Path(__file__).resolve().parent / "data" / "catalog_pins.json"
SEED = 1
TRIALS = 10


def _complement(A: CIFSet) -> CIFSet:
    """Memberships and non-memberships swapped: an antitone stand-in."""
    return CIFSet(A.space, {x: CIFDegree(d.non, d.mem) for x, d in A.table.items()})


def _translated(A: CIFSet) -> CIFSet:
    """A shifted by the first basis vector: linear laws fail for it."""
    alg = A.space
    p = alg.field.p
    shift = alg.basis(0)
    return CIFSet(
        alg,
        {
            x: A.table[tuple((a - b) % p for a, b in zip(x, shift))]
            for x in space_vectors(alg)
        },
    )


def _sabotages(orig: dict) -> dict:
    """name -> {(module, function): stand-in}; ``orig`` holds the
    unpatched functions the stand-ins may call."""
    failed = Report(False, ("sabotaged",))
    return {
        "fail-every-check": {
            ("cifset", "first_difference"): lambda A, B: A.space.zero(),
            ("cifset", "subset_of"): lambda A, B: False,
            ("cifset", "is_direct_sum"): lambda A, B: False,
            ("cifset", "is_cif_subspace"): lambda A: failed,
            ("cifset", "is_cif_ideal"): lambda A: failed,
            ("cifset", "is_z2_graded"): lambda A: failed,
        },
        "sum->intersection": {("cifset", "cif_sum"): orig["intersection"]},
        "sum->translated": {
            ("cifset", "cif_sum"): lambda A, B: _translated(orig["cif_sum"](A, B))
        },
        "bracket->sum": {("bracket", "bracket_product"): orig["cif_sum"]},
        "bracket->left": {("bracket", "bracket_product"): lambda A, B: A},
        "bracket->translated": {
            ("bracket", "bracket_product"): lambda A, B: _translated(
                orig["bracket_product"](A, B)
            )
        },
        "bracket->complement": {
            ("bracket", "bracket_product"): lambda A, B: _complement(
                orig["bracket_product"](A, B)
            )
        },
        "graded-parts->trivial": {
            ("bracket", "bracket_graded_parts"): lambda A, B: (
                orig["trivial_cifset"](A.space),
                orig["trivial_cifset"](A.space),
            )
        },
        "scalar->identity": {("cifset", "scalar_action"): lambda alpha, A: A},
        "image->translated": {
            ("cifset", "image"): lambda m, A: _translated(orig["image"](m, A))
        },
        "preimage->translated": {
            ("cifset", "preimage"): lambda m, B: _translated(orig["preimage"](m, B))
        },
        "oracle->sum": {("bracket", "bracket_product_oracle"): orig["cif_sum"]},
    }


_ORIGINALS = (
    "intersection", "cif_sum", "bracket_product", "trivial_cifset", "image", "preimage",
)


def _run_catalog(algebra) -> dict:
    """id -> [[trial index, inputs digest, witness], ...] on one kernel."""
    cfg = make_config(SEED, algebra)
    index = {trial_config(cfg, i).seed: i for i in range(TRIALS)}
    out = {}
    for theorem_id in CATALOG:
        try:
            report = check_theorem(theorem_id, cfg, TRIALS)
        except Exception as exc:  # a sabotage may break a runner outright
            out[theorem_id] = f"raises {type(exc).__name__}: {exc}"
            continue
        out[theorem_id] = sorted(
            [index[f.seed], f.inputs_digest, f.witness] for f in report.failures
        )
    return out


def observe(algebra, setattr_) -> dict:
    """sabotage -> the catalog's failures under it."""
    orig = {name: getattr(ciflie, name) for name in _ORIGINALS}
    observed = {}
    for name, patches in _sabotages(orig).items():
        undo = []

        def record(module, attr, value):
            undo.append((module, attr, getattr(module, attr)))
            setattr_(module, attr, value)

        for (mod, func), stand_in in patches.items():
            original = getattr(getattr(ciflie, mod), func)
            rebind_everywhere(original, stand_in, record)
        try:
            observed[name] = _run_catalog(algebra)
        finally:
            for module, attr, value in reversed(undo):
                setattr_(module, attr, value)
    return observed


def _h():
    return superalgebra_from_pairs(PrimeField(3), (0, 1), {(1, 1): (1, 0)})


def test_catalog_reports_match_the_pins():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    assert expected["seed"] == SEED and expected["trials"] == TRIALS
    observed = observe(_h(), setattr)
    for sabotage, by_id in expected["reports"].items():
        assert list(observed[sabotage]) == list(by_id), sabotage
        for theorem_id, failures in by_id.items():
            assert observed[sabotage][theorem_id] == failures, (sabotage, theorem_id)
    assert list(observed) == list(expected["reports"])


def test_pins_cover_every_trial_and_every_id():
    expected = json.loads(PINS.read_text(encoding="utf-8"))["reports"]
    assert list(expected["fail-every-check"]) == list(CATALOG)
    for theorem_id, failures in expected["fail-every-check"].items():
        assert [f[0] for f in failures] == list(range(TRIALS)), theorem_id
    for theorem_id in CATALOG:
        caught = [
            name
            for name, by_id in expected.items()
            if name != "fail-every-check" and by_id[theorem_id]
        ]
        assert caught, f"{theorem_id} fails under no kernel sabotage"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    data = {"seed": SEED, "trials": TRIALS, "reports": observe(_h(), setattr)}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
