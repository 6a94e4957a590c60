"""Exact workbench for complex intuitionistic fuzzy sets over finite
Lie superalgebras: degree lattices, set calculus, bracket products with
an independent oracle, a theorem suite, and a small spec language."""

__version__ = "0.1.0"

from .degrees import (
    BOTTOM,
    CIFDegree,
    Degree,
    EMPTY,
    FULL,
    TOP,
    cif_degree,
    deg_join,
    deg_leq,
    deg_meet,
)
from .superalgebra import (
    GradedMap,
    PrimeField,
    SpanBuilder,
    SubspaceBasis,
    Superalgebra,
    Vector,
    apply_map,
    bracket_eval,
    graded_split,
    space_vectors,
    span_closure,
    superalgebra_from_pairs,
    validate_map,
    validate_superalgebra,
)
from .cifset import (
    CIFSet,
    cif_sum,
    component_extension,
    first_difference,
    image,
    intersection,
    is_cif_ideal,
    is_cif_subspace,
    is_direct_sum,
    is_homogeneous,
    is_trivial,
    is_z2_graded,
    make_cifset,
    pair_homogeneous,
    preimage,
    scalar_action,
    subset_of,
    trivial_cifset,
)
from .bracket import (
    LevelCutLadder,
    bracket_graded_parts,
    bracket_product,
    bracket_product_oracle,
    mem_level_ladder,
    non_level_ladder,
)
from .generators import (
    GenConfig,
    gen_anti_hom,
    gen_cif_ideal,
    gen_cif_set,
    gen_cif_subspace,
    gen_pair,
    gen_random_table,
    make_config,
    make_degree_pool,
)
from .theorems import (
    CATALOG,
    THEOREM_IDS,
    TheoremReport,
    check_theorem,
    negative_controls,
)
from .specfile import SpecError, Workspace, parse_spec, serialize
from .report import MapReport, Report
from .cli import run_cli
