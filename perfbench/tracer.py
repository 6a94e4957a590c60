"""Spans and counters around ciflie's public functions, from outside.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``ciflie`` module with a wrapper, so calls are seen whichever
module makes them; ``uninstall`` puts the originals back.  Spans (name,
start, end, parent span, operation id) are kept in a list in memory.
Leaf functions that run millions of times only bump exact counters.
Everything runs in one thread, so no layer waits on another and no wait
time is recorded.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Spanned functions: (module, function) -> group.  A group's time is the
# self time of its spans: their duration minus the part their child spans
# cover.
SPANNED = {
    ("superalgebra", "validate_superalgebra"): "superalgebra.validate",
    ("superalgebra", "validate_map"): "superalgebra.validate",
    ("cifset", "cif_sum"): "cifset.sum",
    **{
        ("cifset", name): "cifset.predicate"
        for name in (
            "is_cif_subspace", "is_cif_ideal", "is_z2_graded", "is_homogeneous",
            "pair_homogeneous", "subset_of", "is_direct_sum", "is_trivial",
        )
    },
    **{
        ("cifset", name): "cifset.transform"
        for name in (
            "scalar_action", "image", "preimage", "intersection",
            "component_extension",
        )
    },
    **{
        ("bracket", name): "bracket.ladder"
        for name in (
            "bracket_product", "mem_level_ladder", "non_level_ladder",
            "bracket_graded_parts",
        )
    },
    ("bracket", "bracket_product_oracle"): "bracket.oracle",
    **{
        ("generators", name): "generators"
        for name in (
            "make_config", "trial_config", "make_degree_pool", "gen_pair",
            "gen_cif_set", "gen_cif_subspace", "gen_cif_ideal", "gen_anti_hom",
            "crisp_ideal_closure",
        )
    },
    ("theorems", "check_theorem"): "theorems.harness",
    ("theorems", "negative_controls"): "theorems.harness",
    ("specfile", "parse_spec"): "specfile.parse",
    ("specfile", "serialize"): "specfile.serialize",
    **{
        ("jsonio", name): "jsonio.emit"
        for name in ("emit_json", "cifset_rows", "report_payload", "input_digest")
    },
    ("cli", "run_cli"): "cli",
}

LADDER_CALLS = {"bracket_product", "mem_level_ladder", "non_level_ladder"}

# Counted leaf functions: (module, function) -> counter.
COUNTED = {
    ("degrees", "deg_meet"): "degrees.lattice_calls",
    ("degrees", "deg_join"): "degrees.lattice_calls",
    ("degrees", "deg_leq"): "degrees.lattice_calls",
    ("superalgebra", "bracket_eval"): "superalgebra.bracket_eval_calls",
}

# Counted methods: (module, class, method) -> counter.
COUNTED_METHODS = {
    ("degrees", "Degree", "__post_init__"): "degrees.constructed",
    ("superalgebra", "SpanBuilder", "add"): "superalgebra.span_add_calls",
    ("superalgebra", "SpanBuilder", "contains"): "superalgebra.span_contains_calls",
    ("superalgebra", "SubspaceBasis", "contains"): "superalgebra.span_contains_calls",
}

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "degrees.lattice_calls": ("count", "lower"),
    "degrees.constructed": ("count", "lower"),
    "superalgebra.bracket_eval_calls": ("count", "lower"),
    "superalgebra.span_add_calls": ("count", "lower"),
    "superalgebra.span_contains_calls": ("count", "lower"),
    "superalgebra.validate_s": ("s", "lower"),
    "cifset.sum_s": ("s", "lower"),
    "cifset.sum_calls": ("count", "lower"),
    "cifset.predicate_s": ("s", "lower"),
    "cifset.transform_s": ("s", "lower"),
    "bracket.ladder_s": ("s", "lower"),
    "bracket.ladder_calls": ("count", "lower"),
    "bracket.pairs_per_ladder": ("count", "lower"),
    "bracket.componentwise_frac": ("frac", "lower"),
    "bracket.oracle_s": ("s", "lower"),
    "bracket.oracle_calls": ("count", "lower"),
    "generators.s": ("s", "lower"),
    "generators.anti_hom_accept_ratio": ("frac", "higher"),
    "theorems.harness_s": ("s", "lower"),
    "theorems.trials": ("count", "higher"),
    "specfile.parse_s": ("s", "lower"),
    "specfile.bytes_in": ("bytes", "lower"),
    "specfile.serialize_s": ("s", "lower"),
    "jsonio.emit_s": ("s", "lower"),
    "jsonio.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.commands": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def ciflie_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "ciflie" or name.startswith("ciflie."))
    ]


def replace_everywhere(package, module_name: str, func_name: str, replacement) -> list:
    """Rebind ``package.<module_name>.<func_name>`` to ``replacement`` in
    every loaded ciflie module that holds it; returns the undo list."""
    original = getattr(getattr(package, module_name), func_name)
    undo = []
    for module in ciflie_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """In-memory spans and exact counters for one traced pass."""

    def __init__(self) -> None:
        # span: [name, group, start, end, parent index, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group = None  # group of the innermost open span
        self.op_id = -1  # -1 marks set-up
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- installation ------------------------------------------------

    def install(self, package) -> None:
        for (mod, func), group in SPANNED.items():
            original = getattr(getattr(package, mod), func)
            self._undo += replace_everywhere(
                package, mod, func, self._span_wrapper(func, group, original)
            )
        for (mod, func), counter in COUNTED.items():
            original = getattr(getattr(package, mod), func)
            self._undo += replace_everywhere(
                package, mod, func, self._count_wrapper(func, counter, original)
            )
        for (mod, cls_name, meth), counter in COUNTED_METHODS.items():
            cls = getattr(getattr(package, mod), cls_name)
            original = vars(cls)[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._count_wrapper(meth, counter, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _span_wrapper(self, name: str, group: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            outer = self.group
            if name == "validate_map" and outer == "generators":
                counts["generators.validate_map_calls"] += 1
            record = [name, group, perf_counter(), 0.0, parent, self.op_id]
            spans.append(record)
            stack.append(index)
            self.group = group
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
                self.group = outer
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args, result) -> None:
        counts = self.counts
        if name == "bracket_product" and any(
            "non-homogeneous" in note for note in result.notes
        ):
            counts["bracket.componentwise"] += 1
        elif name == "gen_anti_hom":
            counts["generators.anti_hom_returned"] += 1
        elif name == "check_theorem":
            counts["theorems.trials"] += result.trials
        elif name == "parse_spec":
            counts["specfile.bytes_in"] += len(args[0].encode("utf-8"))
        elif name == "emit_json":
            counts["jsonio.bytes_out"] += len(result.encode("utf-8"))

    def _count_wrapper(self, name: str, counter: str, fn):
        counts = self.counts

        if name == "bracket_eval":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                if self.group == "bracket.ladder":
                    counts["bracket.ladder_pairs"] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- derived figures ----------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end, _, _) in enumerate(self.spans)]

    def group_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (_, group, *_), self_s in zip(self.spans, self.self_times()):
            out[group] += self_s
        return dict(out)

    def module_self_s(self) -> dict[str, float]:
        """Self time per ciflie module, from the group's module prefix."""
        out: dict[str, float] = defaultdict(float)
        for group, seconds in self.group_self_s().items():
            out[group.split(".")[0]] += seconds
        return dict(sorted(out.items()))

    def span_calls(self) -> Counter:
        """Number of spans per function name."""
        return Counter(span[0] for span in self.spans)

    def per_layer(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Every metric of PER_LAYER from this pass; ``untraced_s`` and
        ``traced_s`` are the wall times of the same operations run
        without and with tracing."""
        counts = self.counts
        group_s = self.group_self_s()
        calls = self.span_calls()
        ladder_calls = sum(calls[name] for name in LADDER_CALLS)
        products = calls["bracket_product"]
        validate_calls = counts["generators.validate_map_calls"]
        overhead = traced_s - untraced_s
        values = {
            "degrees.lattice_calls": counts["degrees.lattice_calls"],
            "degrees.constructed": counts["degrees.constructed"],
            "superalgebra.bracket_eval_calls": counts["superalgebra.bracket_eval_calls"],
            "superalgebra.span_add_calls": counts["superalgebra.span_add_calls"],
            "superalgebra.span_contains_calls": counts["superalgebra.span_contains_calls"],
            "superalgebra.validate_s": group_s.get("superalgebra.validate", 0.0),
            "cifset.sum_s": group_s.get("cifset.sum", 0.0),
            "cifset.sum_calls": calls["cif_sum"],
            "cifset.predicate_s": group_s.get("cifset.predicate", 0.0),
            "cifset.transform_s": group_s.get("cifset.transform", 0.0),
            "bracket.ladder_s": group_s.get("bracket.ladder", 0.0),
            "bracket.ladder_calls": ladder_calls,
            "bracket.pairs_per_ladder": (
                counts["bracket.ladder_pairs"] / ladder_calls if ladder_calls else 0.0
            ),
            "bracket.componentwise_frac": (
                counts["bracket.componentwise"] / products if products else 0.0
            ),
            "bracket.oracle_s": group_s.get("bracket.oracle", 0.0),
            "bracket.oracle_calls": calls["bracket_product_oracle"],
            "generators.s": group_s.get("generators", 0.0),
            "generators.anti_hom_accept_ratio": (
                counts["generators.anti_hom_returned"] / validate_calls
                if validate_calls else 0.0
            ),
            "theorems.harness_s": group_s.get("theorems.harness", 0.0),
            "theorems.trials": counts["theorems.trials"],
            "specfile.parse_s": group_s.get("specfile.parse", 0.0),
            "specfile.bytes_in": counts["specfile.bytes_in"],
            "specfile.serialize_s": group_s.get("specfile.serialize", 0.0),
            "jsonio.emit_s": group_s.get("jsonio.emit", 0.0),
            "jsonio.bytes_out": counts["jsonio.bytes_out"],
            "cli.self_s": group_s.get("cli", 0.0),
            "cli.commands": calls["run_cli"],
            "trace.overhead_s": overhead,
            "trace.overhead_frac": overhead / untraced_s if untraced_s else 0.0,
        }
        return values

    def counters(self) -> dict[str, int]:
        """Every exact count of the pass, for the determinism check."""
        out = dict(self.counts)
        out.update((f"calls.{name}", n) for name, n in self.span_calls().items())
        return dict(sorted(out.items()))

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "group": g, "start": s, "end": e, "parent": p, "op": o}
            for n, g, s, e, p, o in self.spans
        ]
