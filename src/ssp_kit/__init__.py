"""Deciding the Boolean state separation property of transition systems.

The package answers, for any of the 256 Boolean interaction types, whether
every pair of distinct states in a finite labeled transition system is told
apart by some region, and exhibits regions or refutations.  It also ships
the complexity classification of all types, hardness-instance generators
with explicit witness families, system extensions transferring decisions
between types, and exhaustive small-system oracles backing everything up.
"""

from .classify import (
    Classification,
    Complexity,
    FLIP,
    classify_type,
    enumerate_types,
    flip_region,
    flip_type,
    is_np_complete,
    row_census,
)
from .core import (
    Interaction,
    Region,
    SspKitError,
    TransitionSystem,
    is_normalized,
    is_region,
    normalize_region,
    propagate_region,
    type_name,
    type_of,
    validate_ts,
)
from .engine import (
    AtomStatus,
    AtomVerdict,
    Decision,
    SeparationReport,
    brute_force_decide,
    brute_force_regions,
    brute_force_supports,
    decide_ssp,
    embedding_certificate,
    fast_path_swap_core,
    solve_atom,
)
from .reductions import (
    CmFormula,
    ExtensionKind,
    check_one_in_three,
    cm_oracle,
    cm_validate,
    example_formula,
    extend,
    gen_nop_free,
    gen_nop_free_alpha_region,
    gen_nop_free_witness,
    gen_nop_inp,
    gen_nop_inp_witness,
    nop_free_gadget_facts,
    prime_formula,
    substitute_free_res,
    unsat_formula_m4,
)

__version__ = "0.1.0"

__all__ = [
    "AtomStatus",
    "AtomVerdict",
    "Classification",
    "CmFormula",
    "Complexity",
    "Decision",
    "ExtensionKind",
    "FLIP",
    "Interaction",
    "Region",
    "SeparationReport",
    "SspKitError",
    "TransitionSystem",
    "brute_force_decide",
    "brute_force_regions",
    "brute_force_supports",
    "check_one_in_three",
    "classify_type",
    "cm_oracle",
    "cm_validate",
    "decide_ssp",
    "embedding_certificate",
    "enumerate_types",
    "example_formula",
    "extend",
    "fast_path_swap_core",
    "flip_region",
    "flip_type",
    "gen_nop_free",
    "gen_nop_free_alpha_region",
    "gen_nop_free_witness",
    "gen_nop_inp",
    "gen_nop_inp_witness",
    "is_normalized",
    "is_np_complete",
    "is_region",
    "nop_free_gadget_facts",
    "normalize_region",
    "prime_formula",
    "propagate_region",
    "row_census",
    "solve_atom",
    "substitute_free_res",
    "type_name",
    "type_of",
    "unsat_formula_m4",
    "validate_ts",
]
