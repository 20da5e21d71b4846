"""Deciding the Boolean state separation property of transition systems.

The package answers, for any of the 256 Boolean interaction types, whether
every pair of distinct states in a finite labeled transition system is told
apart by some region, and exhibits regions or refutations.  It also ships
the complexity classification of all types, hardness-instance generators
with explicit witness families, system extensions transferring decisions
between types, and exhaustive small-system oracles backing everything up.

Importing the package loads no submodule.  A name in ``__all__``, or one of
the submodules ``classify``, ``core``, ``engine``, ``oracle`` and
``reductions`` that export them, is imported on first use (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {
    "classify": (
        "Classification",
        "Complexity",
        "FLIP",
        "classify_type",
        "enumerate_types",
        "flip_region",
        "flip_type",
        "is_np_complete",
        "row_census",
    ),
    "core": (
        "Decision",
        "Interaction",
        "Region",
        "SeparationReport",
        "SspKitError",
        "TransitionSystem",
        "is_normalized",
        "is_region",
        "normalize_region",
        "propagate_region",
        "type_name",
        "type_of",
        "validate_ts",
    ),
    "engine": (
        "AtomStatus",
        "AtomVerdict",
        "decide_ssp",
        "solve_atom",
    ),
    "oracle": (
        "brute_force_decide",
        "brute_force_regions",
        "brute_force_supports",
        "embedding_certificate",
        "fast_path_swap_core",
    ),
    "reductions": (
        "CmFormula",
        "ExtensionKind",
        "check_one_in_three",
        "cm_oracle",
        "cm_validate",
        "example_formula",
        "extend",
        "gen_nop_free",
        "gen_nop_free_alpha_region",
        "gen_nop_free_witness",
        "gen_nop_inp",
        "gen_nop_inp_witness",
        "nop_free_gadget_facts",
        "prime_formula",
        "substitute_free_res",
        "unsat_formula_m4",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # __import__, unlike importlib.import_module, shows in -X importtime
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
