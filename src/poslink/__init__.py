"""poslink: link invariants and positivity obstructions from diagrams.

Compute Jones and Conway polynomials, integral Khovanov homology, and the
diagram-independent inequalities that every positive link with second
Jones coefficient of absolute value 0, 1, or 2 must satisfy.

Every export is named once, in ``_EXPORTS`` under the submodule that
defines it, and is looked up there on first access.  Importing the
package loads the diagram layer and the batch and record classes
(``diagram``, ``batch``, ``errors``); ``laurent`` (Jones polynomial and
polynomial text), ``burau`` (Conway polynomial, with ``seifert`` for PD
codes), ``khovanov`` (with ``tangle`` and ``snf``) and ``obstruction``
load when one of their exports is first used.  So a run that computes
only polynomials never compiles the homology, and one that computes only
homology never compiles the polynomial layers.  The record and value
classes are written out by hand, so an import generates no class code
and never loads ``inspect``.
"""

from importlib import import_module

# submodule -> its exports; no submodule is named after an export, so
# importing one never rebinds an exported name
_EXPORTS = {
    "diagram": (
        "BraidWord", "CrossingSigns", "Diagram", "a_state_circles", "all_a_state",
        "all_b_state", "b_state_circles", "braid_closure", "components", "crossing_signs",
        "is_positive", "parse_braid", "parse_pd", "state_circles", "writhe",
    ),
    "batch": (
        "BatchResult", "LinkRecord", "RecordResult", "cmd_compute", "cmd_survey", "cmd_test",
        "ingest_csv", "positive_braid_words", "survey_corpus",
    ),
    "laurent": (
        "JonesSummary", "LaurentPoly", "format_poly", "jones_summary", "jones_V",
        "kauffman_bracket", "lickorish_bounds", "parse_poly", "unnormalized_to_v",
        "v_to_unnormalized",
    ),
    "burau": ("conway", "lead_coeff_conway"),
    "khovanov": (
        "BigradedGroups", "ChainSlice", "GradingSummary", "chain_slices",
        "euler_characteristic", "extreme_gradings", "format_kh_polynomial", "kh1_rank",
        "khovanov_homology", "parse_kh_polynomial",
    ),
    "obstruction": (
        "ObstructionInput", "ObstructionReport", "Strength", "TestKind", "Verdict", "gamma",
        "jones_test", "khovanov_test", "khovanov_test_from_kh1", "strength_comparison",
    ),
}
# export -> submodule, imported on first access (PEP 562)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

import_module(".batch", __name__)  # and with it .diagram and .errors


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"
