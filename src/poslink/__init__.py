"""poslink: link invariants and positivity obstructions from diagrams.

Compute Jones and Conway polynomials, integral Khovanov homology, and the
diagram-independent inequalities that every positive link with second
Jones coefficient of absolute value 0, 1, or 2 must satisfy.

Importing the package loads the diagram layer and the batch and record
classes (``diagram``, ``batch``, ``errors``).  Every other export is
loaded from its submodule on first access: ``laurent`` (Jones polynomial
and polynomial text), ``seifert`` (Conway polynomial), ``khovanov`` (with
``tangle`` and ``snf``) and ``obstruction``.  So a run that computes only
polynomials never compiles the homology, and one that computes only
homology never compiles the polynomial layers.  The record and value
classes are written out by hand, so an import generates no class code and
never loads ``inspect``.
"""

from importlib import import_module

from .diagram import (
    BraidWord,
    CrossingSigns,
    Diagram,
    a_state_circles,
    all_a_state,
    all_b_state,
    b_state_circles,
    braid_closure,
    components,
    crossing_signs,
    is_positive,
    parse_braid,
    parse_pd,
    state_circles,
    writhe,
)
from .batch import (
    BatchResult,
    LinkRecord,
    RecordResult,
    cmd_compute,
    cmd_survey,
    cmd_test,
    ingest_csv,
    positive_braid_words,
    survey_corpus,
)

# export -> submodule, imported on first access (PEP 562); no submodule is
# named after an export, so importing one never rebinds an exported name
_DEFERRED = {
    "JonesSummary": "laurent",
    "LaurentPoly": "laurent",
    "format_poly": "laurent",
    "jones_summary": "laurent",
    "jones_V": "laurent",
    "kauffman_bracket": "laurent",
    "lickorish_bounds": "laurent",
    "parse_poly": "laurent",
    "unnormalized_to_v": "laurent",
    "v_to_unnormalized": "laurent",
    "conway": "seifert",
    "lead_coeff_conway": "seifert",
    "BigradedGroups": "khovanov",
    "ChainSlice": "khovanov",
    "GradingSummary": "khovanov",
    "chain_slices": "khovanov",
    "euler_characteristic": "khovanov",
    "extreme_gradings": "khovanov",
    "format_kh_polynomial": "khovanov",
    "kh1_rank": "khovanov",
    "khovanov_homology": "khovanov",
    "parse_kh_polynomial": "khovanov",
    "ObstructionInput": "obstruction",
    "ObstructionReport": "obstruction",
    "Strength": "obstruction",
    "TestKind": "obstruction",
    "Verdict": "obstruction",
    "gamma": "obstruction",
    "jones_test": "obstruction",
    "khovanov_test": "obstruction",
    "khovanov_test_from_kh1": "obstruction",
    "strength_comparison": "obstruction",
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_DEFERRED))


__all__ = [
    "BatchResult",
    "BigradedGroups",
    "BraidWord",
    "ChainSlice",
    "CrossingSigns",
    "Diagram",
    "GradingSummary",
    "JonesSummary",
    "LaurentPoly",
    "LinkRecord",
    "ObstructionInput",
    "ObstructionReport",
    "RecordResult",
    "Strength",
    "TestKind",
    "Verdict",
    "a_state_circles",
    "all_a_state",
    "all_b_state",
    "b_state_circles",
    "braid_closure",
    "chain_slices",
    "cmd_compute",
    "cmd_survey",
    "cmd_test",
    "components",
    "conway",
    "crossing_signs",
    "euler_characteristic",
    "extreme_gradings",
    "format_kh_polynomial",
    "format_poly",
    "gamma",
    "ingest_csv",
    "is_positive",
    "jones_summary",
    "jones_test",
    "jones_V",
    "kauffman_bracket",
    "kh1_rank",
    "khovanov_homology",
    "khovanov_test",
    "khovanov_test_from_kh1",
    "lead_coeff_conway",
    "lickorish_bounds",
    "parse_braid",
    "parse_kh_polynomial",
    "parse_pd",
    "parse_poly",
    "positive_braid_words",
    "state_circles",
    "strength_comparison",
    "survey_corpus",
    "unnormalized_to_v",
    "v_to_unnormalized",
    "writhe",
]

__version__ = "0.1.0"
