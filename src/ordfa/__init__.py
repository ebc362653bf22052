"""Well-ordering analysis and ordinal order types for binary DFAs."""

from .dfa import Dfa, Condensation, TrimReport, condense, from_json, load
from .dfa import dump, to_json, trim
from .lexorder import (
    ChainAnalysis,
    LexRelation,
    analyze_chain,
    compare_lex,
    embed3to2,
    enumerate_words,
    extract_strict_chain,
    iter_words,
    min_word,
    successor,
)
from .ordinal import Ordinal, format_ordinal, parse_ordinal
from .ordtype import OrderTypeTable, order_type, rank
from .synth import synth, synth_mul_omega, synth_one, synth_sum, synth_times, synth_zero
from .wellorder import CheckResult, Witness, check, verify_witness, witness_chain

__all__ = [
    "ChainAnalysis",
    "CheckResult",
    "Condensation",
    "Dfa",
    "LexRelation",
    "OrderTypeTable",
    "Ordinal",
    "TrimReport",
    "Witness",
    "analyze_chain",
    "check",
    "compare_lex",
    "condense",
    "dump",
    "embed3to2",
    "enumerate_words",
    "extract_strict_chain",
    "format_ordinal",
    "from_json",
    "iter_words",
    "load",
    "min_word",
    "order_type",
    "parse_ordinal",
    "rank",
    "successor",
    "synth",
    "synth_mul_omega",
    "synth_one",
    "synth_sum",
    "synth_times",
    "synth_zero",
    "to_json",
    "trim",
    "verify_witness",
    "witness_chain",
]

__version__ = "0.1.0"
