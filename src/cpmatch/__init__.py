"""Contextual pattern matching over the suffix arrays of a text and its reverse.

A query is a pattern P plus a context length ell; the answer is one
suffix-array range per distinct string X P Y with |X| = |Y| = ell occurring
in the text, where positions beyond either end read as a terminator symbol.
"""

from .corpus import (
    SENTINEL,
    SENTINEL_BYTE,
    Text,
    encode_pattern,
    load_text,
    padded_symbol,
    reverse_text,
)
from .errors import (
    BadMagicError,
    CorruptSectionError,
    CpmatchError,
    EmptyInputError,
    EmptyPatternError,
    IndexFormatError,
    SentinelByteError,
    SentinelInPatternError,
    UnsupportedVersionError,
)
from .generate import generate_repetitive
from .index import (
    C_UNDEFINED,
    ContextMatch,
    CpmIndex,
    MappingStrategy,
    QueryTrace,
    build_index,
    enumerate_occurrences,
    extract_context,
    query,
)
from .oracle import oracle_contexts
from .persistence import load_index, save_index
from .rmq import QueryStats, RmqStructure, partition_interval
from .suffixes import (
    SuffixEnsemble,
    build_ensemble,
    compute_bwt_runs,
    find_pattern_range,
)

__version__ = "0.1.0"

__all__ = [
    "SENTINEL",
    "SENTINEL_BYTE",
    "Text",
    "encode_pattern",
    "load_text",
    "padded_symbol",
    "reverse_text",
    "BadMagicError",
    "CorruptSectionError",
    "CpmatchError",
    "EmptyInputError",
    "EmptyPatternError",
    "IndexFormatError",
    "SentinelByteError",
    "SentinelInPatternError",
    "UnsupportedVersionError",
    "generate_repetitive",
    "C_UNDEFINED",
    "ContextMatch",
    "CpmIndex",
    "MappingStrategy",
    "QueryTrace",
    "build_index",
    "enumerate_occurrences",
    "extract_context",
    "query",
    "oracle_contexts",
    "load_index",
    "save_index",
    "QueryStats",
    "RmqStructure",
    "partition_interval",
    "SuffixEnsemble",
    "build_ensemble",
    "compute_bwt_runs",
    "find_pattern_range",
    "__version__",
]
