"""Binary block codes as BCK/Hilbert algebras.

Build finite algebras from codes (by matrix extension or directly on the
codewords), verify their axioms exhaustively, enumerate and classify their
filters, recover codes through cut rows, and run an isomorphism census of
the generating matrix family.
"""

from .algebra import (
    are_isomorphic,
    bck_order,
    bck_properties,
    dualize,
    refine_colors,
    verify_axioms,
)
from .codegen import (
    census,
    cut_code,
    local_family,
    local_family_free_bit_count,
    roundtrip_check,
    semisimple_family,
)
from .embedding import direct_algebra, embed_code, extend_matrix, tail_set_check
from .errors import FormatError, UsageError
from .fileio import (
    parse_algebra_file,
    parse_code_file,
    serialize_algebra,
    serialize_code,
)
from .filters import all_filters, classify, generated_filter, is_filter, maximal_filters
from .model import (
    DOT,
    STAR,
    BlockCode,
    CensusReport,
    ClassificationReport,
    CutResult,
    Embedding,
    OpTable,
    Poset,
    RoundtripReport,
)
from .posets import hasse_covers

__all__ = [
    "BlockCode",
    "CensusReport",
    "ClassificationReport",
    "CutResult",
    "DOT",
    "Embedding",
    "FormatError",
    "OpTable",
    "Poset",
    "RoundtripReport",
    "STAR",
    "UsageError",
    "all_filters",
    "are_isomorphic",
    "bck_order",
    "bck_properties",
    "census",
    "classify",
    "cut_code",
    "direct_algebra",
    "dualize",
    "embed_code",
    "extend_matrix",
    "generated_filter",
    "hasse_covers",
    "is_filter",
    "local_family",
    "local_family_free_bit_count",
    "maximal_filters",
    "parse_algebra_file",
    "parse_code_file",
    "refine_colors",
    "roundtrip_check",
    "semisimple_family",
    "serialize_algebra",
    "serialize_code",
    "tail_set_check",
    "verify_axioms",
]
