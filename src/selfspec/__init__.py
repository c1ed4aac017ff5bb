"""Lossless speculative decoding for masked-diffusion text generation.

The model drafts the masked positions of the current block (and of the next
one when the current block holds too few) in one forward pass, a
verification tree re-checks the most confident candidates in one batched
forward, and the accepted prefix is guaranteed token-identical to plain
stepwise decoding.
"""

from .analyzer import (
    format_grid,
    kary_tree_size,
    topk_match_reduction,
    upper_bound,
)
from .models import (
    FixtureMissError,
    MaskedModel,
    SynthModelConfig,
    SyntheticModel,
    TableModel,
    dump_table_fixture,
    load_table_fixture,
    softmax_matrix,
)
from .reporting import (
    Report,
    RunConfig,
    render_report,
    report_from_lines,
    report_to_lines,
)
from .sequence import (
    IllegalWriteError,
    SequenceState,
    block_partition,
    current_block,
    initial_state,
    place_token,
    schedule_for,
)
from .ssd import (
    Drafts,
    RoundStats,
    SsdResult,
    TreeNode,
    VerificationTree,
    VerifyResult,
    batch_verify,
    build_tree,
    drafts_from_logits,
    select_candidates,
    ssd_decode,
)
from .stepwise import (
    DecodeTrace,
    read_trace,
    stepwise_decode,
    trace_from_lines,
    trace_to_lines,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "DecodeTrace",
    "Drafts",
    "FixtureMissError",
    "IllegalWriteError",
    "MaskedModel",
    "Report",
    "RoundStats",
    "RunConfig",
    "SequenceState",
    "SsdResult",
    "SynthModelConfig",
    "SyntheticModel",
    "TableModel",
    "TreeNode",
    "VerificationTree",
    "VerifyResult",
    "batch_verify",
    "block_partition",
    "build_tree",
    "current_block",
    "drafts_from_logits",
    "dump_table_fixture",
    "format_grid",
    "initial_state",
    "kary_tree_size",
    "load_table_fixture",
    "place_token",
    "read_trace",
    "render_report",
    "report_from_lines",
    "report_to_lines",
    "schedule_for",
    "select_candidates",
    "softmax_matrix",
    "ssd_decode",
    "stepwise_decode",
    "topk_match_reduction",
    "trace_from_lines",
    "trace_to_lines",
    "upper_bound",
    "write_trace",
]
