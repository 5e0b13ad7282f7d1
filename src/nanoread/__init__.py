"""Sliding-window read channel: transform, deletion code, reconstruction."""

from .balls import (
    deletion_ball,
    restricted_ball,
    rho_geq,
    runs,
    sticky_ball,
    sticky_read_images,
)
from .bounds import (
    BoundReport,
    bound_report,
    bound_table,
    expected_runs,
    redundancy_lower_bound,
    tail_count,
    weighted_sum,
)
from .code import (
    CodeParams,
    DecodeFailure,
    DecodeOutcome,
    MalformedInputError,
    best_residue,
    decode,
    encode,
    enumerate_code,
    immediate_correct,
    is_member,
    syndrome,
    vt_insert,
)
from .core import (
    LengthMismatchError,
    ResourceLimitError,
    all_words,
    is_valid_read_vector,
    read_vector,
    recover_from_mod2,
)
from .reconstruct import InconsistentReadsError, reconstruct_two

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CodeParams",
    "DecodeFailure",
    "DecodeOutcome",
    "InconsistentReadsError",
    "LengthMismatchError",
    "MalformedInputError",
    "ResourceLimitError",
    "all_words",
    "best_residue",
    "bound_report",
    "bound_table",
    "decode",
    "deletion_ball",
    "encode",
    "enumerate_code",
    "expected_runs",
    "immediate_correct",
    "is_member",
    "is_valid_read_vector",
    "read_vector",
    "reconstruct_two",
    "recover_from_mod2",
    "redundancy_lower_bound",
    "restricted_ball",
    "rho_geq",
    "runs",
    "sticky_ball",
    "sticky_read_images",
    "syndrome",
    "tail_count",
    "vt_insert",
    "weighted_sum",
]
