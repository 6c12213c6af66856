"""Parallel sharded folding: multi-core stage 2.

Folding dominates stage-2 wall time and is embarrassingly parallel at
stream granularity: every statement stream and every dependence stream
folds independently of all others (see INTERNALS.md §10 for the full
determinism argument).  This package partitions the stage-2 point
stream by statement/dependence key, folds the shards in worker
processes, and merges the per-shard folded unions into one
:class:`~repro.folding.folder.FoldedDDG` that is bit-identical to the
serial fold -- same codec bytes, same ``ddg-`` cache artifacts.

Identity is stated for the streams the block-compiled execution
produces for runs that reach ``finalize()``: whole per-block batches
(:class:`ShardRouter` routes nothing else).  The one stream shape
outside the contract is a *prefix* batch -- partial delivery from a
faulting block -- which the serial fast sink folds into the shared
group folder (visible to non-prefix members) while a sharded fold
would not; it cannot matter, because a faulted run re-raises before
finalize and never yields a folded DDG.
"""

from .shard import (
    ShardRouter,
    apply_chunk,
    merge_shards,
    shard_of_dep,
    shard_of_stmt,
)
from .workers import ParallelFoldError, ParallelFoldManager

__all__ = [
    "ParallelFoldError",
    "ParallelFoldManager",
    "ShardRouter",
    "apply_chunk",
    "merge_shards",
    "shard_of_dep",
    "shard_of_stmt",
]
