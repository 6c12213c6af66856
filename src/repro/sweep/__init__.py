"""Multi-input sweep profiling (ROADMAP item 4).

A single-run dynamic DDG is only valid for the input that produced it
-- the paper's central caveat.  This package runs one workload over a
declared input grid, merges the per-run folded polyhedral DDGs by the
position-independent ``(func, ordinal, context)`` identity
:mod:`repro.store.stage2` established, classifies every merged
dependence (``input-invariant`` / ``shape-scaling`` /
``input-dependent``), and attaches a *confidence* to each parallelism
verdict (``all-runs`` / ``parameterized`` / ``single-run``) -- refusing
``all-runs`` unless the claim survives every run's folded DDG.

Layering::

    grid      declared sweep points, canonical ordering, default grids
    merge     per-run RunProfile extraction + identity-aligned merge
    classify  invariant / shape-scaling / input-dependent tagging
    verdict   sweep-aware parallelism confidence per nest
    codec     the versioned merged-model document and its ``swp-`` key
    driver    run_sweep(): pool warm-up, per-point analyze, merge
    feedback  text + JSON sweep documents (CLI == service bytes)
"""

from .classify import (  # noqa: F401
    INPUT_DEPENDENT,
    INPUT_INVARIANT,
    SHAPE_SCALING,
    classify_payloads,
)
from .codec import SWEEP_FORMAT_VERSION, encode_sweep, sweep_key  # noqa: F401
from .driver import SweepError, SweepResult, run_sweep  # noqa: F401
from .feedback import render_sweep_text, sweep_document  # noqa: F401
from .grid import (  # noqa: F401
    canonical_points,
    default_grid,
    normalize_point,
    parse_point,
    point_bindings,
)
from .merge import MergedModel, RunProfile, merge_profiles, profile_of  # noqa: F401
from .verdict import (  # noqa: F401
    ALL_RUNS,
    PARAMETERIZED,
    REFUSED,
    SINGLE_RUN,
    sweep_verdicts,
)
