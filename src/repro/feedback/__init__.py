"""Feedback reporting (paper sections 6-8): strides, region metrics,
textual reports, and annotated flame graphs.
"""

from .flamegraph import render_flamegraph_svg
from .metrics import RegionMetrics, compute_region_metrics, region_closure
from .regions import RegionCandidate, suggest_region, suggest_regions
from .report import LoopDimReport, NestReport, nest_report, render_report
from .stride import (
    GOOD_STRIDES,
    access_stride,
    good_stride_fraction,
    reuse_percent,
    stride_scores,
)

__all__ = [
    "GOOD_STRIDES",
    "LoopDimReport",
    "NestReport",
    "RegionCandidate",
    "RegionMetrics",
    "access_stride",
    "compute_region_metrics",
    "good_stride_fraction",
    "nest_report",
    "region_closure",
    "render_flamegraph_svg",
    "render_report",
    "reuse_percent",
    "stride_scores",
    "suggest_region",
    "suggest_regions",
]
