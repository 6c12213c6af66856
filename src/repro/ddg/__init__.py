"""Dynamic dependence graph (paper section 4): shadow memory, the
statement/dependence point streams, and the Instrumentation-II builder.
"""

from .builder import DDGBuilder
from .graph import (
    DDGSink,
    DepKey,
    MEM_ANTI,
    MEM_FLOW,
    MEM_OUTPUT,
    REG_FLOW,
    RecordingSink,
    Statement,
    StmtKey,
)
from .shadow import ShadowMemory

__all__ = [
    "DDGBuilder",
    "DDGSink",
    "DepKey",
    "MEM_ANTI",
    "MEM_FLOW",
    "MEM_OUTPUT",
    "REG_FLOW",
    "RecordingSink",
    "ShadowMemory",
    "Statement",
    "StmtKey",
]
