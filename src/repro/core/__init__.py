"""The queuing protocols: arrow (the paper's subject) and its baselines."""

from repro.core.adaptive import AdaptivePointerNode, run_adaptive
from repro.core.arrow import ArrowNode
from repro.core.centralized import CentralizedNode
from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import (
    closed_loop_arrow_fast,
    closed_loop_centralized_fast,
    closed_loop_runner,
)
from repro.core.queueing import CompletionRecord, RunResult, verify_total_order
from repro.core.requests import NO_RID, ROOT_RID, Request, RequestSchedule
from repro.core.runner import run_arrow, run_centralized
from repro.core.stabilize import (
    EdgeViolation,
    count_sinks,
    find_violations_links,
    sink_reached_from,
    stabilize_links,
)

__all__ = [
    "AdaptivePointerNode",
    "run_adaptive",
    "ArrowNode",
    "CentralizedNode",
    "run_arrow_fast",
    "closed_loop_arrow_fast",
    "closed_loop_centralized_fast",
    "closed_loop_runner",
    "CompletionRecord",
    "RunResult",
    "verify_total_order",
    "NO_RID",
    "ROOT_RID",
    "Request",
    "RequestSchedule",
    "run_arrow",
    "run_centralized",
    "EdgeViolation",
    "count_sinks",
    "find_violations_links",
    "sink_reached_from",
    "stabilize_links",
]
