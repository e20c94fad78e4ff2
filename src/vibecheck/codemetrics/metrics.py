"""Combined structural metrics for one source unit."""

from __future__ import annotations

from typing import Optional, Union

from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.cfg import (
    ControlFlowGraph,
    build_cfg,
    cfg_entropy,
    cyclomatic_complexity,
)
from vibecheck.codemetrics.halstead import (
    CLASSIFIER_TABLE_VERSION,
    HalsteadCounts,
    halstead,
)
from vibecheck.record import Record

ENTROPY_DEFINITION = "per-decision-site, uniform branching"


class CodeMetrics(Record):
    cc: int
    halstead: Optional[HalsteadCounts]
    h_c: float


def metrics(unit: Union[N.SourceUnit, ControlFlowGraph]) -> CodeMetrics:
    """Metrics bundle for a source unit or a bare control-flow graph.

    A bare graph (read from the interchange form) has no token stream, so its
    Halstead counts are absent and only ``cc`` and ``h_c`` are populated.
    """
    if isinstance(unit, ControlFlowGraph):
        return CodeMetrics(
            cc=cyclomatic_complexity(unit), halstead=None, h_c=cfg_entropy(unit)
        )
    cfg = build_cfg(unit)
    return CodeMetrics(
        cc=cyclomatic_complexity(cfg), halstead=halstead(unit), h_c=cfg_entropy(cfg)
    )


def metrics_record(name: str, m: CodeMetrics) -> dict:
    """Flat machine-report record for one measured unit."""
    h = m.halstead
    return {
        "unit": name,
        "cc": m.cc,
        "n1": None if h is None else h.n1,
        "n2": None if h is None else h.n2,
        "N1": None if h is None else h.N1,
        "N2": None if h is None else h.N2,
        "volume_v": None if h is None else h.volume_v,
        "h_c": m.h_c,
        "entropy_definition": ENTROPY_DEFINITION,
        "classifier_table_version": CLASSIFIER_TABLE_VERSION,
    }
