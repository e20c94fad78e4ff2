"""VCPLang front end and structural code metrics."""

from vibecheck.codemetrics.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Edge,
    build_cfg,
    cfg_entropy,
    cyclomatic_complexity,
    load_cfg,
)
from vibecheck.codemetrics.halstead import HalsteadCounts, halstead
from vibecheck.codemetrics.metrics import (
    CLASSIFIER_TABLE_VERSION,
    ENTROPY_DEFINITION,
    CodeMetrics,
    metrics,
    metrics_record,
)
from vibecheck.codemetrics.nodes import Program, SourceUnit, pretty_print
from vibecheck.codemetrics.parser import parse, parse_file
from vibecheck.codemetrics.progen import random_program

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "Edge",
    "build_cfg",
    "cfg_entropy",
    "cyclomatic_complexity",
    "load_cfg",
    "HalsteadCounts",
    "halstead",
    "CLASSIFIER_TABLE_VERSION",
    "ENTROPY_DEFINITION",
    "CodeMetrics",
    "metrics",
    "metrics_record",
    "Program",
    "SourceUnit",
    "pretty_print",
    "parse",
    "parse_file",
    "random_program",
]
