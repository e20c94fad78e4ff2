"""Loaded by every interpreter started with this directory on PYTHONPATH.

The traced study pass puts it there, so each ``vcp`` child records spans
around vibecheck's public functions and writes them out at exit.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import benchtrace

    benchtrace.trace_child_process()
