"""Trace bootstrap for processes the benchmark starts.

Traced runs put this directory on ``PYTHONPATH``, so every process
they start — pool workers, socket workers, the decode server — imports
it at interpreter start-up. When ``PERFBENCH_TRACE_DIR`` is set it
installs the benchmark's layer hooks and writes the process's spans to
that directory at exit.
"""

import os
import sys

_trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
if _trace_dir:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer

    tracer.bootstrap_child(_trace_dir)
