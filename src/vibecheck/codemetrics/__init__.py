"""VCPLang front end and structural code metrics.

Import each name from the module that defines it.  Only ``random_program`` is
re-exported, because the benchmark's workloads import it from here.
"""

from vibecheck.codemetrics.progen import random_program  # noqa: F401
