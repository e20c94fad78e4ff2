"""VCPLang front end and structural code metrics.

Import each name from the module that defines it.  Only ``random_program`` is
re-exported, because the benchmark's workloads import it from here.  It
resolves on first use (PEP 562), so importing the package or any front-end
module does not load the program generator.
"""


def __getattr__(name: str):
    if name == "random_program":
        from vibecheck.codemetrics.progen import random_program

        return random_program
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
