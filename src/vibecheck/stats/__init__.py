"""Statistics engine: power analysis, estimation, and the cohort simulator.

Import each module directly (``vibecheck.stats.power`` and so on): the package
re-exports nothing, so ``kappa`` and ``tdist`` load without numpy.
"""
