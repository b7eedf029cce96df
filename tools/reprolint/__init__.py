"""``reprolint`` — repo-native static analysis for the reproduction's invariants.

The runtime test suite pins the paper's parity claims (reset determinism,
fleet == standalone sessions, uniform placement == seed, parallel == serial)
by *sampling* a handful of configurations.  ``reprolint`` enforces the same
invariants *mechanically, on every file, at lint time*: an unseeded RNG, a
mutable spec crossing a worker boundary or a name-based tuner dispatch is
flagged before any benchmark runs.

Rule families (see ``docs/STATIC_ANALYSIS.md`` for the catalog):

========  ==================================================================
RL000     suppression hygiene (reasons required, no stale suppressions)
RL001     determinism: no unseeded/global RNG streams, no wall-clock reads
          outside the documented harness-instrumentation allowlist
RL002     frozen-spec picklability: spec dataclasses crossing
          ``run_competition`` worker boundaries stay frozen and hold no
          lambdas/closures/handles
RL003     registry discipline: no if/elif dispatch on registered
          tuner/backend name strings outside the registries
RL005     public-surface hygiene: examples import the documented surface,
          ``repro.api`` ``__all__`` stays in sync with the definitions
========  ==================================================================

Suppress a single finding inline with a *reasoned* comment::

    value = time.perf_counter()  # reprolint: disable=RL001 -- paper-reported wall time

A suppression without a reason, or one that suppresses nothing, is itself a
finding (RL000).  Run the analyzer with::

    python -m tools.reprolint src tests examples

Built on :mod:`ast` only — no runtime dependencies beyond the stdlib.
"""

from .engine import Report, run_reprolint
from .model import Finding, Suppression

__all__ = ["Finding", "Report", "Suppression", "run_reprolint"]
