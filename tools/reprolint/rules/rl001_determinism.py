"""RL001 — determinism: seeded RNG streams only, no wall-clock in core code.

The paper's protocol (and the repo's parity tests: reset determinism,
parallel == serial, fleet == standalone) only hold when every random stream
is explicitly seeded and no decision path reads the wall clock.  This rule
flags, in ``src/`` and ``examples/``:

* ``random.Random()`` / ``np.random.default_rng()`` / ``SeedSequence()``
  constructed **without a seed** — an OS-entropy stream;
* any call into the **module-level** ``random.*`` / legacy ``np.random.*``
  global state (``random.randint``, ``np.random.rand``, ``np.random.seed``,
  ...) — global streams are shared across components and break replay;
* wall-clock reads (``time.time``, ``time.perf_counter``,
  ``datetime.now``, ...) outside the documented harness-instrumentation
  allowlist below.

Wall-clock *fields* on :class:`repro.harness.metrics.RoundReport` are legal —
the session harness measures our own overhead — but core/optimizer/engine
layers must stay clock-free so the simulated timeline is the only timeline.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from ..project import dotted_call_name, import_aliases, module_dotted_name
from .base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile

#: Files allowed to read the wall clock, with the documented reason.  Keep
#: this list exact: ``tests/test_reprolint.py`` asserts that emptying it
#: produces findings in precisely these files and nowhere else.
WALL_CLOCK_ALLOWLIST: dict[str, str] = {
    "src/repro/api/session.py": (
        "harness instrumentation: TuningSession populates the RoundReport "
        "wall_* fields (analysis/execution overhead of the harness itself) "
        "and charges the measured recommend time as C_rec when a tuner "
        "leaves recommendation_seconds unset; no tuning decision reads "
        "these values"
    ),
    "src/repro/fleet/fleet.py": (
        "harness instrumentation: TuningFleet times its batched recommend "
        "pass once and charges each tenant an even share as C_rec; no "
        "tuning decision reads the value"
    ),
}

#: Fully-qualified wall-clock reads.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` names that construct an *explicitly seedable* object.
#: Anything else under ``numpy.random`` is the legacy global stream.
NUMPY_SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

CHECKED_TOP_DIRS = ("src", "examples")


class DeterminismRule(Rule):
    id = "RL001"
    title = "unseeded/global RNG streams and wall-clock reads outside the allowlist"

    def check_file(self, source_file: "SourceFile") -> Iterable["Finding"]:
        if source_file.top_level_dir not in CHECKED_TOP_DIRS:
            return []
        aliases = import_aliases(
            source_file.tree, module_dotted_name(source_file.relative_path)
        )
        return list(self._scan(source_file, aliases))

    def _scan(
        self, source_file: "SourceFile", aliases: dict[str, str]
    ) -> Iterator["Finding"]:
        from ..model import Finding

        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func, aliases)
            if dotted is None:
                continue
            seeded = bool(node.args or node.keywords)

            message: str | None = None
            if dotted == "random.Random" or dotted == "random.SystemRandom":
                if dotted == "random.SystemRandom":
                    message = (
                        "random.SystemRandom() draws OS entropy and can never "
                        "be replayed; use a seeded random.Random(seed)"
                    )
                elif not seeded:
                    message = (
                        "unseeded random.Random() — pass an explicit seed so "
                        "runs are replayable"
                    )
            elif dotted.startswith("random."):
                message = (
                    f"call into the module-level random stream ({dotted}); "
                    "use a seeded random.Random instance threaded through "
                    "the component"
                )
            elif dotted.startswith("numpy.random."):
                tail = dotted[len("numpy.random.") :]
                head = tail.split(".", 1)[0]
                if head in NUMPY_SEEDABLE_CONSTRUCTORS:
                    if not seeded:
                        message = (
                            f"unseeded numpy.random.{head}() — pass an "
                            "explicit seed/bit generator so runs are replayable"
                        )
                else:
                    message = (
                        f"call into the legacy numpy global stream ({dotted}); "
                        "use numpy.random.default_rng(seed)"
                    )
            elif (
                dotted in WALL_CLOCK_CALLS
                and source_file.relative_path not in WALL_CLOCK_ALLOWLIST
            ):
                message = (
                    f"wall-clock read ({dotted}) outside the harness "
                    "instrumentation allowlist; the simulated timeline "
                    "must be the only timeline (see docs/STATIC_ANALYSIS.md)"
                )

            if message is not None:
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )
