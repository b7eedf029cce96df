"""The "what-if" hypothetical-index interface.

Commercial physical design tools compare candidate configurations by asking
the optimiser to cost queries *as if* a set of hypothetical indexes existed
(Chaudhuri & Narasayya's AutoAdmin interface).  The estimates never touch the
data, so they inherit every cardinality misestimate of the optimiser — which
is the Achilles' heel the paper exploits.

:class:`WhatIfOptimizer` is consumed by the PDTool baseline.
"""

from __future__ import annotations

from repro.engine.catalog import Database
from repro.engine.indexes import IndexDefinition
from repro.engine.plans import QueryPlan
from repro.engine.query import Query

from .planner import Planner


class WhatIfOptimizer:
    """Estimates query costs under hypothetical configurations."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.planner = Planner(database)
        #: Number of optimiser calls made; used to model recommendation time.
        self.calls = 0

    def plan_query(
        self, query: Query, configuration: list[IndexDefinition]
    ) -> QueryPlan:
        """Plan a query as if ``configuration`` were materialised."""
        self.calls += 1
        return self.planner.plan(query, configuration=configuration)
