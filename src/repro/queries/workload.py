"""Workloads: ordered collections of queries released together."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mechanisms.base import NumericMechanism

from repro.exceptions import ValidationError
from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.partition import Partition
from repro.queries.base import Query, QueryAnswer


class QueryWorkload:
    """An ordered collection of queries answered as one release.

    The workload's sensitivity under an adjacency relation is the sum of the
    member queries' sensitivities (basic composition of the worst case —
    answers to different queries may all change when one group is removed).
    """

    def __init__(self, queries: Iterable[Query], name: str = "workload"):
        self.queries: List[Query] = list(queries)
        if not self.queries:
            raise ValidationError("a workload needs at least one query")
        names = [query.name for query in self.queries]
        if len(names) != len(set(names)):
            raise ValidationError(f"duplicate query names in workload: {names}")
        self.name = str(name)

    def evaluate(self, graph: BipartiteGraph) -> Dict[str, QueryAnswer]:
        """True answers of every query, keyed by query name."""
        return {query.name: query.evaluate(graph) for query in self.queries}

    def evaluate_batch(
        self, graph: BipartiteGraph, arrays: Optional[GraphArrays] = None
    ) -> Dict[str, QueryAnswer]:
        """Answer the whole workload from one compiled array view.

        The array view is compiled (or fetched from the graph's cache) once
        and shared by every member query, so a multi-query workload pays the
        node/edge scan a single time instead of once per query.  Answers are
        exactly equal to :meth:`evaluate` — the array kernels compute the
        same integer counts — which ``tests/test_engine_parity.py``
        locks down.
        """
        arrays = arrays if arrays is not None else graph.arrays()
        return {query.name: query.evaluate_arrays(graph, arrays) for query in self.queries}

    def l1_sensitivity(
        self, graph: BipartiteGraph, adjacency: str = "individual", partition: Optional[Partition] = None
    ) -> float:
        """Summed L1 sensitivity of the member queries."""
        return sum(
            query.l1_sensitivity(graph, adjacency=adjacency, partition=partition)
            for query in self.queries
        )

    def l2_sensitivity(
        self, graph: BipartiteGraph, adjacency: str = "individual", partition: Optional[Partition] = None
    ) -> float:
        """Summed L2 sensitivity of the member queries (a safe upper bound)."""
        return sum(
            query.l2_sensitivity(graph, adjacency=adjacency, partition=partition)
            for query in self.queries
        )

    def num_answers(self, graph: BipartiteGraph) -> int:
        """Total number of scalar answers the workload produces."""
        return sum(answer.values.size for answer in self.evaluate(graph).values())

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryWorkload(name={self.name!r}, queries={[q.name for q in self.queries]})"


def noisy_workload_answers(
    mechanism: "NumericMechanism", true_answers: Dict[str, QueryAnswer]
) -> Dict[str, Dict[str, float]]:
    """Perturb evaluated workload answers into the release's label->value form.

    Draws one concatenated noise array for the whole workload via
    :meth:`~repro.mechanisms.base.NumericMechanism.randomise_many`.
    """
    noisy_batch = mechanism.randomise_many([a.values for a in true_answers.values()])
    return {
        name: {label: float(v) for label, v in zip(answer.labels, noisy)}
        for (name, answer), noisy in zip(true_answers.items(), noisy_batch)
    }
