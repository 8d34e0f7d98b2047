"""Query interface.

Queries answer in the clear (``evaluate``) and report their sensitivity under
the two adjacency relations the library supports (``individual`` and
``group``), so a mechanism can be calibrated without the pipeline needing
query-specific knowledge.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import SensitivityError
from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.partition import Partition


@dataclass
class QueryAnswer:
    """A (possibly vector-valued) query answer with named coordinates."""

    name: str
    values: np.ndarray
    labels: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.labels and len(self.labels) != self.values.size:
            raise ValueError(
                f"{len(self.labels)} labels for {self.values.size} values in query {self.name!r}"
            )
        if not self.labels:
            self.labels = [f"{self.name}[{i}]" for i in range(self.values.size)]

    def scalar(self) -> float:
        """Return the single value of a scalar answer."""
        if self.values.size != 1:
            raise ValueError(f"answer {self.name!r} has {self.values.size} values, not 1")
        return float(self.values[0])

    def as_dict(self) -> Dict[str, float]:
        """Mapping ``label -> value``."""
        return {label: float(value) for label, value in zip(self.labels, self.values)}

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"name": self.name, "labels": list(self.labels), "values": self.values.tolist()}


class Query(abc.ABC):
    """Base class for queries over bipartite association graphs."""

    #: Short machine-readable identifier.
    name: str = "query"

    @abc.abstractmethod
    def evaluate(self, graph: BipartiteGraph) -> QueryAnswer:
        """Compute the true (un-noised) answer."""

    def evaluate_arrays(self, graph: BipartiteGraph, arrays: Optional[GraphArrays] = None) -> QueryAnswer:
        """Compute the true answer from a compiled array view.

        The pipeline calls this with a shared
        :class:`~repro.graphs.arrays.GraphArrays`; subclasses override it
        with a ``np.bincount``/segment-sum implementation that must agree
        with :meth:`evaluate` exactly (the parity suite enforces this).  The
        default falls back to :meth:`evaluate`, so custom queries work
        without an array kernel.
        """
        return self.evaluate(graph)

    @abc.abstractmethod
    def l1_sensitivity(
        self, graph: BipartiteGraph, adjacency: str = "individual", partition: Optional[Partition] = None
    ) -> float:
        """L1 sensitivity under the given adjacency relation."""

    def l2_sensitivity(
        self, graph: BipartiteGraph, adjacency: str = "individual", partition: Optional[Partition] = None
    ) -> float:
        """L2 sensitivity; defaults to the L1 value (exact for scalar queries
        and for workloads in which an adjacent change touches one coordinate)."""
        return self.l1_sensitivity(graph, adjacency=adjacency, partition=partition)

    def _require_partition(self, adjacency: str, partition: Optional[Partition]) -> None:
        if adjacency == "group" and partition is None:
            raise SensitivityError(f"query {self.name!r} needs a partition for group adjacency")
        if adjacency not in ("individual", "group", "node"):
            raise SensitivityError(f"unknown adjacency {adjacency!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
