"""Helpers shared by the discloser, the baselines and the pipeline stages.

Before the staged pipeline existed, every discloser hand-rolled the same two
chores — normalising whatever the caller passed as a workload, and turning a
mechanism name into a calibrated mechanism instance — in four slightly
divergent copies.  They live here once, so a new mechanism or workload shape
is wired up in exactly one place.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.exceptions import DisclosureError
from repro.mechanisms.base import NumericMechanism
from repro.mechanisms.gaussian import AnalyticGaussianMechanism, GaussianMechanism
from repro.mechanisms.geometric import GeometricMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.queries.base import Query
from repro.queries.counts import TotalAssociationCountQuery
from repro.queries.workload import QueryWorkload
from repro.utils.rng import RandomState, derive_seedseq
from repro.utils.serialization import canonical_json_bytes, to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grouping.partition import Partition
    from repro.queries.base import QueryAnswer

WorkloadLike = Union[None, Query, Iterable[Query], QueryWorkload]

#: Mechanism names accepted by :func:`build_mechanism`.
MECHANISM_BUILDERS: Tuple[str, ...] = ("gaussian", "analytic_gaussian", "laplace", "geometric")

#: Mechanism names that calibrate to the L2 sensitivity (and consume delta).
L2_MECHANISMS: Tuple[str, ...] = ("gaussian", "analytic_gaussian")


def normalise_workload(queries: WorkloadLike, default_name: str = "paper-count-workload") -> QueryWorkload:
    """Coerce ``None`` / a query / an iterable of queries into a workload.

    ``None`` yields the paper's single-query workload (the total association
    count) under ``default_name``; an existing :class:`QueryWorkload` passes
    through unchanged.
    """
    if queries is None:
        return QueryWorkload([TotalAssociationCountQuery()], name=default_name)
    if isinstance(queries, QueryWorkload):
        return queries
    if isinstance(queries, Query):
        return QueryWorkload([queries])
    return QueryWorkload(list(queries))


def build_mechanism(
    name: str,
    epsilon: float,
    sensitivity: float,
    delta: Optional[float] = None,
    rng: RandomState = None,
) -> NumericMechanism:
    """Instantiate a calibrated numeric mechanism by name.

    ``delta`` is required by the Gaussian family and ignored by the pure-DP
    mechanisms, mirroring how the disclosers have always treated it.
    """
    if name == "gaussian":
        return GaussianMechanism(epsilon=epsilon, delta=delta, sensitivity=sensitivity, rng=rng)
    if name == "analytic_gaussian":
        return AnalyticGaussianMechanism(epsilon=epsilon, delta=delta, sensitivity=sensitivity, rng=rng)
    if name == "laplace":
        return LaplaceMechanism(epsilon=epsilon, sensitivity=sensitivity, rng=rng)
    if name == "geometric":
        return GeometricMechanism(epsilon=epsilon, sensitivity=sensitivity, rng=rng)
    raise DisclosureError(f"unsupported mechanism {name!r} (supported: {MECHANISM_BUILDERS})")


def uses_l2_sensitivity(mechanism: str) -> bool:
    """Whether ``mechanism`` calibrates to the L2 (Gaussian-family) sensitivity."""
    return mechanism in L2_MECHANISMS


# ----------------------------------------------------------------------
# Level fingerprints (the incremental-refresh contract)
# ----------------------------------------------------------------------
#: Version of the partition digest that :func:`fingerprint_partition`
#: computes, stamped into release provenance as ``fingerprint_version``.
#: Releases without the field carry :func:`legacy_fingerprint_partition`
#: digests.
FINGERPRINT_VERSION = 2


def fingerprint_partition(partition: "Partition") -> str:
    """Content digest of a partition: its groups, members and levels.

    A SHA-256 over a version tag, the digest of the ``str``-sorted node
    table (computed once per table, so once per hierarchy), the group table
    in group-id order — id lengths and text, sides, levels (once when every
    group shares one) — and every node's group rank in that order as
    ``int64`` bytes, nodes in table ``str`` order.  Each part is
    self-delimiting, so the digest is a function of the content alone: two
    partitions with the same content digest identically whatever order
    their groups and members were built in.  The digest is memoised on the
    partition instance — hierarchies are built once and reused across
    releases, so repeated disclosures hash each level once.
    """
    cached = getattr(partition, "_content_digest", None)
    if cached is not None:
        return cached
    table = partition.table
    if table.digest is None:
        nodes = list(map(table.nodes.__getitem__, table.str_order.tolist()))
        table.digest = hashlib.sha256(_compact_json(nodes)).digest()
    ids = partition.group_ids()
    sorted_ids = sorted(ids)
    in_order = sorted_ids == ids  # the specializer emits most levels in id order
    by_id = range(len(ids)) if in_order else list(map(partition.codes.__getitem__, sorted_ids))
    labels = partition.labels[table.str_order]
    if not in_order:
        ranks = np.empty(len(ids), dtype=np.int64)
        ranks[by_id] = np.arange(len(ids), dtype=np.int64)
        labels = ranks[labels]
    digest = hashlib.sha256(f"repro-partition-v{FINGERPRINT_VERSION}".encode("ascii"))
    digest.update(table.digest)
    digest.update(np.array([len(ids), len(table)], dtype="<i8").tobytes())
    digest.update(np.fromiter(map(len, sorted_ids), dtype="<i8", count=len(ids)).tobytes())
    digest.update("".join(sorted_ids).encode("utf-8", "surrogatepass"))
    # Sides are one of "left", "right", "mixed": no word prefixes another.
    sides = partition.sides if in_order else map(partition.sides.__getitem__, by_id)
    digest.update("".join(sides).encode("ascii"))
    levels = partition.levels
    if levels and levels.count(levels[0]) == len(levels):
        digest.update(_compact_json(["all", levels[0]]))  # a level per group is never "all"
    else:
        digest.update(_compact_json(list(map(levels.__getitem__, by_id))))
    digest.update(labels.astype("<i8").tobytes())
    partition._content_digest = digest.hexdigest()  # noqa: SLF001 - memo on our own type
    return partition._content_digest


def legacy_fingerprint_partition(partition: "Partition") -> str:
    """The version-1 partition digest: SHA-256 of the canonical JSON of every
    group (sorted by group id, members sorted by ``str``).

    Kept only to compare against releases stored before
    :data:`FINGERPRINT_VERSION` existed, and as a test oracle.
    """
    groups = sorted(partition.to_dict()["groups"], key=lambda group: str(group.get("group_id")))
    return hashlib.sha256(canonical_json_bytes({"groups": groups})).hexdigest()


def _compact_json(value) -> bytes:
    return json.dumps(value, separators=(",", ":"), default=to_jsonable).encode("utf-8")


def fingerprint_answers(true_answers: Dict[str, "QueryAnswer"]) -> str:
    """Content digest of the workload's true answers on one graph."""
    payload = {
        name: answer.to_dict() for name, answer in sorted(true_answers.items(), key=lambda kv: kv[0])
    }
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def fingerprint_level(
    *,
    epsilon: float,
    sensitivity: float,
    mechanism: str,
    delta: Optional[float],
    partition_digest: str,
    answers_digest: str,
) -> str:
    """Digest of everything that determines one level's released answers.

    Given the level's derived noise seed, the perturbed output is a pure
    function of exactly these inputs — so two disclosures of the same seed
    whose fingerprints match for a level produce bit-identical
    :class:`~repro.core.release.LevelRelease` objects for it.  That is the
    invariant the refresh path (:mod:`repro.core.refresh`) relies on when it
    reuses a stored level instead of re-perturbing (and re-spending) it.
    """
    payload = {
        "epsilon": float(epsilon),
        "sensitivity": float(sensitivity),
        "mechanism": str(mechanism),
        "delta": None if delta is None else float(delta),
        "partition": partition_digest,
        "answers": answers_digest,
    }
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


class DiscloseSeedStream:
    """Derived noise-seed material, one independent stream per disclose call.

    The one definition of the per-call derivation scheme shared by
    :class:`~repro.core.discloser.MultiLevelDiscloser` and every baseline:
    the root seed material is derived once from the caller's ``rng`` under a
    component label, and each :meth:`next` yields a fresh
    :class:`~numpy.random.SeedSequence` keyed by the call index
    (``disclose-1``, ``disclose-2``, ...).  Deriving per call — rather than
    advancing a live generator — is what keeps repeat disclosures and
    serial/thread/process execution bit-identical for the same seed.  An
    unseeded stream (``rng=None``) yields ``None``, i.e. fresh entropy
    downstream.
    """

    def __init__(self, rng: RandomState, label: str):
        self._root: Optional[np.random.SeedSequence] = (
            derive_seedseq(rng, label) if rng is not None else None
        )
        self._calls = 0

    def next(self) -> Optional[np.random.SeedSequence]:
        """Seed material for the next disclose call."""
        self._calls += 1
        if self._root is None:
            return None
        return derive_seedseq(self._root, f"disclose-{self._calls}")

    @property
    def calls(self) -> int:
        """How many seeds have been drawn so far."""
        return self._calls

    def seed_for(self, call_index: int) -> Optional[np.random.SeedSequence]:
        """Re-derive the seed of an earlier (or future) draw, without drawing.

        Pure with respect to the stream state: the root material is frozen at
        construction, so ``seed_for(n)`` equals the value ``next()`` returned
        (or will return) on its ``n``-th call.  The refresh path uses this to
        perturb a release's affected levels with exactly the noise stream the
        original disclosure drew — recorded in the release provenance as
        ``noise_draw``.
        """
        if self._root is None:
            return None
        return derive_seedseq(self._root, f"disclose-{int(call_index)}")
