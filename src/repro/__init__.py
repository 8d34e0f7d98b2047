"""repro — Group differential privacy-preserving disclosure of multi-level association graphs.

A from-scratch reproduction of Palanisamy, Li and Krishnamurthy (ICDCS 2017).
The package provides:

* the bipartite association-graph substrate (:mod:`repro.graphs`) and
  synthetic dataset generators (:mod:`repro.datasets`);
* a differential-privacy mechanism library (:mod:`repro.mechanisms`),
  privacy definitions and sensitivities (:mod:`repro.privacy`) and budget
  accounting (:mod:`repro.accounting`);
* the multi-level specialization substrate (:mod:`repro.grouping`) and query
  workloads (:mod:`repro.queries`);
* the paper's contribution — the multi-level group-private discloser
  (:mod:`repro.core`) — plus the comparison baselines (:mod:`repro.baselines`)
  and the evaluation harness that regenerates the paper's figure
  (:mod:`repro.evaluation`).

Quickstart
----------
>>> from repro import DisclosureConfig, MultiLevelDiscloser, generate_dblp_like
>>> graph = generate_dblp_like(num_authors=500, seed=0)
>>> release = MultiLevelDiscloser(DisclosureConfig.paper_defaults(epsilon_g=0.5), rng=1).disclose(graph)
>>> release.levels()[:3]
[0, 1, 2]

One execution engine
--------------------
Every aggregate has one implementation.  The graph is compiled once into a
:class:`~repro.graphs.arrays.GraphArrays` view (CSR-style edge arrays,
contiguous index maps, per-node degree vectors, cached on the graph per
revision and delta-recompiled after a mutation); workloads, group
sensitivities and split scores are ``np.bincount``/segment sums over it, and
each level draws its noise in one batched call.  There is no ``engine``
switch; stored configs that still carry the retired setting load unchanged.
``Query.evaluate`` remains as the readable per-query oracle that
``tests/test_engine_parity.py`` compares the vectorized kernels against.

Batched query evaluation is also available directly: build a
:class:`~repro.queries.workload.QueryWorkload` and call
``workload.evaluate_batch(graph)`` to answer every member query from one
compiled array view, or pass ``arrays=graph.arrays()`` to share the view
across workloads.

Parallel execution
------------------
The disclosure core is a staged pipeline
(``specialize -> compile -> calibrate -> perturb -> assemble``; see
:class:`~repro.core.pipeline.DisclosurePipeline`) that runs in-process: its
perturb stage draws one calibrated noise batch per level, too little work to
pay for a pool.  Parallelism lives one layer up, where the tasks are whole
disclosures or trials: parameter-sweep combinations, scalability sizes and
Figure-1 trials fan out through a pluggable
:class:`~repro.execution.Executor` — ``"serial"`` (default), ``"thread"``,
or ``"process"`` for CPU-bound fan-out across cores.  Every task carries its
own derived :class:`numpy.random.SeedSequence`, so for the same seed all
three executors produce **bit-identical** results.

>>> config = DisclosureConfig(epsilon_g=0.5)
>>> release = MultiLevelDiscloser(config, rng=1).disclose(graph)

For example, ``run_figure1_trials(config=Figure1Config(), executor="process")``
distributes the 25-trial Figure-1 Monte-Carlo over all cores
(``benchmarks/results/parallel.json`` records the measured speedup).

The release store
-----------------
A release spends its privacy budget whether or not it is kept, so persist it
and serve it instead of re-disclosing.  :class:`~repro.core.store.ReleaseStore`
round-trips releases losslessly (JSON structure + raw float64 answers; answers
stored as npz by older stores still load):

>>> import tempfile
>>> from pathlib import Path
>>> store = ReleaseStore(Path(tempfile.mkdtemp()) / "releases.db")
>>> key = store.save(release)
>>> store.load(key).to_dict() == release.to_dict()
True

``GraphPublisher.export_views(..., store=...)`` persists the full release
alongside the per-role view documents, ``repro disclose --store FILE.db``
populates a store from the command line, and ``repro report --store FILE.db
--key KEY`` re-renders Figure-1-style per-level metrics from the stored
artefact without touching the graph again.

Every store is a :class:`~repro.core.sqlite_backend.SqliteBackend`: a
single queryable SQLite file for any path, or a private in-memory SQLite
database from :meth:`ReleaseStore.in_memory` for tests and caches.  Either
is inspected with ``repro query`` /
:class:`~repro.core.catalog.ReleaseCatalog`, and the store can keep an LRU
read-through cache of parsed releases (``cache_size=...``) whose hits are
re-validated against the backend's change fingerprint.

Serving releases over HTTP
--------------------------
Disclosure spends budget once; serving the stored artefact spends nothing.
The read-only HTTP layer (:mod:`repro.serving`, stdlib ``http.server`` only)
loads releases from a store and resolves each caller's role through
:meth:`AccessPolicy.view_for`:

>>> from repro.serving import ReleaseServer, fetch_json
>>> policy = AccessPolicy({"analyst": 0, "public": 2}, top_level=3)
>>> server = ReleaseServer(store, policy, port=0).start()
>>> fetch_json(server.url, f"/releases/{key}/views/public")["release"]["level"]
2
>>> server.stop()

``repro serve --store FILE.db --policy FILE`` starts the same server from the
command line, and ``GraphPublisher.serve(release, policy, store)`` persists
a fresh release and hands back a ready server in one call.
"""

from repro.accounting.budget import BudgetLedger, PrivacyBudget
from repro.core.access import AccessPolicy, InformationLevel
from repro.core.certificate import PrivacyCertificate, verify_release
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.publisher import GraphPublisher
from repro.core.pipeline import DisclosurePipeline
from repro.core.release import LevelRelease, MultiLevelRelease
from repro.core.store import ReleaseStore
from repro.datasets.dblp_like import generate_dblp_like
from repro.datasets.movielens_like import generate_movie_ratings
from repro.datasets.pharmacy import generate_pharmacy_purchases
from repro.datasets.registry import load_dataset
from repro.execution import ProcessExecutor, SerialExecutor, ThreadExecutor, make_executor
from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.attribute_grouping import hierarchy_from_attribute_levels, partition_by_attribute
from repro.grouping.partition import Group, Partition
from repro.grouping.specialization import (
    DeterministicSpecializer,
    RandomSpecializer,
    SpecializationConfig,
    Specializer,
)
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.gaussian import AnalyticGaussianMechanism, GaussianMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.privacy.guarantees import (
    GroupPrivacyGuarantee,
    IndividualPrivacyGuarantee,
    PrivacyGuarantee,
    PrivacyUnit,
)
from repro.core.catalog import ReleaseCatalog, ReleaseFilter
from repro.core.sqlite_backend import SqliteBackend
from repro.core.store import StoreBackend, import_directory_store
from repro.exceptions import ServingError
from repro.serving.client import fetch_json, http_get
from repro.serving.server import ReleaseServer, create_server
from repro.queries.counts import GroupedAssociationCountQuery, TotalAssociationCountQuery
from repro.queries.cross import CrossGroupCountQuery
from repro.queries.degree import DegreeHistogramQuery
from repro.queries.workload import QueryWorkload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "DisclosureConfig",
    "MultiLevelDiscloser",
    "GraphPublisher",
    "MultiLevelRelease",
    "LevelRelease",
    "AccessPolicy",
    "InformationLevel",
    "PrivacyCertificate",
    "verify_release",
    "DisclosurePipeline",
    "ReleaseStore",
    "StoreBackend",
    "import_directory_store",
    "SqliteBackend",
    "ReleaseCatalog",
    "ReleaseFilter",
    # serving
    "ReleaseServer",
    "create_server",
    "fetch_json",
    "http_get",
    "ServingError",
    # execution
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    # graphs & datasets
    "BipartiteGraph",
    "GraphArrays",
    "Side",
    "generate_dblp_like",
    "generate_movie_ratings",
    "generate_pharmacy_purchases",
    "load_dataset",
    # grouping
    "Group",
    "Partition",
    "GroupHierarchy",
    "partition_by_attribute",
    "hierarchy_from_attribute_levels",
    "PrivacyBudget",
    "BudgetLedger",
    "SpecializationConfig",
    "Specializer",
    "DeterministicSpecializer",
    "RandomSpecializer",
    # mechanisms
    "LaplaceMechanism",
    "GaussianMechanism",
    "AnalyticGaussianMechanism",
    "ExponentialMechanism",
    # privacy
    "PrivacyGuarantee",
    "IndividualPrivacyGuarantee",
    "GroupPrivacyGuarantee",
    "PrivacyUnit",
    # queries
    "TotalAssociationCountQuery",
    "GroupedAssociationCountQuery",
    "DegreeHistogramQuery",
    "CrossGroupCountQuery",
    "QueryWorkload",
]
