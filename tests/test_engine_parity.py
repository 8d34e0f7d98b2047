"""Property-based parity suite: the array kernels equal the per-query oracle.

Three layers of parity, each exact (no tolerances):

* **query parity** — for randomized graphs and partitions every array-backed
  query answer (``evaluate_arrays`` / ``evaluate_batch``) equals the
  readable per-query ``evaluate`` bit for bit;
* **mechanism parity** — ``randomise_many`` with seed ``s`` matches the
  same-shape draw from a fresh generator for every numeric mechanism, and
  matches per-answer draws for the stream-concatenating families (Gaussian,
  Laplace);
* **executor parity** — disclosures and Figure-1 trials run as tasks on the
  serial, thread and process executors (as sweeps, scalability runs and
  per-trial Monte-Carlo run them) produce identical results under the same
  seed.

Released values themselves are pinned by ``tests/test_golden_releases.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.datasets.dblp_like import generate_dblp_like
from repro.execution import executor_scope
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.partition import Group, Partition
from repro.grouping.scores import BalancedAssociationScore
from repro.grouping.specialization import SpecializationConfig, Specializer
from repro.mechanisms.gaussian import AnalyticGaussianMechanism, GaussianMechanism
from repro.mechanisms.geometric import GeometricMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.queries.counts import GroupedAssociationCountQuery, TotalAssociationCountQuery
from repro.queries.cross import CrossGroupCountQuery
from repro.queries.degree import DegreeHistogramQuery
from repro.queries.workload import QueryWorkload

MECHANISMS = [
    pytest.param(lambda rng: LaplaceMechanism(epsilon=0.7, sensitivity=3.0, rng=rng), id="laplace"),
    pytest.param(lambda rng: GeometricMechanism(epsilon=0.7, sensitivity=3.0, rng=rng), id="geometric"),
    pytest.param(lambda rng: GaussianMechanism(epsilon=0.7, delta=1e-5, sensitivity=3.0, rng=rng), id="gaussian"),
    pytest.param(
        lambda rng: AnalyticGaussianMechanism(epsilon=0.7, delta=1e-5, sensitivity=3.0, rng=rng),
        id="analytic_gaussian",
    ),
]


def random_graph(seed: int, max_left: int = 25, max_right: int = 25) -> BipartiteGraph:
    """A small random bipartite graph (may have isolated nodes / empty sides)."""
    rng = np.random.default_rng(seed)
    num_left = int(rng.integers(0, max_left + 1))
    num_right = int(rng.integers(0, max_right + 1))
    graph = BipartiteGraph(name=f"random-{seed}")
    graph.add_left_nodes([f"a{i}" for i in range(num_left)])
    graph.add_right_nodes([f"b{j}" for j in range(num_right)])
    if num_left and num_right:
        density = float(rng.uniform(0.0, 0.35))
        mask = rng.random((num_left, num_right)) < density
        graph.add_associations(
            (f"a{i}", f"b{j}") for i, j in zip(*mask.nonzero())
        )
    return graph


def random_partition(graph: BipartiteGraph, seed: int, num_groups: int, include_absent: bool) -> Partition:
    """A random partition of the graph's nodes, optionally with absent members."""
    rng = np.random.default_rng(seed)
    nodes = list(graph.left_nodes()) + list(graph.right_nodes())
    if include_absent:
        nodes = nodes + ["ghost-1", "ghost-2"]
    assignment = rng.integers(0, num_groups, size=len(nodes))
    mapping = {}
    for gid in range(num_groups):
        members = [node for node, a in zip(nodes, assignment) if a == gid]
        if members:
            mapping[f"g{gid}"] = members
    if not mapping:
        mapping = {"g0": nodes or ["ghost-1"]}
    return Partition.from_mapping(mapping)


def side_partition(graph: BipartiteGraph, side: Side, seed: int, num_groups: int) -> Partition:
    rng = np.random.default_rng(seed)
    prefix = "L" if side is Side.LEFT else "R"
    nodes = list(graph.nodes(side))
    # Leave some nodes uncovered so the ignore-uncovered path is exercised.
    keep = [node for node in nodes if rng.random() < 0.8]
    assignment = rng.integers(0, num_groups, size=len(keep))
    mapping = {}
    for gid in range(num_groups):
        members = [node for node, a in zip(keep, assignment) if a == gid]
        if members:
            mapping[f"{prefix}{gid}"] = members
    if not mapping:
        mapping = {f"{prefix}0": [f"{prefix.lower()}ghost"]}
    return Partition.from_mapping(mapping)


def assert_answers_equal(reference, vectorized) -> None:
    assert reference.name == vectorized.name
    assert reference.labels == vectorized.labels
    assert np.array_equal(reference.values, vectorized.values), (
        reference.values,
        vectorized.values,
    )


# ----------------------------------------------------------------------
# Query parity
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_total_count_parity(seed):
    graph = random_graph(seed)
    query = TotalAssociationCountQuery()
    assert_answers_equal(query.evaluate(graph), query.evaluate_arrays(graph))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), num_groups=st.integers(1, 8), absent=st.booleans())
def test_grouped_count_parity(seed, num_groups, absent):
    graph = random_graph(seed)
    partition = random_partition(graph, seed + 1, num_groups, include_absent=absent)
    query = GroupedAssociationCountQuery(partition)
    assert_answers_equal(query.evaluate(graph), query.evaluate_arrays(graph))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), max_degree=st.integers(1, 12), left=st.booleans())
def test_degree_histogram_parity(seed, max_degree, left):
    graph = random_graph(seed)
    query = DegreeHistogramQuery(side=Side.LEFT if left else Side.RIGHT, max_degree=max_degree)
    assert_answers_equal(query.evaluate(graph), query.evaluate_arrays(graph))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), nl=st.integers(1, 5), nr=st.integers(1, 5))
def test_cross_group_parity(seed, nl, nr):
    graph = random_graph(seed)
    left = side_partition(graph, Side.LEFT, seed + 2, nl)
    right = side_partition(graph, Side.RIGHT, seed + 3, nr)
    query = CrossGroupCountQuery(left, right)
    assert_answers_equal(query.evaluate(graph), query.evaluate_arrays(graph))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_workload_evaluate_batch_parity(seed):
    graph = random_graph(seed)
    partition = random_partition(graph, seed + 1, 5, include_absent=False)
    workload = QueryWorkload(
        [
            TotalAssociationCountQuery(),
            GroupedAssociationCountQuery(partition),
            DegreeHistogramQuery(max_degree=10),
            CrossGroupCountQuery(
                side_partition(graph, Side.LEFT, seed + 2, 3),
                side_partition(graph, Side.RIGHT, seed + 3, 3),
            ),
        ]
    )
    reference = workload.evaluate(graph)
    vectorized = workload.evaluate_batch(graph)
    assert set(reference) == set(vectorized)
    for name in reference:
        assert_answers_equal(reference[name], vectorized[name])


def test_evaluate_batch_reflects_mutation():
    """A workload answered after a mutation must see the mutated graph."""
    graph = random_graph(17)
    workload = QueryWorkload([TotalAssociationCountQuery(), DegreeHistogramQuery(max_degree=5)])
    before = workload.evaluate_batch(graph)
    graph.add_left_node("new-author")
    graph.add_right_node("new-paper")
    graph.add_association("new-author", "new-paper")
    after = workload.evaluate_batch(graph)
    assert after["total_association_count"].scalar() == before["total_association_count"].scalar() + 1
    for name in after:
        assert_answers_equal(workload.evaluate(graph)[name], after[name])


# ----------------------------------------------------------------------
# Mechanism parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_mechanism", MECHANISMS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 40))
def test_randomise_many_matches_fresh_generator(make_mechanism, seed, size):
    values = np.arange(size, dtype=float) * 3.5
    (noised,) = make_mechanism(seed).randomise_many([values])
    fresh = make_mechanism(seed)
    expected = values + fresh.sample_noise(size=values.shape)
    assert np.array_equal(noised, np.atleast_1d(expected))


@pytest.mark.parametrize("make_mechanism", MECHANISMS)
def test_randomise_many_scalar_promotes_to_array(make_mechanism):
    (noised,) = make_mechanism(0).randomise_many([12.0])
    assert isinstance(noised, np.ndarray) and noised.shape == (1,)


@pytest.mark.parametrize("make_mechanism", [MECHANISMS[0], MECHANISMS[2], MECHANISMS[3]])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_randomise_many_matches_sequential_randomise(make_mechanism, seed, sizes):
    """Gaussian/Laplace generators fill batched draws sequentially, so one
    concatenated draw equals per-answer draws under the same seed."""
    answers = [np.arange(size, dtype=float) + 100.0 * index for index, size in enumerate(sizes)]
    batched = make_mechanism(seed).randomise_many(answers)
    sequential_mechanism = make_mechanism(seed)
    sequential = [sequential_mechanism.randomise(a) for a in answers]
    assert len(batched) == len(sequential)
    for got, expected in zip(batched, sequential):
        assert np.array_equal(got, np.atleast_1d(expected))


def test_randomise_many_preserves_shapes_and_empty():
    mech = LaplaceMechanism(epsilon=1.0, rng=0)
    out = mech.randomise_many([np.zeros((2, 3)), 5.0, [1.0, 2.0]])
    assert out[0].shape == (2, 3) and out[1].shape == (1,) and out[2].shape == (2,)
    assert mech.randomise_many([]) == []


def test_geometric_randomise_many_stays_integral():
    values = np.array([3.0, 10.0, 0.0])
    (noised,) = GeometricMechanism(epsilon=0.5, rng=4).randomise_many([values])
    assert np.array_equal(noised, np.round(noised))


# ----------------------------------------------------------------------
# Split scoring
# ----------------------------------------------------------------------
class _PerSplitScore(BalancedAssociationScore):
    """The default score computed one cut at a time, without the prefix sum."""

    def scores(self, degrees, cuts):
        return [-abs(sum(degrees[:cut]) - sum(degrees[cut:])) / self.degree_bound for cut in cuts]


def test_specializer_hierarchy_parity():
    """Phase-1 hierarchies are bit-identical whether each candidate set is
    scored by one prefix-sum scan or one split at a time."""
    hierarchies = {}
    for name, score in (("batched", BalancedAssociationScore()), ("per-split", _PerSplitScore())):
        graph = generate_dblp_like(num_authors=150, seed=21)
        specializer = Specializer(config=SpecializationConfig(num_levels=5), score=score, rng=77)
        hierarchies[name] = specializer.build(graph).hierarchy
    batched, per_split = hierarchies["batched"], hierarchies["per-split"]
    assert batched.level_indices() == per_split.level_indices()
    for level in batched.level_indices():
        batched_groups = {g.group_id: g.members for g in batched.partition_at(level).groups()}
        per_split_groups = {g.group_id: g.members for g in per_split.partition_at(level).groups()}
        assert batched_groups == per_split_groups


# ----------------------------------------------------------------------
# Executor parity
# ----------------------------------------------------------------------
#: Seeds of the disclosure tasks mapped per executor: two tasks, so the
#: thread and process pools really run them side by side.
TASK_SEEDS = (23, 24)


def _disclose_task(task):
    """One whole disclosure (a module-level, picklable executor task)."""
    mechanism, queries, seed = task
    graph = generate_dblp_like(num_authors=150, seed=4)
    config = DisclosureConfig(
        epsilon_g=0.6,
        mechanism=mechanism,
        specialization=SpecializationConfig(num_levels=5),
    )
    return MultiLevelDiscloser(config=config, queries=queries, rng=seed).disclose(graph).to_dict()


def _disclosure_tasks(mechanism="gaussian", queries=None):
    return [(mechanism, queries, seed) for seed in TASK_SEEDS]


def _executor_releases(executor, mechanism: str = "gaussian", queries=None):
    """Release documents of the disclosure tasks mapped on ``executor``."""
    with executor_scope(executor, max_workers=2) as pool:
        return pool.map(_disclose_task, _disclosure_tasks(mechanism, queries))


@pytest.mark.parametrize("mechanism", ["gaussian", "laplace", "analytic_gaussian", "geometric"])
def test_discloser_executor_parity(mechanism):
    """Disclosures mapped on serial, thread and process executors are
    bit-identical per seed.

    A disclosure derives every level's noise from its own seed, so the worker
    it runs in cannot change which noise any level draws — for *all*
    mechanism families, including geometric (whose batched draw interleaves
    two streams, but identically so in every worker).
    """
    serial = _executor_releases("serial", mechanism)
    assert serial[0] != serial[1]  # the two seeds really differ
    assert _executor_releases("thread", mechanism) == serial
    assert _executor_releases("process", mechanism) == serial


def test_discloser_executor_parity_multi_query_workload():
    queries = [TotalAssociationCountQuery(), DegreeHistogramQuery(max_degree=15)]
    serial = _executor_releases("serial", queries=queries)
    assert _executor_releases("process", queries=queries) == serial


def test_figure1_config_names_no_executor():
    """Only run_figure1_trials fans out, and it takes its executor as an
    argument: the config has no executor to record, so no result names one."""
    from repro.evaluation.figure1 import Figure1Config, run_figure1, run_figure1_trials

    with pytest.raises(TypeError):
        Figure1Config(executor="process")
    config = Figure1Config(num_levels=4, num_trials=2, scale="tiny", seed=3)
    trials = run_figure1_trials(config=config, executor="thread")
    for result in (run_figure1(config=config), trials):
        assert not {"executor", "max_workers"} & set(result.to_dict()["config"])


def test_figure1_trials_executor_parity():
    """The per-trial Monte-Carlo fan-out is executor-independent: every trial
    derives its streams from ``(seed, trial index)``, never from shared
    generator state."""
    from repro.evaluation.figure1 import Figure1Config, run_figure1_trials

    config = Figure1Config(num_levels=4, num_trials=5, scale="tiny", seed=3)
    serial = run_figure1_trials(config=config, executor="serial").to_dict()
    thread = run_figure1_trials(config=config, executor="thread").to_dict()
    process = run_figure1_trials(config=config, executor="process").to_dict()
    assert thread["series"] == serial["series"]
    assert process["series"] == serial["series"]
    assert thread["sensitivities"] == serial["sensitivities"]
    assert process["sensitivities"] == serial["sensitivities"]


# ----------------------------------------------------------------------
# Fault-tolerance parity: a disturbed run equals the undisturbed run.
# ----------------------------------------------------------------------
def _chaos_releases(executor, plan, state_dir, retry_policy=None, mechanism="gaussian"):
    """The disclosure tasks mapped on ``executor`` under a fault plan."""
    from repro.execution.faults import FaultInjectingExecutor

    chaos = FaultInjectingExecutor(executor, plan, state_dir, retry_policy=retry_policy)
    try:
        return chaos.map(_disclose_task, _disclosure_tasks(mechanism))
    finally:
        chaos.close()


@pytest.mark.parametrize("mechanism", ["gaussian", "laplace", "geometric"])
def test_disclosure_parity_under_in_worker_retries(tmp_path, mechanism):
    """Transient per-task failures absorbed by the retry layer cannot change
    the released bytes: retries re-run the *pure* task with the same derived
    seed, and the deterministic backoff never touches the noise streams."""
    from repro.execution import RetryPolicy, ThreadExecutor
    from repro.execution.faults import FaultPlan

    undisturbed = _executor_releases("serial", mechanism)
    disturbed = _chaos_releases(
        ThreadExecutor(max_workers=2),
        FaultPlan.transient([0, 1], attempts=(1,)),
        tmp_path,
        retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
        mechanism=mechanism,
    )
    assert disturbed == undisturbed


def test_disclosure_parity_under_worker_crash_recovery(tmp_path):
    """A worker death mid-map breaks the process pool; the executor rebuilds
    it and resubmits only the unfinished tasks — and because tasks are pure
    and carry their own seeds, the recovered release is bit-identical."""
    from repro.execution import ProcessExecutor
    from repro.execution.faults import FaultPlan, KillWorkerFault

    undisturbed = _executor_releases("serial")
    disturbed = _chaos_releases(
        ProcessExecutor(max_workers=2),
        FaultPlan({1: (KillWorkerFault(attempts=(1,)),)}),
        tmp_path,
    )
    assert disturbed == undisturbed


def test_retried_map_parity_across_executors(tmp_path):
    """map_with_retries over faulted tasks returns the same rows as the
    plain serial map of the same pure function, on every executor."""
    from repro.execution import RetryPolicy, SerialExecutor, ThreadExecutor, map_with_retries
    from repro.execution.faults import FaultInjectingExecutor, FaultPlan

    def cube(task):
        return task ** 3

    expected = [cube(task) for task in range(8)]
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
    for index, inner in enumerate((SerialExecutor(), ThreadExecutor(max_workers=3))):
        chaos = FaultInjectingExecutor(
            inner, FaultPlan.transient([1, 4, 6]), tmp_path / str(index), retry_policy=policy
        )
        try:
            assert chaos.map(cube, list(range(8))) == expected
        finally:
            chaos.close()
