"""The four batch workloads: two full pipelines, the blocker alone, the engine.

Every layer is measured from outside: the untraced pass times the public
entry point a user calls (``SparkER.run``, the blocker chain,
``ParallelMetaBlocker.run``); the traced pass calls the same layers' public
functions itself, in pipeline order, with a span around each, and must
reproduce the untraced pass's checksum or the attribution measured different
work.  Ground truth never enters a timed call; quality is computed after the
clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import resource
import statistics
import time

from repro.blocking.filtering import BlockFiltering
from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.clustering.base import clusters_to_pairs
from repro.core.config import SparkERConfig
from repro.core.entity_clusterer import EntityClusterer
from repro.core.entity_matcher import EntityMatcher
from repro.core.sparker import SparkER
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_scalability_products,
)
from repro.engine.context import EngineContext
from repro.evaluation.metrics import blocking_metrics, pair_metrics
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.looseschema.entropy import EntropyExtractor
from repro.metablocking import backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.pruning import make_pruning_strategy
from repro.metablocking.weights import WeightingScheme

from reference import RelativeClock
from spans import Tracer, summarise

# Entity counts, frozen so that one repetition takes 1-2 s on the 2-vCPU
# reference VM and >= 5 timed repetitions fit the run length in BENCHMARK.json.
ENTITIES = {
    "e2e_sparse": 4000,
    "e2e_dense": 250,
    "blocker_scale": 16000,
    "engine_process2": 8000,
}
SETUP_PASSES = 3
WEIGHTING, PRUNING = "cbs", "wnp"


class Checks:
    """Correctness gates: every expectation is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: "list[str]" = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class Timings:
    """Samples of one measurement: wall-clock, and relative to the reference."""

    def __init__(self) -> None:
        self.raw: "list[float]" = []
        self.relative: "list[float]" = []

    def add(self, raw: float, clock: RelativeClock) -> None:
        self.raw.append(raw)
        self.relative.append(clock.relative(raw))


def setup_metrics(import_s: float, passes: Timings, clock: RelativeClock) -> dict:
    """``setup_s``: the imports (once per process) plus one set-up pass."""
    import_relative = import_s / clock.factors[0]  # the factor right after the imports
    return {
        "setup_s": summarise([import_relative + seconds for seconds in passes.relative]),
        "raw.setup_s": summarise([import_s + seconds for seconds in passes.raw]),
    }


def run_metrics(run: Timings, clock: RelativeClock) -> dict:
    """``run_s`` (gated, reference-relative) with its raw wall-clock beside it."""
    return {
        "run_s": summarise(run.relative),
        "raw.run_s": summarise(run.raw),
        "machine.speed_factor": summarise(clock.factors),
    }


def peak_rss_mb() -> float:
    """Lifetime peak RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(prepare, clock: RelativeClock, passes: int = SETUP_PASSES):
    """Run the set-up ``passes`` times; return the last state and the timings."""
    samples = Timings()
    state = None
    for _ in range(passes):
        state = None  # drop the previous copy before building the next
        gc.collect()
        started = time.perf_counter()
        state = prepare()
        samples.add(time.perf_counter() - started, clock)
    return state, samples


def timed_reps(arms, seconds: float, min_reps: int, checks: Checks, clock: RelativeClock):
    """One discarded warm-up per arm, then the arms take turns for ``seconds``.

    ``arms`` is a list of ``(label, call, digest)``.  Taking turns puts every
    arm (untraced and traced, parallel and sequential) under the same process
    and machine state, so their ratio is not an artefact of which ran first.
    GC stays on inside a repetition (users pay it) and is collected between
    them.  Every repetition's output digest must equal its arm's warm-up; a
    raised repetition counts as failed.  Returns per arm: the samples, the
    last output, the reference digest.
    """
    references = [digest(call()) for _label, call, digest in arms]
    samples = [Timings() for _ in arms]
    last = [None] * len(arms)
    clock.factor()  # a fresh reference before the first sample, not one from before the warm-ups
    started = time.perf_counter()
    while (min(len(arm.raw) for arm in samples) < min_reps
           or time.perf_counter() - started < seconds):
        for position, (label, call, digest) in enumerate(arms):
            gc.collect()
            try:
                rep_started = time.perf_counter()
                last[position] = call()
                elapsed = time.perf_counter() - rep_started
            except Exception as error:  # a failed repetition is counted, not fatal
                checks.expect(False, f"{label} repetition raised {error!r}")
                if len(checks.failures) > min_reps:  # ... unless none succeeds
                    raise
                continue
            samples[position].add(elapsed, clock)
            checks.expect(
                digest(last[position]) == references[position],
                f"{label} output differs between repetitions",
            )
    return samples, last, references


def numbered(call):
    """Give each traced repetition its number (the warm-up is rep 0)."""
    reps = itertools.count()
    return lambda: call(next(reps))


def sha256_of(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def pipeline_digest(candidate_pairs, clusters) -> str:
    """SHA-256 over the sorted candidate pairs and the sorted clusters."""
    return sha256_of(
        sorted(candidate_pairs),
        sorted(tuple(sorted(cluster.members)) for cluster in clusters),
    )


def budget(seconds: float, trace: bool, quick: bool) -> "tuple[float, int]":
    """(seconds the arms share, minimum repetitions per arm)."""
    if quick:
        return 0.0, 2
    return seconds, 3 if trace else 5


def traced_metablocking(
    blocks, tracer: Tracer, rep: int, use_entropy: bool, stream: bool, keep: bool = True
):
    """Index build, then weigh + prune: ``MetaBlocker``'s own two phases.

    ``stream`` mirrors ``stream_retained`` (dense arrays, chunked emission),
    otherwise ``run`` (edge dict).  Returns the retained edge list or dict;
    a stream with ``keep=False`` is consumed as the untraced pass consumes it
    (O(chunk) objects) and only the edge count comes back.
    """
    with tracer.span("metablocking.index_build", rep):
        index = CSRBlockIndex.from_blocks(blocks)
    try:
        with tracer.span("metablocking.weigh_prune", rep) as span:
            strategy = make_pruning_strategy(PRUNING)
            plan = index.weight_plan(WeightingScheme.parse(WEIGHTING), use_entropy)
            if stream:
                table = index.kernel().weight_arrays(plan)
                positions = backends.retained_positions(strategy, table, index)
                retained, count = [], 0
                for chunk in backends.iter_retained_chunks(table, positions):
                    count += len(chunk)
                    if keep:
                        retained.extend(chunk)
                graph_edges = len(table)
            else:
                table = index.kernel().weight_table(plan)
                retained = backends.prune_edge_weights(strategy, table, index)
                graph_edges, count = index.num_edges(), len(retained)
            span["counts"].update(graph_edges=graph_edges, retained_edges=count)
    finally:
        index.close()
    return retained if keep else count


def first_counts(tracer: Tracer, name: str) -> dict:
    """The counts taken at the named span's boundary (identical every rep)."""
    return next(span["counts"] for span in tracer.spans if span["name"] == name)


def metablocking_layer(tracer: Tracer) -> dict:
    """The ``metablocking.*`` per-layer metrics out of the traced spans."""
    build = tracer.median("metablocking.index_build")
    prune = tracer.median("metablocking.weigh_prune")
    counts = first_counts(tracer, "metablocking.weigh_prune")
    edges, retained = counts["graph_edges"], counts["retained_edges"]
    return {
        "metablocking.index_build_s": build,
        "metablocking.weigh_prune_s": prune,
        "metablocking.sequential_s": build + prune,
        "metablocking.graph_edges": edges,
        "metablocking.retained_edges": retained,
        "metablocking.retained_ratio": retained / edges if edges else 0.0,
        "metablocking.edges_per_s": edges / (build + prune),
    }


def blocking_layer(tracer: Tracer, profiles: int) -> dict:
    """The ``blocking.*`` per-layer metrics out of the traced spans."""
    token = tracer.median("blocking.token")
    purge = tracer.median("blocking.purge")
    keep = tracer.median("blocking.filter")
    counts = first_counts(tracer, "blocking.filter")
    return {
        "blocking.token_s": token,
        "blocking.purge_s": purge,
        "blocking.filter_s": keep,
        "blocking.blocks_raw": first_counts(tracer, "blocking.token")["blocks"],
        "blocking.blocks_kept": counts["blocks"],
        "blocking.comparisons_kept": counts["comparisons"],
        "blocking.profiles_per_s": profiles / (token + purge + keep),
    }


def traced_wall(tracer: Tracer, metrics: dict, untraced_s: float) -> None:
    """Trace validity: overhead ratio, and the spans must cover the wall."""
    wall = tracer.median("run")
    metrics["trace.overhead_ratio"] = wall / untraced_s
    metrics["trace.span_coverage"] = tracer.coverage()


# --------------------------------------------------------------------------
# e2e_sparse / e2e_dense
# --------------------------------------------------------------------------
PIPELINE_SPANS = (
    "looseschema.partition", "blocking.token", "blocking.purge", "blocking.filter",
    "metablocking.index_build", "metablocking.weigh_prune", "matching.match",
    "clustering.cluster",
)


def _traced_pipeline(profiles, tracer: Tracer, rep: int):
    """``SparkER.run``'s stages, called directly with a span around each."""
    config = SparkERConfig.unsupervised_default()
    blocker = config.blocker
    with tracer.span("run", rep):
        with tracer.span("looseschema.partition", rep) as span:
            partitioning = AttributePartitioner(
                threshold=blocker.attribute_threshold
            ).partition(profiles)
            entropies = EntropyExtractor().extract(profiles, partitioning)
            span["counts"]["clusters"] = partitioning.num_clusters()
        with tracer.span("blocking.token", rep) as span:
            raw = LooseSchemaTokenBlocking(
                partitioning,
                cluster_entropies=entropies,
                min_token_length=blocker.min_token_length,
                remove_stopwords=blocker.remove_stopwords,
            ).block(profiles)
            span["counts"]["blocks"] = len(raw)
        with tracer.span("blocking.purge", rep):
            purged = BlockPurging(max_profile_fraction=blocker.purge_factor).purge(
                raw, len(profiles)
            )
        with tracer.span("blocking.filter", rep) as span:
            filtered = BlockFiltering(ratio=blocker.filter_ratio).filter(purged)
            span["counts"].update(
                blocks=len(filtered), comparisons=filtered.total_comparisons()
            )
        candidate_pairs = set(
            traced_metablocking(filtered, tracer, rep, blocker.use_entropy, stream=False)
        )
        with tracer.span("matching.match", rep) as span:
            graph = EntityMatcher(config.matcher, partitioning=partitioning).match(
                profiles, sorted(candidate_pairs)
            )
            span["counts"].update(pairs=len(candidate_pairs), matched=len(graph))
        with tracer.span("clustering.cluster", rep) as span:
            clusterer = EntityClusterer(config.clusterer)
            clusters = clusterer.cluster(graph)
            clusterer.generate_entities(clusters, profiles)
            span["counts"]["clusters"] = len(clusters)
    return candidate_pairs, clusters


def run_e2e(name: str, seed: int, seconds: float, trace: bool, quick: bool, import_s: float,
            clock: RelativeClock):
    checks = Checks()
    entities = ENTITIES[name] // (10 if quick else 1)

    def prepare():
        if name == "e2e_sparse":
            return generate_scalability_products(entities, seed=seed)
        return generate_abt_buy_like(SyntheticConfig(num_entities=entities, seed=seed))

    dataset, setup = timed_setup(prepare, clock)
    profiles, truth = dataset.profiles, dataset.ground_truth
    stage_s: "dict[str, list[float]]" = {}

    def digest(result):
        # Public output of the untraced pass: the pipeline's own stage clock.
        for execution in result.pipeline_result.executions:
            stage_s.setdefault(execution.label, []).append(execution.seconds)
        return pipeline_digest(result.candidate_pairs, result.clusters)

    arms = [(name, lambda: SparkER().run(profiles), digest)]
    tracer = Tracer(name) if trace else None
    if trace:
        arms.append((
            f"{name} traced",
            numbered(lambda rep: _traced_pipeline(profiles, tracer, rep)),
            lambda out: pipeline_digest(*out),
        ))
    samples, (result, *_), references = timed_reps(
        arms, *budget(seconds, trace, quick), checks, clock
    )
    rss = peak_rss_mb()
    raw_run_s = statistics.median(samples[0].raw)

    eval_started = time.perf_counter()
    f1 = pair_metrics(clusters_to_pairs(result.clusters), truth).f1
    completeness = blocking_metrics(
        result.candidate_pairs, truth, profiles.max_comparisons()
    )["pair_completeness"]
    eval_s = time.perf_counter() - eval_started

    metrics = {
        **setup_metrics(import_s, setup, clock),
        **run_metrics(samples[0], clock),
        "peak_rss_mb": rss,
        "f1": f1,
        "pair_completeness": completeness,
        "data.generate_s": summarise(setup.raw),
        "data.profiles": len(profiles),
        "evaluation.eval_s": eval_s,
        "matching.pairs_compared": len(result.candidate_pairs),
        "matching.matched_pairs": len(result.matched_pairs),
        "clustering.clusters": len(result.clusters),
    }
    for label, seconds in stage_s.items():
        metrics[f"pipeline.stage_s.{label}"] = summarise(seconds)

    if trace:
        checks.expect(
            references[1] == references[0],
            f"{name} traced pass checksum differs from the untraced pass",
        )
        match_s = tracer.median("matching.match")
        matching = first_counts(tracer, "matching.match")
        metrics.update(blocking_layer(tracer, len(profiles)))
        metrics.update(metablocking_layer(tracer))
        metrics.update({
            "looseschema.partition_s": tracer.median("looseschema.partition"),
            "looseschema.clusters": first_counts(tracer, "looseschema.partition")["clusters"],
            "matching.match_s": match_s,
            "matching.pairs_per_s": matching["pairs"] / match_s,
            "matching.match_ratio": matching["matched"] / matching["pairs"],
            "clustering.cluster_s": tracer.median("clustering.cluster"),
            # SparkER.run wall minus the layers' own spans for the same input:
            # stage statistics and artifact bookkeeping.
            "pipeline.self_s": raw_run_s
            - sum(tracer.median(span) for span in PIPELINE_SPANS),
        })
        traced_wall(tracer, metrics, raw_run_s)
    return finish(name, seed, {"entities": entities, "profiles": len(profiles)},
                  metrics, checks, tracer)


# --------------------------------------------------------------------------
# blocker_scale
# --------------------------------------------------------------------------
def _blocker_chain(profiles):
    raw = TokenBlocking().block(profiles)
    purged = BlockPurging().purge(raw, len(profiles))
    return BlockFiltering().filter(purged)


def _traced_blocker(profiles, tracer: Tracer, rep: int, keep: bool = False):
    with tracer.span("run", rep):
        with tracer.span("blocking.token", rep) as span:
            raw = TokenBlocking().block(profiles)
            span["counts"]["blocks"] = len(raw)
        with tracer.span("blocking.purge", rep):
            purged = BlockPurging().purge(raw, len(profiles))
        with tracer.span("blocking.filter", rep) as span:
            filtered = BlockFiltering().filter(purged)
            span["counts"].update(
                blocks=len(filtered), comparisons=filtered.total_comparisons()
            )
        return traced_metablocking(filtered, tracer, rep, False, stream=True, keep=keep)


def run_blocker_scale(name, seed, seconds, trace, quick, import_s, clock: RelativeClock):
    checks = Checks()
    entities = ENTITIES[name] // (10 if quick else 1)
    dataset, setup = timed_setup(
        lambda: generate_scalability_products(entities, seed=seed), clock
    )
    profiles, truth = dataset.profiles, dataset.ground_truth

    def streamed():
        """Consume the retained edges chunk by chunk; O(chunk) python objects."""
        edges = 0
        blocks = _blocker_chain(profiles)
        for chunk in MetaBlocker(WEIGHTING, PRUNING).stream_retained(blocks):
            edges += len(chunk)
        return edges

    arms = [(name, streamed, int)]
    tracer = Tracer(name) if trace else None
    if trace:
        arms.append((
            f"{name} traced",
            numbered(lambda rep: _traced_blocker(profiles, tracer, rep)),
            int,
        ))
    samples, (edges, *_), references = timed_reps(
        arms, *budget(seconds, trace, quick), checks, clock
    )
    rss = peak_rss_mb()
    raw_run_s = statistics.median(samples[0].raw)

    # Checked once, untimed: the stream is exactly the batch result.
    blocks = _blocker_chain(profiles)
    stream = [
        edge
        for chunk in MetaBlocker(WEIGHTING, PRUNING).stream_retained(blocks)
        for edge in chunk
    ]
    batch = MetaBlocker(WEIGHTING, PRUNING).run(blocks)
    checks.expect(
        stream == list(batch.retained_edges.items()),
        "streamed edges differ from MetaBlocker.run().retained_edges",
    )
    checks.expect(len(stream) == edges, "timed stream length differs from the check")
    reference = sha256_of(sorted(stream))

    eval_started = time.perf_counter()
    completeness = blocking_metrics(
        batch.candidate_pairs, truth, profiles.max_comparisons()
    )["pair_completeness"]
    eval_s = time.perf_counter() - eval_started

    metrics = {
        **setup_metrics(import_s, setup, clock),
        **run_metrics(samples[0], clock),
        "peak_rss_mb": rss,
        "pair_completeness": completeness,
        "data.generate_s": summarise(setup.raw),
        "data.profiles": len(profiles),
        "evaluation.eval_s": eval_s,
    }
    if trace:
        # The timed arms only count edges; checked once, unrecorded: the
        # traced calls emit exactly the untraced edges.
        checks.expect(
            references[1] == references[0]
            and sha256_of(sorted(_traced_blocker(profiles, Tracer(name), 0, keep=True)))
            == reference,
            f"{name} traced pass checksum differs from the untraced pass",
        )
        metrics.update(blocking_layer(tracer, len(profiles)))
        metrics.update(metablocking_layer(tracer))
        traced_wall(tracer, metrics, raw_run_s)
    return finish(name, seed, {"entities": entities, "profiles": len(profiles)},
                  metrics, checks, tracer)


# --------------------------------------------------------------------------
# engine_process2
# --------------------------------------------------------------------------
EXECUTOR = "process:2"
PARTITIONS = 4


def _no_span(_name, _rep):
    return contextlib.nullcontext()


def _parallel_run(blocks, span=_no_span, rep=0):
    """Fresh context -> partitioned meta-blocking -> stop, as a user runs it."""
    with span("run", rep):
        with span("engine.context_start", rep):
            context = EngineContext(default_parallelism=PARTITIONS, executor=EXECUTOR)
        try:
            with span("metablocking.parallel_run", rep):
                result = ParallelMetaBlocker(context, WEIGHTING, PRUNING).run(blocks)
            table = context.scheduler.stage_table()
        finally:
            with span("engine.context_stop", rep):
                context.stop()
    return result, table


def _engine_layer(table: "list[dict]", parallel_s: float) -> dict:
    """``engine.*`` from the scheduler's public stage table of one run."""
    busy = sum(row["elapsed_s"] for row in table if row["executor"] != "driver")
    return {
        "engine.stages": len(table),
        "engine.tasks": sum(row["tasks"] for row in table),
        "engine.task_failures": sum(row["failures"] for row in table),
        "engine.stage_busy_s": busy,
        "engine.driver_s": parallel_s - busy,
        "engine.shuffle_write_bytes": sum(row["shuffle_write_bytes"] for row in table),
        "engine.shuffle_relay_bytes": sum(row["shuffle_relay_bytes"] for row in table),
        "engine.max_skew": max((row["skew"] for row in table), default=0.0),
    }


def run_engine_process2(name, seed, seconds, trace, quick, import_s, clock: RelativeClock):
    checks = Checks()
    entities = ENTITIES[name] // (10 if quick else 1)

    generate = []

    def prepare():
        started = time.perf_counter()
        dataset = generate_scalability_products(entities, seed=seed)
        generate.append(time.perf_counter() - started)
        return dataset, _blocker_chain(dataset.profiles)

    (dataset, blocks), setup = timed_setup(prepare, clock)
    profiles, truth = dataset.profiles, dataset.ground_truth

    def pairs_digest(result):
        return sha256_of(sorted(result.candidate_pairs))

    arms = [
        (name, lambda: _parallel_run(blocks), lambda out: pairs_digest(out[0])),
        # The single-threaded base of parallel_over_sequential.
        (f"{name} sequential", lambda: MetaBlocker(WEIGHTING, PRUNING).run(blocks),
         pairs_digest),
    ]
    tracer = Tracer(name) if trace else None
    if trace:
        arms += [
            (f"{name} traced",
             numbered(lambda rep: _parallel_run(blocks, tracer.span, rep)),
             lambda out: pairs_digest(out[0])),
            # The sequential base split into its two phases (outside "run").
            (f"{name} traced sequential",
             numbered(lambda rep: traced_metablocking(blocks, tracer, rep, False, False)),
             lambda retained: sha256_of(sorted(retained))),
        ]
    samples, ((parallel, table), sequential, *_), references = timed_reps(
        arms, *budget(seconds, trace, quick), checks, clock
    )
    rss = peak_rss_mb()
    raw_run_s, base = statistics.median(samples[0].raw), summarise(samples[1].raw)
    checks.expect(
        len(set(references)) == 1,
        "parallel, sequential and traced candidate_pairs are not all the same",
    )

    eval_started = time.perf_counter()
    completeness = blocking_metrics(
        parallel.candidate_pairs, truth, profiles.max_comparisons()
    )["pair_completeness"]
    eval_s = time.perf_counter() - eval_started

    metrics = {
        **setup_metrics(import_s, setup, clock),
        **run_metrics(samples[0], clock),
        "peak_rss_mb": rss,
        "pair_completeness": completeness,
        # Ratio of medians; base = the sequential median, stated beside it.
        "parallel_over_sequential": raw_run_s / base["value"],
        "metablocking.sequential_s": base,
        "metablocking.graph_edges": sequential.graph_edges,
        "metablocking.retained_edges": len(sequential.retained_edges),
        "data.generate_s": summarise(generate),
        "data.profiles": len(profiles),
        "evaluation.eval_s": eval_s,
        "engine.worker_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss / 1024.0,
    }
    metrics.update(_engine_layer(table, raw_run_s))
    if trace:
        layer = metablocking_layer(tracer)
        layer["metablocking.sequential_s"] = base
        metrics.update(layer)
        traced_wall(tracer, metrics, raw_run_s)
    return finish(name, seed, {"entities": entities, "profiles": len(profiles),
                               "executor": EXECUTOR, "partitions": PARTITIONS},
                  metrics, checks, tracer)


def finish(name, seed, sizes, metrics, checks: Checks, tracer) -> dict:
    """The result record every workload returns to ``run.py``."""
    metrics["failed_share"] = len(checks.failures) / max(1, checks.attempted)
    return {
        "workload": name,
        "seed": seed,
        "sizes": sizes,
        "metrics": metrics,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "tracer": tracer,
    }


RUNNERS = {
    "e2e_sparse": run_e2e,
    "e2e_dense": run_e2e,
    "blocker_scale": run_blocker_scale,
    "engine_process2": run_engine_process2,
}
