"""Command-line interface.

The original SparkER ships a GUI for non-expert users; in a library-only
reproduction the equivalent is a small CLI that runs the unsupervised pipeline
on CSV/JSON inputs (or the built-in synthetic datasets), prints the per-stage
report and optionally writes the resolved entities and the tuned configuration
to JSON files.

Usage examples::

    # end-to-end run on the synthetic Abt-Buy stand-in
    python -m repro.cli run --synthetic abt-buy --entities 200

    # same run, meta-blocking on a 4-worker range pool
    python -m repro.cli run --synthetic abt-buy --entities 200 \
        --executor process --workers 4

    # clean-clean ER on two CSV files with a ground-truth mapping
    python -m repro.cli run --source0 abt.csv --source1 buy.csv \
        --ground-truth mapping.csv --id-field id --output entities.json

    # declarative runs: a JSON stage-graph spec instead of the fixed wiring
    python -m repro.cli run --spec examples/spec_abt_buy.json
    python -m repro.cli run --synthetic abt-buy --output-config resolved.json
    python -m repro.cli run --spec resolved.json        # reproduces the run

    # checkpoint a long run, then resume it after an interruption
    python -m repro.cli run --synthetic abt-buy --checkpoint ckpt/
    python -m repro.cli resume --checkpoint ckpt/

    # list every registered pipeline stage and its parameters
    python -m repro.cli stages

    # inspect the attribute partitioning at a given threshold
    python -m repro.cli partition --synthetic abt-buy --threshold 0.3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.dataset import DatasetPair, ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.data.loaders import load_csv, load_json
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_bibliographic,
    generate_dirty_persons,
    generate_scalability_products,
)
from repro.evaluation.report import format_table
from repro.exceptions import PipelineValidationError, SparkERError
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.looseschema.entropy import EntropyExtractor
from repro.options import executor_from_args
from repro.pipeline import Pipeline, PipelineResult, stage_catalog

class _TrackExplicit(argparse.Action):
    """Store the value and remember that the user set this flag explicitly.

    Needed to arbitrate between argparse defaults and a --spec file's
    dataset section: an explicit CLI value must win over the spec, but the
    spec must win over a mere parser default.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        explicit = getattr(namespace, "_explicit", None)
        if explicit is None:
            explicit = set()
            setattr(namespace, "_explicit", explicit)
        explicit.add(self.dest)


def _is_explicit(args: argparse.Namespace, dest: str) -> bool:
    return dest in getattr(args, "_explicit", set())


_SYNTHETIC_GENERATORS = {
    "abt-buy": lambda n, seed: generate_abt_buy_like(SyntheticConfig(num_entities=n, seed=seed)),
    "bibliographic": lambda n, seed: generate_bibliographic(num_entities=n, seed=seed),
    "dirty-persons": lambda n, seed: generate_dirty_persons(num_entities=n, seed=seed),
    # Scale-proportional vocabularies: block sizes stay bounded as n grows,
    # so this is the one safe to point at 10^4+ entities (see BENCHMARKS.md).
    "scalability": lambda n, seed: generate_scalability_products(n, seed=seed),
}


def _load_file(path: Path, *, id_field: str | None, source_id: int, start_id: int):
    if path.suffix.lower() == ".json":
        return load_json(path, id_field=id_field, source_id=source_id, start_id=start_id)
    return load_csv(path, id_field=id_field, source_id=source_id, start_id=start_id)


def _load_dataset(args: argparse.Namespace) -> DatasetPair:
    """Build the dataset from --synthetic or from --source0/--source1 files."""
    if args.synthetic:
        generator = _SYNTHETIC_GENERATORS[args.synthetic]
        return generator(args.entities, args.seed)

    if not args.source0:
        raise SparkERError("either --synthetic or --source0 must be given")

    profiles0 = _load_file(
        Path(args.source0), id_field=args.id_field, source_id=0, start_id=0
    )
    collection = ProfileCollection(profiles0)
    id_map0 = {p.original_id: p.profile_id for p in profiles0}
    id_map1: dict[str, int] = {}
    if args.source1:
        profiles1 = _load_file(
            Path(args.source1), id_field=args.id_field, source_id=1, start_id=len(profiles0)
        )
        for profile in profiles1:
            collection.add(profile)
        id_map1 = {p.original_id: p.profile_id for p in profiles1}

    ground_truth = GroundTruth()
    if args.ground_truth:
        import csv as _csv

        with Path(args.ground_truth).open(newline="", encoding="utf-8") as handle:
            reader = _csv.DictReader(handle)
            fields = reader.fieldnames or []
            if len(fields) < 2:
                raise SparkERError("the ground-truth CSV needs two id columns")
            right_map = id_map1 or id_map0
            for row in reader:
                left = id_map0.get(str(row[fields[0]]).strip())
                right = right_map.get(str(row[fields[1]]).strip())
                if left is not None and right is not None:
                    ground_truth.add(left, right)

    name = Path(args.source0).stem
    return DatasetPair(profiles=collection, ground_truth=ground_truth, name=name)


def _config_from_args(args: argparse.Namespace) -> SparkERConfig:
    config = (
        SparkERConfig.schema_agnostic()
        if getattr(args, "schema_agnostic", False)
        else SparkERConfig.unsupervised_default()
    )
    if getattr(args, "threshold", None) is not None:
        config.blocker.attribute_threshold = args.threshold
    if getattr(args, "match_threshold", None) is not None:
        config.matcher.threshold = args.match_threshold
    if getattr(args, "similarity", None):
        config.matcher.similarity = args.similarity
    config.validate()
    return config


def _dataset_section(args: argparse.Namespace) -> dict[str, object]:
    """The dataset provenance recorded by --output-config (spec round-trip)."""
    if args.synthetic:
        return {"synthetic": args.synthetic, "entities": args.entities, "seed": args.seed}
    section: dict[str, object] = {"source0": args.source0}
    if args.source1:
        section["source1"] = args.source1
    if args.ground_truth:
        section["ground_truth"] = args.ground_truth
    if args.id_field:
        section["id_field"] = args.id_field
    return section


def _apply_spec_dataset(args: argparse.Namespace, spec: dict[str, object]) -> None:
    """Fill dataset args from the spec's dataset section when none were given."""
    dataset = spec.get("dataset")
    if not isinstance(dataset, dict) or args.synthetic or args.source0:
        return
    args.synthetic = dataset.get("synthetic")
    if args.synthetic is not None and args.synthetic not in _SYNTHETIC_GENERATORS:
        raise SparkERError(f"spec dataset names unknown synthetic {args.synthetic!r}")
    if not _is_explicit(args, "entities"):
        args.entities = int(dataset.get("entities", args.entities))
    if not _is_explicit(args, "seed"):
        args.seed = int(dataset.get("seed", args.seed))
    args.source0 = dataset.get("source0") or args.source0
    args.source1 = dataset.get("source1") or args.source1
    args.ground_truth = dataset.get("ground_truth") or args.ground_truth
    args.id_field = dataset.get("id_field") or args.id_field


def _build_run_spec(args: argparse.Namespace) -> dict[str, object]:
    """The stage-graph spec of this invocation: --spec file or canonical.

    The executor flags are not folded in here: they reach
    ``Pipeline.from_spec`` as its explicit ``executor`` and are resolved
    there, once.
    """
    # --executor / --workers imply the engine.
    use_engine = args.engine or bool(args.executor) or args.workers is not None
    if args.spec:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        if not isinstance(spec, dict):
            raise SparkERError(f"spec file {args.spec} must hold a JSON object")
        _apply_spec_dataset(args, spec)
        if use_engine:
            spec["engine"] = dict(spec.get("engine") or {}, enabled=True)
        return spec
    return SparkER.canonical_spec(_config_from_args(args), use_engine=use_engine)


def _print_result(dataset: DatasetPair | None, result: PipelineResult) -> None:
    if dataset is not None:
        print(f"dataset: {dataset.summary()}")
        print()
    print(format_table(result.report.as_rows(), title="pipeline stages"))
    print()
    print(format_table(result.stage_rows(), title="stage executions"))
    print()
    print(f"summary: {result.summary()}")


def _write_run_outputs(args: argparse.Namespace, result: PipelineResult) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(json.dumps(result.entities, indent=2), encoding="utf-8")
        print(f"entities written to {args.output}")
    if getattr(args, "output_config", None):
        resolved = dict(result.spec)
        if hasattr(args, "synthetic"):  # the resume command carries no dataset args
            resolved["dataset"] = _dataset_section(args)
        Path(args.output_config).write_text(
            json.dumps(resolved, indent=2), encoding="utf-8"
        )
        print(f"resolved pipeline spec written to {args.output_config}")


def _command_run(args: argparse.Namespace) -> int:
    spec = _build_run_spec(args)
    dataset = _load_dataset(args)
    # Remove the dataset section before handing the spec to the pipeline —
    # it is CLI provenance, not a stage-graph concern.
    spec = {key: value for key, value in spec.items() if key != "dataset"}
    pipeline = Pipeline.from_spec(spec, executor=executor_from_args(args))
    ground_truth = dataset.ground_truth if len(dataset.ground_truth) else None
    try:
        result = pipeline.run(
            dataset.profiles,
            ground_truth,
            checkpoint=args.checkpoint,
            stop_after=args.stop_after,
        )
    finally:
        pipeline.shutdown()

    _print_result(dataset, result)
    if result.partial:
        hint = (
            f"; resume with: python -m repro.cli resume --checkpoint {args.checkpoint}"
            if args.checkpoint
            else ""
        )
        print(f"stopped after {args.stop_after!r}{hint}")
    _write_run_outputs(args, result)
    if args.save_config and not args.spec:
        config = _config_from_args(args)
        Path(args.save_config).write_text(
            json.dumps(config.as_dict(), indent=2), encoding="utf-8"
        )
        print(f"configuration written to {args.save_config}")
    return 0


def _command_resume(args: argparse.Namespace) -> int:
    result = Pipeline.resume(args.checkpoint, stop_after=args.stop_after)
    _print_result(None, result)
    _write_run_outputs(args, result)
    return 0


def _command_stages(args: argparse.Namespace) -> int:
    rows = stage_catalog()
    if args.stage:
        rows = [row for row in rows if row["stage"] == args.stage]
        if not rows:
            raise PipelineValidationError(f"unknown stage {args.stage!r}")
    print(format_table(rows, title="registered pipeline stages"))
    return 0


def _command_partition(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    partitioning = AttributePartitioner(threshold=args.threshold).partition(dataset.profiles)
    entropies = EntropyExtractor().extract(dataset.profiles, partitioning)
    print(f"attribute partitioning at threshold {args.threshold}:")
    for line in partitioning.describe():
        print("  " + line)
    print("cluster entropies:")
    for cluster_id, entropy in sorted(entropies.items()):
        print(f"  cluster {cluster_id}: {entropy:.3f}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.app import ServiceApp, run_service
    from repro.service.collection import CollectionConfig, ServiceCollection
    from repro.service.store import CollectionStore

    defaults: dict = {}
    service_kwargs: dict = {}
    explicit_configs: list[CollectionConfig] = []
    if args.spec:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        if not isinstance(spec, dict):
            raise PipelineValidationError("service spec must be a JSON object")
        defaults = dict(spec.get("defaults", {}))
        service_kwargs = dict(spec.get("service", {}))
        known_service_keys = {
            "workers",
            "max_queue_depth",
            "max_collection_inflight",
            "request_timeout",
            "drain_timeout",
        }
        unknown = set(service_kwargs) - known_service_keys
        if unknown:
            raise PipelineValidationError(
                f"unknown service spec keys: {sorted(unknown)} "
                f"(known: {sorted(known_service_keys)})"
            )
        for entry in spec.get("collections", []):
            explicit_configs.append(CollectionConfig.from_dict(entry))
    if args.wal_fsync:
        # The flag seeds the default fsync policy; an explicit per-collection
        # wal_fsync in the spec wins.
        defaults.setdefault("wal_fsync", args.wal_fsync)
    store = CollectionStore(
        snapshot_dir=args.snapshot_dir, wal_dir=args.wal_dir, defaults=defaults
    )
    for config in explicit_configs:
        store.add(ServiceCollection(config))
    for name in args.collection or []:
        store.get_or_create(name)
    recovery = store.recover()
    for name in recovery["restored"]:
        print(f"restored collection {name!r} from snapshot", flush=True)
    for name, count in sorted(recovery["replayed"].items()):
        print(f"replayed {count} WAL record(s) into collection {name!r}", flush=True)
    if recovery["torn_truncations"]:
        print(
            f"truncated {recovery['torn_truncations']} torn WAL tail(s)",
            flush=True,
        )

    app = ServiceApp(store, host=args.host, port=args.port, **service_kwargs)

    def announce(port: int) -> None:
        # Parseable by the CI smoke driver and by `ping` wrappers.
        print(f"serving on http://{args.host}:{port}", flush=True)
        for name in store.names():
            print(f"collection: {name}", flush=True)

    async def _serve() -> None:
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await run_service(app, ready=announce, stop_event=stop_event)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler normally wins
        app.shutdown()
    print("service stopped", flush=True)
    return 0


def _command_ping(args: argparse.Namespace) -> int:
    import time
    import urllib.error
    import urllib.request

    url = f"http://{args.host}:{args.port}/healthz"
    deadline = time.monotonic() + args.timeout
    last_error: "Exception | None" = None
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=1.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            if payload.get("status") == "ok":
                print(json.dumps(payload, sort_keys=True))
                return 0
            if payload.get("status") == "degraded":
                # The server answered, so don't retry — but "up" is not
                # "healthy": writes are being rejected (read-only mode), and
                # orchestration probes need to tell the two apart.
                print(json.dumps(payload, sort_keys=True))
                names = ", ".join(sorted(payload.get("degraded_collections") or ()))
                print(
                    f"error: service at {url} is up but degraded "
                    f"(read-only){': ' + names if names else ''}",
                    file=sys.stderr,
                )
                return 3
            last_error = RuntimeError(f"unexpected health payload: {payload}")
        except (urllib.error.URLError, OSError, ValueError) as error:
            last_error = error
        time.sleep(0.1)
    print(f"error: service at {url} not healthy: {last_error}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SparkER reproduction: scalable entity resolution"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--synthetic", choices=sorted(_SYNTHETIC_GENERATORS), default=None,
                         help="use a built-in synthetic dataset instead of input files")
        sub.add_argument("--entities", type=int, default=200, action=_TrackExplicit,
                         help="number of entities for the synthetic generators")
        sub.add_argument("--seed", type=int, default=42, action=_TrackExplicit,
                         help="synthetic generator seed")
        sub.add_argument("--source0", help="first dataset (CSV or JSON)")
        sub.add_argument("--source1", help="second dataset for clean-clean ER")
        sub.add_argument("--ground-truth", help="CSV of matching original-id pairs")
        sub.add_argument("--id-field", default=None, help="name of the record-id column")

    run = subparsers.add_parser("run", help="run the full ER pipeline")
    add_dataset_arguments(run)
    run.add_argument("--schema-agnostic", action="store_true",
                     help="disable the loose-schema generator")
    run.add_argument("--threshold", type=float, default=None,
                     help="attribute-partitioning threshold")
    run.add_argument("--similarity", default=None, help="matcher similarity function")
    run.add_argument("--match-threshold", type=float, default=None,
                     help="matcher similarity threshold")
    run.add_argument("--engine", action="store_true",
                     help="run meta-blocking on the engine's range pool")
    run.add_argument("--executor", choices=["serial", "process"],
                     help="where the meta-blocking range tasks run (implies --engine): "
                          "'serial' in this process, 'process' on a process pool")
    run.add_argument("--workers", type=int,
                     help="process-pool worker count (implies --executor process; "
                          "default: CPU count)")
    run.add_argument("--spec", default=None,
                     help="run a declarative stage-graph spec (JSON file) instead of "
                          "the canonical SparkER wiring")
    run.add_argument("--checkpoint", default=None,
                     help="directory to checkpoint the run state into after each stage")
    run.add_argument("--stop-after", default=None, metavar="LABEL",
                     help="stop after this stage label (use with --checkpoint, then "
                          "'resume' to continue)")
    run.add_argument("--output", help="write resolved entities to this JSON file")
    run.add_argument("--output-config", default=None,
                     help="write the resolved pipeline spec (stages run + resolved "
                          "parameters + dataset) to this JSON file; feed it back "
                          "through --spec to reproduce the run")
    run.add_argument("--save-config", help="write the used configuration to this JSON file")
    run.set_defaults(handler=_command_run)

    resume = subparsers.add_parser(
        "resume", help="resume a checkpointed pipeline run"
    )
    resume.add_argument("--checkpoint", required=True,
                        help="checkpoint directory written by 'run --checkpoint'")
    resume.add_argument("--stop-after", default=None, metavar="LABEL",
                        help="stop again after this stage label")
    resume.add_argument("--output", help="write resolved entities to this JSON file")
    resume.add_argument("--output-config", default=None,
                        help="write the resolved pipeline spec to this JSON file")
    resume.set_defaults(handler=_command_resume)

    stages = subparsers.add_parser(
        "stages", help="list the registered pipeline stages and their parameters"
    )
    stages.add_argument("--stage", default=None,
                        help="show only this stage")
    stages.set_defaults(handler=_command_stages)

    partition = subparsers.add_parser(
        "partition", help="show the attribute partitioning at a threshold"
    )
    add_dataset_arguments(partition)
    partition.add_argument("--threshold", type=float, default=0.3)
    partition.set_defaults(handler=_command_partition)

    serve = subparsers.add_parser(
        "serve", help="run the ER service (async HTTP ingest/query server)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks a free port and prints it")
    serve.add_argument("--spec", default=None,
                       help="service spec (JSON: {'defaults': {...}, "
                            "'collections': [{...}]}) preloading configured "
                            "collections")
    serve.add_argument("--collection", action="append", default=None,
                       metavar="NAME",
                       help="preload an empty collection with the default "
                            "config (repeatable)")
    serve.add_argument("--snapshot-dir", default=None, dest="snapshot_dir",
                       help="directory for POST .../snapshot checkpoints; "
                            "existing snapshots are restored at startup")
    serve.add_argument("--wal-dir", default=None, dest="wal_dir",
                       help="directory for per-collection write-ahead ingest "
                            "logs (<name>.wal); every ingest batch is logged "
                            "before it applies, and startup replays the log "
                            "tails over the restored snapshots so a crash "
                            "between snapshots loses nothing")
    serve.add_argument("--wal-fsync", choices=["always", "batch", "off"],
                       default=None, dest="wal_fsync",
                       help="WAL durability: 'always' fsyncs every append "
                            "(survives power loss), 'batch' (default) flushes "
                            "to the OS per append and fsyncs on snapshot/close "
                            "(survives process death), 'off' never fsyncs; "
                            "per-collection wal_fsync in --spec wins")
    serve.set_defaults(handler=_command_serve)

    ping = subparsers.add_parser(
        "ping", help="probe a running ER service's /healthz endpoint"
    )
    ping.add_argument("--host", default="127.0.0.1")
    ping.add_argument("--port", type=int, required=True)
    ping.add_argument("--timeout", type=float, default=5.0,
                      help="seconds to keep retrying before giving up")
    ping.set_defaults(handler=_command_ping)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SparkERError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
