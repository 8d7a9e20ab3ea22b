"""The engine option: one resolution, one place that reads the env.

Covers :func:`repro.options.resolve_executor` (explicit > spec > env >
``serial``, bad value ⇒ typed error naming its source), what builds on it
(the ``--executor`` / ``--workers`` flags, engine-section validation,
provenance, retired keys), and guards the design with ``ast`` walks over
``src/repro``: only the options module reads ``REPRO_ENGINE_EXECUTOR``, no
function declares a knob parameter, and no name of the removed buffer
backend, temp-root option or options object survives outside the
retired-key table.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine.context import EngineContext
from repro.exceptions import ConfigurationError, EngineError, PipelineValidationError
from repro.options import (
    ENGINE_SECTION_KEYS,
    EXECUTOR_ENV_VAR,
    drop_retired_keys,
    executor_from_args,
    resolve_executor,
)
from repro.pipeline import Pipeline

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# Environment variables of the removed options: nothing may read them.
RETIRED_ENV_VARS = {"REPRO_BUFFER_BACKEND", "REPRO_TMPDIR"}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)


class TestResolveExecutor:
    def test_explicit_over_spec_over_env_over_default(self, monkeypatch):
        assert resolve_executor() == "serial"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        assert resolve_executor() == "process"
        spec = {"executor": "mp:2"}
        assert resolve_executor(None, spec) == "process:2"
        assert resolve_executor("process:3", spec) == "process:3"
        assert resolve_executor("process:3") == "process:3"

    def test_blank_values_fall_through(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "   ")
        assert resolve_executor("", {"executor": None}) == "serial"

    def test_bad_value_is_a_typed_error_naming_its_source(self, monkeypatch):
        with pytest.raises(EngineError, match="^executor: "):
            resolve_executor("cluster")
        with pytest.raises(EngineError, match="^engine.executor: "):
            resolve_executor(None, {"executor": "cluster"})
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "cluster")
        with pytest.raises(EngineError, match=f"^{EXECUTOR_ENV_VAR}: "):
            resolve_executor()

    def test_non_string_specs_are_rejected(self):
        with pytest.raises(EngineError, match="must be a string"):
            resolve_executor(7)

    def test_resolving_a_resolved_value_is_a_no_op(self):
        for spec in ("serial", "process", "process:4"):
            assert resolve_executor(resolve_executor(spec)) == spec

    @pytest.mark.parametrize("alias", ["serial", "sync", "driver", "SERIAL"])
    def test_serial_executor_aliases(self, alias):
        assert resolve_executor(alias) == "serial"

    @pytest.mark.parametrize("alias", ["process", "processes", "multiprocessing", "mp"])
    def test_process_executor_aliases(self, alias):
        assert resolve_executor(alias) == "process"
        assert resolve_executor(f"{alias}: 4") == "process:4"

    def test_executor_grammar_errors(self):
        with pytest.raises(EngineError, match="invalid worker count"):
            resolve_executor("process:many")
        with pytest.raises(EngineError, match="no worker count"):
            resolve_executor("serial:4")


class TestContext:
    def test_context_builds_the_pool_the_executor_names(self):
        with EngineContext(2) as context:
            assert (context.workers, context.executor_spec) == (0, "serial")
        with EngineContext(2, executor="mp:3") as context:
            assert context.workers == 3 and context.executor == "process[3]"
            assert context.executor_spec == "process:3"

    def test_context_without_an_executor_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process:2")
        with EngineContext(2) as context:
            assert context.executor_spec == "process:2"
        with EngineContext(2, executor="serial") as context:
            assert context.workers == 0

    def test_retired_environment_variables_are_not_read(self, monkeypatch):
        # Values the removed options would have refused: a run that still
        # read them would fail.
        from repro.blocking.block import Block, BlockCollection
        from repro.metablocking.metablocker import MetaBlocker

        monkeypatch.setenv("REPRO_BUFFER_BACKEND", "tape")
        monkeypatch.setenv("REPRO_TMPDIR", "/nonexistent/repro-root")
        blocks = BlockCollection()
        blocks.add(Block(key="a", profiles_source0={1, 2, 3}))
        blocks.add(Block(key="b", profiles_source0={2, 3}))
        assert MetaBlocker("cbs", "wnp").run(blocks).retained_edges


class TestEngineSection:
    def test_engine_section_keys(self):
        assert ENGINE_SECTION_KEYS == {"enabled", "parallelism", "executor"}

    def test_from_spec_rejects_unknown_engine_keys(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"]["kernal_backend"] = "python"
        with pytest.raises(PipelineValidationError) as raised:
            Pipeline.from_spec(spec)
        assert "kernal_backend" in str(raised.value)
        for key in ENGINE_SECTION_KEYS:
            assert key in str(raised.value)

    def test_from_spec_wraps_bad_values(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"]["executor"] = "cluster"
        with pytest.raises(PipelineValidationError, match="engine.executor"):
            Pipeline.from_spec(spec)

    def test_explicit_executor_wins_over_the_engine_section(self):
        spec = SparkER.canonical_spec(
            SparkERConfig.unsupervised_default(), use_engine=True, executor="process:2"
        )
        with Pipeline.from_spec(spec, executor="serial") as pipeline:
            assert pipeline.executor == "serial"
            assert pipeline.engine.workers == 0

    def test_cli_flags_compose_the_executor(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert executor_from_args(parser.parse_args(["run", "--synthetic", "abt-buy"])) is None
        args = parser.parse_args(["run", "--synthetic", "abt-buy", "--workers", "2"])
        assert executor_from_args(args) == "process:2"
        args = parser.parse_args(["run", "--synthetic", "abt-buy", "--executor", "serial"])
        assert executor_from_args(args) == "serial"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kernel-backend", "numpy"],
            ["--block-store", "spill"],
            ["--task-retries", "2"],
            ["--task-timeout", "30"],
            ["--buffer-backend", "ram"],
            ["--buffer-backend", "memmap"],
            ["--tmp-dir", "/tmp"],
        ],
    )
    def test_removed_flags_went_with_their_options(self, flags):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--synthetic", "abt-buy", *flags])

    def test_the_executor_flags_are_declared_on_run(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        help_text = capsys.readouterr().out
        assert "--executor" in help_text and "--workers" in help_text


class TestProvenance:
    """A resolved spec records what ran, so it replays under any environment."""

    def test_env_selected_executor_round_trips(self, monkeypatch):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=30, seed=3))
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process:2")
        # Schema-agnostic: the loose-schema LSH adds nothing to what is tested.
        facade = SparkER(SparkERConfig.schema_agnostic(), use_engine=True)
        try:
            first = facade.run(dataset.profiles)
        finally:
            facade.shutdown()
        spec = first.pipeline_result.spec
        assert spec["engine"]["executor"] == "process:2"

        monkeypatch.delenv(EXECUTOR_ENV_VAR)
        replay = Pipeline.from_spec(spec)
        try:
            assert replay.executor == "process:2"
            assert replay.engine.executor_spec == "process:2"
            second = replay.run(dataset.profiles)
        finally:
            replay.shutdown()
        assert second.candidate_pairs == first.candidate_pairs
        assert second.spec == spec

    @pytest.mark.parametrize("buffer_backend", [None, "ram", "memmap"])
    @pytest.mark.parametrize("kernel_backend", [None, "auto", "numpy"])
    @pytest.mark.parametrize("block_store", [None, "driver", "shared-memory", "spill"])
    def test_parent_era_spec_still_loads(self, kernel_backend, block_store, buffer_backend):
        # The shapes `run --output-config` wrote while the retired options
        # existed: their resolved defaults, or any block store, buffer
        # backend and temp root.
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"] = {
            "enabled": True, "parallelism": 4, "executor": None,
            "kernel_backend": kernel_backend, "block_store": block_store,
            "fault_policy": "retries=0,backoff=0.1,backoff_max=5",
            "buffer_backend": buffer_backend, "tmp_dir": "/tmp",
        }
        spec["dataset"] = {"synthetic": "abt-buy", "entities": 40, "seed": 42}
        pipeline = Pipeline.from_spec(spec)
        try:
            assert pipeline.engine.executor == "serial"
            assert set(pipeline.resolved_spec()["engine"]) == ENGINE_SECTION_KEYS
        finally:
            pipeline.shutdown()

    @pytest.mark.parametrize(
        "key, value, removed",
        [
            ("fault_policy", "retries=2,timeout=30", "task retries"),
            ("fault_policy", {"retries": 0}, "task retries"),
            ("fault_inject", "crash@metablocking.weights:0#1", "fault injector"),
        ],
    )
    def test_a_spec_asking_for_a_removed_feature_is_refused(self, key, value, removed):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"][key] = value
        with pytest.raises(PipelineValidationError, match=removed):
            Pipeline.from_spec(spec)

    def test_retired_keys_in_a_service_config(self):
        kept = drop_retired_keys({
            "name": "c", "block_store": "spill", "fault_policy": None,
            "buffer_backend": "memmap", "tmp_dir": "/var/tmp",
        })
        assert kept == {"name": "c"}
        with pytest.raises(ConfigurationError, match="fault_policy"):
            drop_retired_keys({"fault_policy": "retries=1"})

    def test_a_spec_asking_for_the_interpreted_kernel_is_refused(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"]["kernel_backend"] = "python"
        with pytest.raises(PipelineValidationError, match="interpreted meta-blocking kernel"):
            Pipeline.from_spec(spec)


# ---------------------------------------------------------------- design guard
# Knobs of removed options, and the options object they travelled in, must
# not come back as parameters.
KNOB_PARAMETERS = {
    "kernel_backend", "buffer_backend", "block_store", "fault_policy", "fault_injector",
    "tmp_dir", "options",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _string_constants(tree):
    """Module-level ``NAME = "literal"`` bindings (env-var name constants)."""
    constants = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
    return constants


def _is_os_environ(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _environ_keys(tree):
    """Every key read through ``os.environ.get(K)`` / ``os.environ[K]`` /
    ``os.getenv(K)``, with module-level string constants followed."""
    constants = _string_constants(tree)

    def literal(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return None

    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            target = node.func
            if _is_os_environ(target.value) or (
                target.attr == "getenv"
                and isinstance(target.value, ast.Name)
                and target.value.id == "os"
            ):
                key = literal(node.args[0])
        elif isinstance(node, ast.Subscript) and _is_os_environ(node.value):
            key = literal(node.slice)
        if key is not None:
            yield key


def test_only_the_options_module_reads_the_engine_environment():
    trees = dict(_modules())
    reads = {module: set(_environ_keys(tree)) for module, tree in trees.items()}
    assert [m for m, keys in reads.items() if EXECUTOR_ENV_VAR in keys] == ["options.py"]
    assert [m for m, keys in reads.items() if keys & RETIRED_ENV_VARS] == []
    # The walk does see reads: the chaos hook's own.
    assert "REPRO_SERVICE_FAULT" in reads["service/faults.py"]
    generic = [
        node for node in ast.walk(trees["options.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and _is_os_environ(node.func.value)
    ]
    assert len(generic) == 1  # the one read in resolve_executor


def test_no_function_declares_a_knob_parameter():
    offenders = []
    for module, tree in _modules():
        for owner in ast.walk(tree):
            if not isinstance(owner, (ast.ClassDef, ast.Module)):
                continue
            prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
            for node in owner.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                arguments = node.args
                names = {
                    arg.arg
                    for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                }
                for name in sorted(names & KNOB_PARAMETERS):
                    offenders.append((module, prefix + node.name, name))
    assert offenders == []


# Names of the deleted buffer backend, temp-root option and options object.
REMOVED_NAMES = re.compile(r"memmap|buffer_backend|tmp_dir|csrbuf|EngineOptions")


def _names(node):
    """The identifiers and string constants one AST node carries."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.keyword):
        return [node.arg or ""]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname or ""]
    return []


def _allowed_subtrees(module, tree):
    """Where the removed names may still appear: the retired-key table (the
    keys old artifacts carry) and the old-snapshot slot names the incremental
    index ignores on restore."""
    for node in ast.walk(tree):
        if (
            module == "options.py"
            and isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_RETIRED" for t in node.targets)
        ):
            yield node.value
        if module == "metablocking/index.py" and isinstance(node, ast.ClassDef) and (
            node.name == "IncrementalBlockIndex"
        ):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "__setstate__":
                    yield from method.body


def test_no_removed_option_name_outside_the_retired_table():
    offenders = []
    for module, tree in _modules():
        allowed = {
            id(node)
            for subtree in _allowed_subtrees(module, tree)
            for node in ast.walk(subtree)
        }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            for name in _names(node):
                if REMOVED_NAMES.search(name):
                    offenders.append((module, getattr(node, "lineno", None), name[:60]))
    assert offenders == []
    # The allowances are not vacuous: the table and the slot names are there.
    trees = dict(_modules())
    for module, expected in (("options.py", "buffer_backend"), ("metablocking/index.py", "_tmp_dir")):
        allowed_names = [
            name
            for subtree in _allowed_subtrees(module, trees[module])
            for node in ast.walk(subtree)
            for name in _names(node)
        ]
        assert expected in allowed_names
