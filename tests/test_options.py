"""Retired options: the keys stored artifacts still carry, and design guards.

Covers :func:`repro.options.drop_retired_keys` through the doors stored
artifacts come in by (pipeline specs with an ``engine`` section, service
configs), the executor grammar of :class:`EngineContext`, the ``run`` flags
and environment variables that went with their options, and guards the
design with ``ast`` walks over ``src/repro``: nothing reads a retired
environment variable, no function declares a knob parameter, and no name of
a removed option survives outside the retired-key table.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine.context import EngineContext, canonical_executor
from repro.exceptions import ConfigurationError, EngineError, PipelineValidationError
from repro.options import drop_retired_keys
from repro.pipeline import Pipeline, registered_stages

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# Environment variables of the removed options: nothing may read them.
RETIRED_ENV_VARS = {"REPRO_BUFFER_BACKEND", "REPRO_TMPDIR", "REPRO_ENGINE_EXECUTOR"}

# Engine sections `run --output-config` and `SparkER.canonical_spec` wrote
# while the pipeline could run meta-blocking on the range pool, and values
# the executor grammar would refuse: all are dropped.
ENGINE_SECTIONS = [
    {"enabled": True, "parallelism": 4, "executor": None},
    {"enabled": True, "parallelism": 8, "executor": "process:2"},
    {"enabled": False, "parallelism": 4},
    {"executor": None},
    {"executor": "cluster", "parallelism": 0},
]

# The loose_schema params every resolved spec recorded while attribute
# partitioning ran MinHash with banding LSH, and other values: all dropped.
LSH_PARAMS = [
    {"num_perm": 128, "num_bands": 32, "lsh_seed": 5},
    {"num_perm": 16, "num_bands": 8, "lsh_seed": 3},
]


class TestExecutorGrammar:
    """``EngineContext``'s executor spec: ``serial`` / ``process`` / ``process:N``."""

    def test_blank_values_are_serial(self):
        assert canonical_executor(None) == canonical_executor("  ") == "serial"

    def test_bad_value_is_a_typed_error(self):
        with pytest.raises(EngineError, match="unknown executor"):
            canonical_executor("cluster")

    def test_non_string_specs_are_rejected(self):
        with pytest.raises(EngineError, match="must be a string"):
            canonical_executor(7)

    def test_resolving_a_resolved_value_is_a_no_op(self):
        for spec in ("serial", "process", "process:4"):
            assert canonical_executor(canonical_executor(spec)) == spec

    @pytest.mark.parametrize("alias", ["serial", "SERIAL"])
    def test_serial_executor_aliases(self, alias):
        assert canonical_executor(alias) == "serial"

    @pytest.mark.parametrize("alias", ["process", "PROCESS"])
    def test_process_executor_aliases(self, alias):
        assert canonical_executor(alias) == "process"
        assert canonical_executor(f"{alias}: 4") == "process:4"

    def test_names_are_case_and_space_insensitive(self):
        assert canonical_executor(" SERIAL ") == "serial"
        assert canonical_executor("Process: 4") == "process:4"

    @pytest.mark.parametrize("alias", ["sync", "driver", "processes", "multiprocessing", "mp"])
    def test_retired_aliases_are_unknown(self, alias):
        with pytest.raises(EngineError, match="unknown executor"):
            canonical_executor(alias)

    def test_executor_grammar_errors(self):
        with pytest.raises(EngineError, match="invalid worker count"):
            canonical_executor("process:many")
        with pytest.raises(EngineError, match="no worker count"):
            canonical_executor("serial:4")


class TestContext:
    def test_context_keeps_the_canonical_spec(self):
        with EngineContext(2) as context:
            assert context.executor_spec == "serial"
        with EngineContext(2, executor="process: 3") as context:
            assert context.executor_spec == "process:3"
            assert context.map(str, [1])[0] == "1"
            assert context.scheduler.stage_table()[0]["executor"] == "serial"

    def test_retired_environment_variables_are_not_read(self, monkeypatch):
        # Values the removed options would have refused: a run that still
        # read them would fail.
        from repro.blocking.block import Block, BlockCollection
        from repro.metablocking.metablocker import MetaBlocker

        monkeypatch.setenv("REPRO_BUFFER_BACKEND", "tape")
        monkeypatch.setenv("REPRO_TMPDIR", "/nonexistent/repro-root")
        monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", "cluster")
        blocks = BlockCollection()
        blocks.add(Block(key="a", profiles_source0={1, 2, 3}))
        blocks.add(Block(key="b", profiles_source0={2, 3}))
        assert MetaBlocker("cbs", "wnp").run(blocks).retained_edges
        with EngineContext(2) as context:
            assert context.executor_spec == "serial"
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=20, seed=3))
        assert SparkER(SparkERConfig.schema_agnostic()).run(dataset.profiles).candidate_pairs


class TestEngineSection:
    def test_from_spec_rejects_unknown_engine_keys(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"] = {"enabled": True, "kernal_backend": "python"}
        with pytest.raises(PipelineValidationError) as raised:
            Pipeline.from_spec(spec)
        assert "kernal_backend" in str(raised.value)

    def test_canonical_and_resolved_specs_have_no_engine_section(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        assert "engine" not in spec
        assert "engine" not in Pipeline.from_spec(spec).resolved_spec()

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
            ["--engine"],
            ["--executor", "process"],
            ["--executor", "serial"],
            ["--workers", "2"],
        ],
    )
    def test_removed_flags_went_with_their_options(self, flags):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--synthetic", "abt-buy", *flags])


class TestProvenance:
    """Specs written while the retired options existed still load and run."""

    @pytest.mark.parametrize("engine", ENGINE_SECTIONS)
    @pytest.mark.parametrize("buffer_backend", [None, "ram", "memmap"])
    @pytest.mark.parametrize("kernel_backend", [None, "auto", "numpy"])
    @pytest.mark.parametrize("block_store", [None, "driver", "shared-memory", "spill"])
    @pytest.mark.parametrize("lsh", LSH_PARAMS)
    def test_parent_era_spec_still_loads(
        self, kernel_backend, block_store, buffer_backend, engine, lsh
    ):
        # The shapes `run --output-config` wrote while the retired options
        # existed: their resolved defaults, or any block store, buffer
        # backend and temp root, beside any engine section and any LSH
        # parameters of the loose_schema stage.
        canonical = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec = dict(canonical, dataset={"synthetic": "abt-buy", "entities": 40, "seed": 42})
        spec["stages"] = [dict(entry) for entry in canonical["stages"]]
        assert spec["stages"][0]["stage"] == "loose_schema"
        spec["stages"][0]["params"] = dict(spec["stages"][0]["params"], **lsh)
        spec["engine"] = dict(
            engine,
            kernel_backend=kernel_backend, block_store=block_store,
            fault_policy="retries=0,backoff=0.1,backoff_max=5",
            buffer_backend=buffer_backend, tmp_dir="/tmp",
        )
        expected = Pipeline.from_spec(canonical).resolved_spec()
        assert Pipeline.from_spec(spec).resolved_spec() == expected

    @pytest.mark.parametrize("engine", ENGINE_SECTIONS)
    def test_parent_era_engine_section_runs_like_none(self, engine):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=40, seed=3))
        spec = SparkER.canonical_spec(SparkERConfig.schema_agnostic())
        plain = Pipeline.from_spec(spec).run(dataset.profiles)
        old = Pipeline.from_spec(dict(spec, engine=engine)).run(dataset.profiles)
        assert old.entities == plain.entities
        assert list(old.candidate_pairs) == list(plain.candidate_pairs)
        assert old.spec == plain.spec

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
        spec["engine"] = {"enabled": True, "executor": "process:2", key: value}
        with pytest.raises(PipelineValidationError, match=removed):
            Pipeline.from_spec(spec)

    @pytest.mark.parametrize("kind", sorted(registered_stages()))
    def test_a_misspelt_stage_param_is_refused(self, kind):
        with pytest.raises(PipelineValidationError, match="bad parameters"):
            Pipeline.from_spec({"stages": [{"stage": kind, "params": {"num_perms": 128}}]})

    def test_a_stage_param_asking_for_a_removed_feature_is_refused(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["stages"][0] = dict(spec["stages"][0], params={"kernel_backend": "python"})
        with pytest.raises(PipelineValidationError, match="interpreted meta-blocking kernel"):
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
        spec["engine"] = {"kernel_backend": "python"}
        with pytest.raises(PipelineValidationError, match="interpreted meta-blocking kernel"):
            Pipeline.from_spec(spec)

    def test_saved_config_with_parallelism_loads(self):
        saved = SparkERConfig.schema_agnostic().as_dict()
        assert "parallelism" not in saved
        for parallelism in (4, 8, 0):
            config = SparkERConfig.from_dict(dict(saved, parallelism=parallelism))
            assert config.as_dict() == saved


# ---------------------------------------------------------------- design guard
# Knobs of removed options, and the options object they travelled in, must
# not come back as parameters.
KNOB_PARAMETERS = {
    "kernel_backend", "buffer_backend", "block_store", "fault_policy", "fault_injector",
    "tmp_dir", "options", "executor", "use_engine", "engine",
}
# The range pool itself keeps its executor.
KNOB_OWNERS = {("engine/context.py", "executor")}


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


def test_no_module_reads_a_retired_environment_variable():
    trees = dict(_modules())
    reads = {module: set(_environ_keys(tree)) for module, tree in trees.items()}
    assert [m for m, keys in reads.items() if keys & RETIRED_ENV_VARS] == []
    # The walk does see reads: the chaos hook's own.
    assert "REPRO_SERVICE_FAULT" in reads["service/faults.py"]
    generic = [
        node for node in ast.walk(trees["options.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and _is_os_environ(node.func.value)
    ]
    assert generic == []


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
                    if (module, name) not in KNOB_OWNERS:
                        offenders.append((module, prefix + node.name, name))
    assert offenders == []


# Names of the deleted buffer backend, temp-root option, options object,
# shared-memory transport of the CSR index, the pipeline's engine option and
# the MinHash / banding LSH of attribute partitioning.
REMOVED_NAMES = re.compile(
    r"memmap|buffer_backend|tmp_dir|csrbuf|EngineOptions"
    r"|export_shared|SharedIndexBuffers|sweep_orphaned_segments|shared_memory|sharedmem"
    r"|use_engine|resolve_executor|REPRO_ENGINE_EXECUTOR|engine_metrics|executor_from_args"
    r"|check_engine_section|ENGINE_SECTION_KEYS"
    r"|MinHash|AttributeLSH|num_perm|num_bands|lsh_seed"
)


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
    keys old artifacts carry) and the one reader of earlier versions' files,
    which drops the old-snapshot slots of the incremental index."""
    if module == "pipeline/legacy.py":
        yield tree
    for node in ast.walk(tree):
        if (
            module == "options.py"
            and isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_RETIRED" for t in node.targets)
        ):
            yield node.value


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
    for module, expected in (("options.py", "buffer_backend"), ("pipeline/legacy.py", "_tmp_dir")):
        allowed_names = [
            name
            for subtree in _allowed_subtrees(module, trees[module])
            for node in ast.walk(subtree)
            for name in _names(node)
        ]
        assert expected in allowed_names
