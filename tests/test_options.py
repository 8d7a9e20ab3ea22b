"""Engine options: one table, one resolution, one place that reads the env.

Replaces the per-knob ``resolve_*`` unit tests with one parametrised
precedence test over :data:`repro.options.OPTIONS` (explicit > spec > env >
default, bad value ⇒ typed error naming its source), covers what is derived
from the table (CLI flags, engine-section validation, provenance), and guards
the design with an ``ast`` walk over ``src/repro``: only the options module
reads the six ``REPRO_*`` variables, and only it and the named leaves
declare a knob parameter.
"""

from __future__ import annotations

import ast
import tempfile
from pathlib import Path

import pytest

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine.context import EngineContext
from repro.engine.executors import (
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.faults import FaultInjector, FaultPolicy
from repro.engine.shuffle import DriverBlockStore
from repro.exceptions import EngineError, MetaBlockingError, PipelineValidationError
from repro.options import (
    ENGINE_SECTION_KEYS,
    OPTIONS,
    EngineOptions,
    explicit_from_args,
    resolve_option,
)
from repro.pipeline import Pipeline

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# field -> three distinct good raw values (explicit, spec, env), what each
# resolves to, the resolved default, one bad value and its error type.
CASES = {
    "executor": (
        ("process:3", "mp:2", "process"), ("process:3", "process:2", "process"),
        "serial", "cluster", EngineError,
    ),
    "buffer_backend": (
        ("memmap", "RAM", " MemMap "), ("memmap", "ram", "memmap"),
        "ram", "tape", MetaBlockingError,
    ),
    "tmp_dir": (
        ("/a", "/b", "/c"), ("/a", "/b", "/c"),
        tempfile.gettempdir(), 7, EngineError,
    ),
    "fault_policy": (
        ("retries=3", {"retries": 2, "timeout": 30}, "retries=1,seed=7"),
        (
            FaultPolicy(max_attempts=4),
            FaultPolicy(max_attempts=3, task_timeout=30.0),
            FaultPolicy(max_attempts=2, jitter_seed=7),
        ),
        FaultPolicy(), "retries=many", EngineError,
    ),
    "fault_inject": (
        ("crash@a:0#1", None, "raise@b:*#*"), ("crash@a:0#1", None, "raise@b:*#*"),
        None, "no-at-sign", EngineError,
    ),
    "block_store": (
        ("spill", "shm", "inline"), ("spill", "shared-memory", "driver"),
        "driver", "carrier-pigeon", EngineError,
    ),
}


def _comparable(value):
    """Injectors have no ``__eq__``; compare them by their parsed clauses."""
    return value.clauses if isinstance(value, FaultInjector) else value


def _expect(field, resolved, expected):
    if field == "fault_inject" and expected is not None:
        expected = FaultInjector.parse(expected)
    assert _comparable(resolved) == _comparable(expected)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for option in OPTIONS:
        monkeypatch.delenv(option.env_var, raising=False)


def test_table_is_the_six_options():
    assert [option.field for option in OPTIONS] == list(CASES)
    assert [option.field for option in OPTIONS] == list(
        EngineOptions.__dataclass_fields__
    )


@pytest.mark.parametrize("option", OPTIONS, ids=lambda option: option.field)
class TestPrecedence:
    def test_explicit_over_spec_over_env_over_default(self, option, monkeypatch):
        (explicit, spec_value, env), expected, default, _bad, _error = CASES[option.field]
        _expect(option.field, resolve_option(option.field), default)
        monkeypatch.setenv(option.env_var, env)
        _expect(option.field, resolve_option(option.field), expected[2])
        if option.spec_key is not None:
            spec = {option.spec_key: spec_value}
            _expect(option.field, resolve_option(option.field, None, spec), expected[1])
            _expect(option.field, resolve_option(option.field, explicit, spec), expected[0])
        _expect(option.field, resolve_option(option.field, explicit), expected[0])
        # The whole-object resolution is the same function, field by field.
        resolved = EngineOptions.resolve(**{option.field: explicit})
        _expect(option.field, getattr(resolved, option.field), expected[0])

    def test_blank_values_fall_through(self, option, monkeypatch):
        default = CASES[option.field][2]
        monkeypatch.setenv(option.env_var, "   ")
        spec = {option.spec_key: None} if option.spec_key else None
        _expect(option.field, resolve_option(option.field, "", spec), default)

    def test_bad_value_is_a_typed_error_naming_its_source(self, option, monkeypatch):
        *_, bad, error = CASES[option.field]
        with pytest.raises(error, match=f"^{option.field}: "):
            resolve_option(option.field, bad)
        if option.spec_key is not None:
            with pytest.raises(error, match=f"^engine.{option.spec_key}: "):
                resolve_option(option.field, None, {option.spec_key: bad})
        monkeypatch.setenv(option.env_var, str(bad))
        if isinstance(bad, str):
            with pytest.raises(error, match=f"^{option.env_var}: "):
                EngineOptions.resolve()

    def test_base_options_are_taken_unchanged(self, option, monkeypatch):
        (explicit, _spec, env), expected, *_ = CASES[option.field]
        base = EngineOptions.resolve(**{option.field: explicit})
        monkeypatch.setenv(option.env_var, env)
        kept = EngineOptions.resolve(base=base)
        assert getattr(kept, option.field) is getattr(base, option.field)


class TestValidators:
    def test_non_string_specs_are_rejected(self):
        for field, error in (
            ("executor", EngineError),
            ("buffer_backend", MetaBlockingError),
            ("fault_policy", EngineError),
            ("fault_inject", EngineError),
            ("block_store", EngineError),
        ):
            with pytest.raises(error):
                resolve_option(field, 7)

    def test_unknown_option_name_is_a_type_error(self):
        with pytest.raises(TypeError, match="kernal_backend"):
            EngineOptions.resolve(kernal_backend="python")
        with pytest.raises(TypeError, match="kernel_backend"):  # a removed option
            EngineOptions.resolve(kernel_backend="numpy")

    @pytest.mark.parametrize("alias", ["serial", "sync", "driver", "SERIAL"])
    def test_serial_executor_aliases(self, alias):
        assert resolve_option("executor", alias) == "serial"

    @pytest.mark.parametrize("alias", ["process", "processes", "multiprocessing", "mp"])
    def test_process_executor_aliases(self, alias):
        assert resolve_option("executor", alias) == "process"
        assert resolve_option("executor", f"{alias}: 4") == "process:4"

    def test_executor_grammar_errors(self):
        with pytest.raises(EngineError, match="invalid worker count"):
            resolve_option("executor", "process:many")
        with pytest.raises(EngineError, match="no worker count"):
            resolve_option("executor", "serial:4")

    @pytest.mark.parametrize(
        "alias", ["shared-memory", "shared_memory", "sharedmem", "shm", "SHM"]
    )
    def test_shared_memory_aliases(self, alias):
        assert resolve_option("block_store", alias) == "shared-memory"

    @pytest.mark.parametrize("alias", ["spill", "file", "spill-file"])
    def test_spill_aliases(self, alias):
        assert resolve_option("block_store", alias) == "spill"

    def test_instances_pass_through(self):
        executor, store = SerialExecutor(), DriverBlockStore()
        policy = FaultPolicy(max_attempts=3)
        injector = FaultInjector.parse("crash@stage:0#1")
        options = EngineOptions.resolve(
            executor=executor, block_store=store,
            fault_policy=policy, fault_inject=injector,
        )
        assert options.executor is executor and options.block_store is store
        assert options.fault_policy is policy and options.fault_inject is injector
        # Instances serialise through their own spec().
        section = options.as_spec()
        assert section["executor"] == "serial"
        assert section["block_store"] == "driver"
        assert section["fault_policy"] == policy.spec()

    def test_path_like_tmp_dir(self, tmp_path):
        assert resolve_option("tmp_dir", tmp_path) == str(tmp_path)


class TestLeaves:
    def test_make_executor_builds_what_the_options_name(self):
        assert isinstance(make_executor(EngineOptions.resolve()), SerialExecutor)
        options = EngineOptions.resolve(
            executor="process:3", fault_policy="retries=2",
            fault_inject="crash@stage:0#1",
        )
        executor = make_executor(options)
        try:
            assert isinstance(executor, MultiprocessingExecutor)
            assert executor.max_workers == 3
            assert executor.fault_policy.max_attempts == 3
            assert executor.fault_injector is options.fault_inject
            assert executor.spec() == "process:3"
        finally:
            executor.close()
        instance = SerialExecutor()
        assert make_executor(EngineOptions.resolve(executor=instance)) is instance

    def test_context_explicit_values_override_handed_down_options(self, tmp_path):
        handed_down = EngineOptions.resolve(buffer_backend="memmap", block_store="spill")
        with EngineContext(2, tmp_dir=str(tmp_path), options=handed_down) as context:
            assert context.options.buffer_backend == "memmap"
            assert context.options.tmp_dir == str(tmp_path)
            assert context.block_store.directory.startswith(str(tmp_path))

    def test_leaf_without_options_reads_the_environment(self, monkeypatch):
        from repro.metablocking.index import CSRBlockIndex

        monkeypatch.setenv("REPRO_BUFFER_BACKEND", "memmap")
        assert CSRBlockIndex().buffer_backend == "memmap"
        assert CSRBlockIndex(EngineOptions.resolve(buffer_backend="ram")).buffer_backend == "ram"


class TestDerivedFromTheTable:
    def test_engine_section_keys(self):
        assert ENGINE_SECTION_KEYS == {
            "enabled", "parallelism", "executor",
            "buffer_backend", "tmp_dir", "fault_policy", "block_store",
        }

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
        spec["engine"]["buffer_backend"] = "tape"
        with pytest.raises(PipelineValidationError, match="engine.buffer_backend"):
            Pipeline.from_spec(spec)

    def test_cli_flags_compose_explicit_values(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "--synthetic", "abt-buy"])
        assert explicit_from_args(args) == {}
        args = parser.parse_args(
            ["run", "--synthetic", "abt-buy", "--workers", "2", "--task-retries", "2",
             "--task-timeout", "30",
             "--buffer-backend", "ram", "--tmp-dir", "/x", "--block-store", "spill"]
        )
        assert explicit_from_args(args) == {
            "executor": "process:2",
            "buffer_backend": "ram",
            "tmp_dir": "/x",
            "fault_policy": "retries=2,timeout=30",
            "block_store": "spill",
        }
        with pytest.raises(SystemExit):  # the flag went with the option
            parser.parse_args(["run", "--kernel-backend", "numpy"])

    def test_every_flag_is_declared_on_run(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        help_text = capsys.readouterr().out
        for option in OPTIONS:
            for flag, _keywords in option.flags:
                assert flag in help_text

    def test_overrides_win_over_the_engine_section(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"]["buffer_backend"] = "ram"
        pipeline = Pipeline.from_spec(spec, overrides={"buffer_backend": "memmap"})
        assert pipeline.options.buffer_backend == "memmap"


class TestProvenance:
    """A resolved spec records what ran, so it replays under any environment."""

    @pytest.mark.parametrize(
        "env_var, value, field",
        [
            ("REPRO_BUFFER_BACKEND", "memmap", "buffer_backend"),
            ("REPRO_BLOCK_STORE", "spill", "block_store"),
        ],
    )
    def test_env_selected_backend_round_trips(self, env_var, value, field, monkeypatch):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=30, seed=3))
        monkeypatch.setenv(env_var, value)
        # Schema-agnostic: the loose-schema LSH adds nothing to what is tested.
        facade = SparkER(SparkERConfig.schema_agnostic(), use_engine=True)
        try:
            first = facade.run(dataset.profiles)
        finally:
            facade.shutdown()
        spec = first.pipeline_result.spec
        assert spec["engine"][field] == value

        monkeypatch.delenv(env_var)
        replay = Pipeline.from_spec(spec)
        try:
            assert getattr(replay.options, field) == value
            assert getattr(replay.engine.options, field) == value
            second = replay.run(dataset.profiles)
        finally:
            replay.shutdown()
        assert second.candidate_pairs == first.candidate_pairs
        assert second.spec == spec

    @pytest.mark.parametrize("kernel_backend", [None, "auto", "numpy"])
    def test_parent_era_spec_still_loads(self, kernel_backend):
        # The shape `run --output-config` wrote before EngineOptions, and
        # while the retired kernel-backend option existed.
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"] = {
            "enabled": True, "parallelism": 4, "executor": None,
            "kernel_backend": kernel_backend, "fault_policy": "retries=2,timeout=30",
        }
        spec["dataset"] = {"synthetic": "abt-buy", "entities": 40, "seed": 42}
        pipeline = Pipeline.from_spec(spec)
        try:
            assert pipeline.options.fault_policy.max_attempts == 3
            assert isinstance(pipeline.engine.executor, SerialExecutor)
            assert "kernel_backend" not in pipeline.resolved_spec()["engine"]
        finally:
            pipeline.shutdown()

    def test_a_spec_asking_for_the_interpreted_kernel_is_refused(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"]["kernel_backend"] = "python"
        with pytest.raises(PipelineValidationError, match="interpreted meta-blocking kernel"):
            Pipeline.from_spec(spec)


# ---------------------------------------------------------------- design guard
ENGINE_ENV_VARS = {option.env_var for option in OPTIONS}
KNOB_PARAMETERS = {
    "kernel_backend", "buffer_backend", "block_store", "fault_policy", "fault_injector",
}
# The leaves that act on a knob and therefore may take it by name.
LEAVES = {
    ("engine/context.py", "EngineContext.__init__"),
    ("engine/executors.py", "MultiprocessingExecutor.__init__"),
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
    offenders = [
        (module, key)
        for module, tree in _modules()
        if module != "options.py"
        for key in _environ_keys(tree)
        if key in ENGINE_ENV_VARS
    ]
    assert offenders == []
    # The walk does see reads: the options module's own and the chaos hook.
    trees = dict(_modules())
    assert "REPRO_SERVICE_FAULT" in set(_environ_keys(trees["engine/faults.py"]))
    generic = [
        node for node in ast.walk(trees["options.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and _is_os_environ(node.func.value)
    ]
    assert len(generic) == 1  # the table-driven read in resolve_option


def test_only_the_named_leaves_declare_a_knob_parameter():
    offenders = []
    for module, tree in _modules():
        if module == "options.py":
            continue
        for owner in ast.walk(tree):
            if not isinstance(owner, (ast.ClassDef, ast.Module)):
                continue
            prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
            for node in owner.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (module, prefix + node.name) in LEAVES:
                    continue
                arguments = node.args
                names = {
                    arg.arg
                    for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                }
                for name in sorted(names & KNOB_PARAMETERS):
                    offenders.append((module, prefix + node.name, name))
    assert offenders == []


def test_executor_base_class_spec():
    assert Executor().spec() == "executor"
