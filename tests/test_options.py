"""Engine options: one table, one resolution, one place that reads the env.

Replaces the per-knob ``resolve_*`` unit tests with one parametrised
precedence test over :data:`repro.options.OPTIONS` (explicit > spec > env >
default, bad value ⇒ typed error naming its source), covers what is derived
from the table (CLI flags, engine-section validation, provenance, retired
keys), and guards the design with an ``ast`` walk over ``src/repro``: only
the options module reads the three ``REPRO_*`` variables, and no other
function declares a knob parameter.
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
from repro.exceptions import (
    ConfigurationError,
    EngineError,
    MetaBlockingError,
    PipelineValidationError,
)
from repro.options import (
    ENGINE_SECTION_KEYS,
    OPTIONS,
    EngineOptions,
    drop_retired_keys,
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
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for option in OPTIONS:
        monkeypatch.delenv(option.env_var, raising=False)


def test_table_is_the_three_options():
    assert [option.field for option in OPTIONS] == list(CASES)
    assert [option.field for option in OPTIONS] == list(
        EngineOptions.__dataclass_fields__
    )


@pytest.mark.parametrize("option", OPTIONS, ids=lambda option: option.field)
class TestPrecedence:
    def test_explicit_over_spec_over_env_over_default(self, option, monkeypatch):
        (explicit, spec_value, env), expected, default, _bad, _error = CASES[option.field]
        assert resolve_option(option.field) == default
        monkeypatch.setenv(option.env_var, env)
        assert resolve_option(option.field) == expected[2]
        spec = {option.field: spec_value}
        assert resolve_option(option.field, None, spec) == expected[1]
        assert resolve_option(option.field, explicit, spec) == expected[0]
        assert resolve_option(option.field, explicit) == expected[0]
        # The whole-object resolution is the same function, field by field.
        resolved = EngineOptions.resolve(**{option.field: explicit})
        assert getattr(resolved, option.field) == expected[0]

    def test_blank_values_fall_through(self, option, monkeypatch):
        default = CASES[option.field][2]
        monkeypatch.setenv(option.env_var, "   ")
        spec = {option.field: None}
        assert resolve_option(option.field, "", spec) == default

    def test_bad_value_is_a_typed_error_naming_its_source(self, option, monkeypatch):
        *_, bad, error = CASES[option.field]
        with pytest.raises(error, match=f"^{option.field}: "):
            resolve_option(option.field, bad)
        with pytest.raises(error, match=f"^engine.{option.field}: "):
            resolve_option(option.field, None, {option.field: bad})
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
        ):
            with pytest.raises(error):
                resolve_option(field, 7)

    @pytest.mark.parametrize(
        "name", ["kernal_backend", "kernel_backend", "block_store", "fault_policy", "fault_inject"]
    )
    def test_unknown_or_removed_option_name_is_a_type_error(self, name):
        with pytest.raises(TypeError, match=name):
            EngineOptions.resolve(**{name: "x"})

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

    def test_as_spec_records_every_option(self, tmp_path):
        options = EngineOptions.resolve(executor="mp:2", tmp_dir=tmp_path)
        assert options.as_spec() == {
            "executor": "process:2", "buffer_backend": "ram", "tmp_dir": str(tmp_path),
        }

    def test_path_like_tmp_dir(self, tmp_path):
        assert resolve_option("tmp_dir", tmp_path) == str(tmp_path)


class TestLeaves:
    def test_context_builds_the_pool_the_options_name(self):
        with EngineContext(2, options=EngineOptions.resolve()) as context:
            assert context.workers == 0
        with EngineContext(2, options=EngineOptions.resolve(executor="process:3")) as context:
            assert context.workers == 3 and context.executor == "process[3]"

    def test_context_explicit_values_override_handed_down_options(self, tmp_path):
        handed_down = EngineOptions.resolve(buffer_backend="memmap", executor="process:2")
        with EngineContext(
            2, executor="serial", tmp_dir=str(tmp_path), options=handed_down
        ) as context:
            assert context.options.buffer_backend == "memmap"
            assert context.options.tmp_dir == str(tmp_path)
            assert context.workers == 0

    def test_leaf_without_options_reads_the_environment(self, monkeypatch):
        from repro.metablocking.index import CSRBlockIndex

        monkeypatch.setenv("REPRO_BUFFER_BACKEND", "memmap")
        assert CSRBlockIndex().buffer_backend == "memmap"
        assert CSRBlockIndex(EngineOptions.resolve(buffer_backend="ram")).buffer_backend == "ram"


class TestDerivedFromTheTable:
    def test_engine_section_keys(self):
        assert ENGINE_SECTION_KEYS == {
            "enabled", "parallelism", "executor", "buffer_backend", "tmp_dir",
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
            ["run", "--synthetic", "abt-buy", "--workers", "2",
             "--buffer-backend", "ram", "--tmp-dir", "/x"]
        )
        assert explicit_from_args(args) == {
            "executor": "process:2",
            "buffer_backend": "ram",
            "tmp_dir": "/x",
        }

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kernel-backend", "numpy"],
            ["--block-store", "spill"],
            ["--task-retries", "2"],
            ["--task-timeout", "30"],
        ],
    )
    def test_removed_flags_went_with_their_options(self, flags):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--synthetic", "abt-buy", *flags])

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
            ("REPRO_ENGINE_EXECUTOR", "process:2", "executor"),
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
    @pytest.mark.parametrize("block_store", [None, "driver", "shared-memory", "spill"])
    def test_parent_era_spec_still_loads(self, kernel_backend, block_store):
        # The shapes `run --output-config` wrote while the retired options
        # existed: their resolved defaults, or any block store.
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"] = {
            "enabled": True, "parallelism": 4, "executor": None,
            "kernel_backend": kernel_backend, "block_store": block_store,
            "fault_policy": "retries=0,backoff=0.1,backoff_max=5",
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
        kept = drop_retired_keys({"name": "c", "block_store": "spill", "fault_policy": None})
        assert kept == {"name": "c"}
        with pytest.raises(ConfigurationError, match="fault_policy"):
            drop_retired_keys({"fault_policy": "retries=1"})

    def test_a_spec_asking_for_the_interpreted_kernel_is_refused(self):
        spec = SparkER.canonical_spec(SparkERConfig.unsupervised_default())
        spec["engine"]["kernel_backend"] = "python"
        with pytest.raises(PipelineValidationError, match="interpreted meta-blocking kernel"):
            Pipeline.from_spec(spec)


# ---------------------------------------------------------------- design guard
ENGINE_ENV_VARS = {option.env_var for option in OPTIONS}
# Knobs travel inside EngineOptions; the retired ones must not come back.
KNOB_PARAMETERS = {
    "kernel_backend", "buffer_backend", "block_store", "fault_policy", "fault_injector",
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
    assert "REPRO_SERVICE_FAULT" in set(_environ_keys(trees["service/faults.py"]))
    generic = [
        node for node in ast.walk(trees["options.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and _is_os_environ(node.func.value)
    ]
    assert len(generic) == 1  # the table-driven read in resolve_option


def test_no_function_declares_a_knob_parameter():
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
                arguments = node.args
                names = {
                    arg.arg
                    for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                }
                for name in sorted(names & KNOB_PARAMETERS):
                    offenders.append((module, prefix + node.name, name))
    assert offenders == []
