"""Tests of the command-line interface."""

import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.pipeline import PipelineCheckpoint

# The engine sections `run --output-config` and checkpoints recorded while
# block stores, fault policies, buffer backends and temp roots existed: the
# resolved defaults, and the memmap backend under an explicit root.
_PARENT_ENGINE = {
    "executor": "serial", "buffer_backend": "ram", "tmp_dir": tempfile.gettempdir(),
    "fault_policy": "retries=0,backoff=0.1,backoff_max=5", "block_store": "driver",
}
PARENT_ENGINES = pytest.mark.parametrize(
    "parent_engine",
    [_PARENT_ENGINE, dict(_PARENT_ENGINE, buffer_backend="memmap", tmp_dir="/var/tmp/repro")],
    ids=["ram", "memmap"],
)


def metrics_table(output):
    lines = output.splitlines()
    start = lines.index("pipeline stages")
    return lines[start:lines.index("", start)]


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--synthetic", "abt-buy"])
        assert args.command == "run"
        assert args.entities == 200
        assert not args.schema_agnostic

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "--synthetic", "abt-buy"])
        assert args.threshold == 0.3

    def test_unknown_synthetic_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--synthetic", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommand:
    def test_synthetic_run(self, capsys, tmp_path):
        output = tmp_path / "entities.json"
        config_path = tmp_path / "config.json"
        exit_code = main(
            [
                "run",
                "--synthetic", "abt-buy",
                "--entities", "60",
                "--output", str(output),
                "--save-config", str(config_path),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "pipeline stages" in captured
        assert "summary:" in captured
        entities = json.loads(output.read_text())
        assert isinstance(entities, list) and entities
        config = json.loads(config_path.read_text())
        assert config["blocker"]["use_loose_schema"] is True

    def test_schema_agnostic_flag(self, capsys):
        exit_code = main(
            ["run", "--synthetic", "abt-buy", "--entities", "50", "--schema-agnostic"]
        )
        assert exit_code == 0

    def test_dirty_dataset(self, capsys):
        exit_code = main(
            ["run", "--synthetic", "dirty-persons", "--entities", "50",
             "--schema-agnostic", "--match-threshold", "0.5"]
        )
        assert exit_code == 0

    def test_csv_inputs(self, capsys, tmp_path):
        source0 = tmp_path / "a.csv"
        source0.write_text(
            "id,name,price\n1,sony bravia tv,100\n2,canon eos camera,300\n"
        )
        source1 = tmp_path / "b.csv"
        source1.write_text(
            "id,title,cost\nx,sony bravia television,105\ny,whirlpool fridge,900\n"
        )
        mapping = tmp_path / "gt.csv"
        mapping.write_text("id1,id2\n1,x\n")
        exit_code = main(
            [
                "run",
                "--source0", str(source0),
                "--source1", str(source1),
                "--ground-truth", str(mapping),
                "--id-field", "id",
                "--schema-agnostic",
                "--match-threshold", "0.3",
            ]
        )
        assert exit_code == 0
        assert "pipeline stages" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", [[], ["--schema-agnostic"]])
    def test_non_ascii_json_sources(self, capsys, tmp_path, mode):
        # Accents, Greek (a final capital sigma), CJK, punctuation and an
        # embedded NUL: record i of one source describes record i of the other.
        output = tmp_path / "entities.json"
        data = Path(__file__).resolve().parents[1] / "examples" / "data"
        exit_code = main(
            ["run", "--source0", str(data / "unicode_source0.json"),
             "--source1", str(data / "unicode_source1.json"), "--id-field", "id",
             "--output", str(output), *mode]
        )
        assert exit_code == 0
        entities = json.loads(output.read_text(encoding="utf-8"))
        assert sorted(entity["profiles"] for entity in entities) == [[i, i + 5] for i in range(5)]

    def test_missing_input_is_error(self, capsys):
        exit_code = main(["run"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_engine_executor_smoke(self, capsys, executor):
        """Tiny end-to-end pipeline with the engine under both executors.

        ``--executor`` implies ``--engine``; with the process executor the
        meta-blocking ranges run on the pool and the run exits 0.
        """
        arguments = ["run", "--synthetic", "abt-buy", "--entities", "40",
                     "--executor", executor]
        if executor == "process":
            arguments += ["--workers", "2"]
        exit_code = main(arguments)
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "pipeline stages" in captured
        assert "summary:" in captured

    def test_executor_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "--synthetic", "abt-buy", "--executor", "process", "--workers", "4"]
        )
        assert args.executor == "process"
        assert args.workers == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--synthetic", "abt-buy", "--executor", "thread"])

    def test_serial_with_workers_is_a_clean_error(self, capsys):
        exit_code = main(
            ["run", "--synthetic", "abt-buy", "--entities", "30",
             "--executor", "serial", "--workers", "2"]
        )
        assert exit_code == 2
        assert "no worker count" in capsys.readouterr().err

    def test_workers_alone_implies_process_executor(self, capsys):
        """--workers without --executor must not be silently ignored."""
        from repro.options import executor_from_args as _executor_spec

        args = build_parser().parse_args(
            ["run", "--synthetic", "abt-buy", "--workers", "2"]
        )
        assert _executor_spec(args) == "process:2"
        exit_code = main(
            ["run", "--synthetic", "abt-buy", "--entities", "30", "--workers", "2"]
        )
        assert exit_code == 0


class TestStagesCommand:
    def test_lists_registered_stages(self, capsys):
        assert main(["stages"]) == 0
        captured = capsys.readouterr().out
        assert "registered pipeline stages" in captured
        for kind in ("token_blocking", "meta_blocking", "matching", "clustering"):
            assert kind in captured

    def test_single_stage_filter(self, capsys):
        assert main(["stages", "--stage", "meta_blocking"]) == 0
        captured = capsys.readouterr().out
        assert "meta_blocking" in captured
        assert "token_blocking" not in captured

    def test_unknown_stage_is_a_clean_error(self, capsys):
        assert main(["stages", "--stage", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSpecRun:
    def test_run_from_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "dataset": {"synthetic": "abt-buy", "entities": 40, "seed": 3},
            "stages": [
                {"stage": "token_blocking"},
                {"stage": "block_purging"},
                {"stage": "block_filtering"},
                {"stage": "meta_blocking"},
                {"stage": "matching"},
                {"stage": "clustering"},
                {"stage": "entity_generation"},
            ],
        }))
        assert main(["run", "--spec", str(spec_path)]) == 0
        captured = capsys.readouterr().out
        assert "pipeline stages" in captured
        assert "stage executions" in captured

    def test_output_config_round_trips(self, capsys, tmp_path):
        resolved = tmp_path / "resolved.json"
        assert main([
            "run", "--synthetic", "abt-buy", "--entities", "40",
            "--output-config", str(resolved),
        ]) == 0
        first = capsys.readouterr().out
        spec = json.loads(resolved.read_text())
        assert spec["dataset"] == {"synthetic": "abt-buy", "entities": 40, "seed": 42}
        assert [entry["stage"] for entry in spec["stages"]] == [
            "loose_schema", "token_blocking", "block_purging", "block_filtering",
            "meta_blocking", "matching", "clustering", "entity_generation",
        ]
        assert spec["stages"][4]["params"]["pruning"] == "wnp"
        assert main(["run", "--spec", str(resolved)]) == 0
        second = capsys.readouterr().out
        assert metrics_table(first) == metrics_table(second)

    @PARENT_ENGINES
    def test_a_parent_written_output_config_replays_byte_identically(
        self, capsys, tmp_path, parent_engine
    ):
        resolved, first_out, second_out = (
            tmp_path / "resolved.json", tmp_path / "first.json", tmp_path / "second.json"
        )
        assert main([
            "run", "--synthetic", "abt-buy", "--entities", "40",
            "--output-config", str(resolved), "--output", str(first_out),
        ]) == 0
        first = capsys.readouterr().out
        spec = json.loads(resolved.read_text())
        spec["engine"].update(parent_engine)
        resolved.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(resolved), "--output", str(second_out)]) == 0
        assert metrics_table(capsys.readouterr().out) == metrics_table(first)
        assert second_out.read_bytes() == first_out.read_bytes()

    def test_a_config_asking_for_task_retries_is_refused(self, capsys, tmp_path):
        resolved = tmp_path / "resolved.json"
        assert main([
            "run", "--synthetic", "abt-buy", "--entities", "30",
            "--output-config", str(resolved),
        ]) == 0
        spec = json.loads(resolved.read_text())
        spec["engine"]["fault_policy"] = "retries=2,backoff=0.1,backoff_max=5"
        resolved.write_text(json.dumps(spec))
        capsys.readouterr()
        assert main(["run", "--spec", str(resolved)]) == 2
        assert "task retries" in capsys.readouterr().err

    def test_bad_spec_is_a_clean_error(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"stages": [{"stage": "nope"}]}))
        assert main(["run", "--spec", str(spec_path),
                     "--synthetic", "abt-buy", "--entities", "30"]) == 2
        assert "unknown stage kind" in capsys.readouterr().err


class TestResumeCommand:
    def test_stop_after_then_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "ckpt"
        assert main([
            "run", "--synthetic", "abt-buy", "--entities", "40",
            "--checkpoint", str(checkpoint), "--stop-after", "meta_blocking",
        ]) == 0
        captured = capsys.readouterr().out
        assert "stopped after 'meta_blocking'" in captured
        output = tmp_path / "entities.json"
        assert main(["resume", "--checkpoint", str(checkpoint),
                     "--output", str(output)]) == 0
        captured = capsys.readouterr().out
        assert "resumed" in captured
        assert "summary:" in captured
        entities = json.loads(output.read_text())
        assert isinstance(entities, list) and entities

    @PARENT_ENGINES
    def test_a_parent_written_checkpoint_resumes_byte_identically(
        self, capsys, tmp_path, parent_engine
    ):
        uninterrupted, resumed = tmp_path / "uninterrupted.json", tmp_path / "resumed.json"
        assert main([
            "run", "--synthetic", "abt-buy", "--entities", "40",
            "--output", str(uninterrupted),
        ]) == 0
        first = capsys.readouterr().out
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        assert main([
            "run", "--synthetic", "abt-buy", "--entities", "40",
            "--checkpoint", str(checkpoint.directory), "--stop-after", "meta_blocking",
        ]) == 0
        state = checkpoint.load()
        state["spec"]["engine"].update(parent_engine)
        checkpoint.save(state)
        capsys.readouterr()
        assert main([
            "resume", "--checkpoint", str(checkpoint.directory), "--output", str(resumed),
        ]) == 0
        assert metrics_table(capsys.readouterr().out) == metrics_table(first)
        assert resumed.read_bytes() == uninterrupted.read_bytes()

    def test_resume_missing_checkpoint_is_a_clean_error(self, capsys, tmp_path):
        assert main(["resume", "--checkpoint", str(tmp_path / "nope")]) == 2
        assert "no checkpoint" in capsys.readouterr().err


class TestPartitionCommand:
    def test_partition_output(self, capsys):
        exit_code = main(
            ["partition", "--synthetic", "abt-buy", "--entities", "60", "--threshold", "0.2"]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "attribute partitioning" in captured
        assert "cluster entropies" in captured

    def test_blob_at_threshold_one(self, capsys):
        exit_code = main(
            ["partition", "--synthetic", "abt-buy", "--entities", "60", "--threshold", "1.0"]
        )
        assert exit_code == 0
        assert "blob" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.collection is None
        assert args.snapshot_dir is None

    def test_serve_collection_is_repeatable(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--collection", "a", "--collection", "b"]
        )
        assert args.port == 0
        assert args.collection == ["a", "b"]

    def test_ping_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ping"])
        args = build_parser().parse_args(["ping", "--port", "1234"])
        assert args.timeout == 5.0

    def test_ping_fails_fast_when_nothing_listens(self, capsys):
        # Port 1 is privileged and unbound: the probe must retry briefly,
        # then give up with exit code 1 and a diagnostic on stderr.
        exit_code = main(["ping", "--port", "1", "--timeout", "0.3"])
        assert exit_code == 1
        assert "not healthy" in capsys.readouterr().err

    def test_serve_and_ping_round_trip(self, tmp_path):
        """Full lifecycle: serve on an ephemeral port, ping, ingest, stop."""
        import json as _json
        import os
        import signal
        import subprocess
        import sys
        import urllib.request

        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        spec = tmp_path / "service.json"
        spec.write_text(_json.dumps({
            "defaults": {"weighting": "js"},
            "collections": [{"name": "preloaded", "pruning": "cnp"}],
        }))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--spec", str(spec), "--collection", "extra"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            port = None
            seen = []
            for _ in range(200):
                line = process.stdout.readline()
                seen.append(line)
                if line.startswith("serving on "):
                    port = int(line.strip().rsplit(":", 1)[1])
                    break
            assert port, "serve never announced its port"
            assert main(["ping", "--port", str(port), "--timeout", "10"]) == 0
            payload = _json.dumps(
                {"profiles": [{"attributes": {"name": "alpha bravo"}}]}
            ).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/collections/preloaded/profiles",
                data=payload, method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 201
        finally:
            process.send_signal(signal.SIGTERM)
            # Keep draining through the same text wrapper readline() used —
            # communicate() reads the raw fd and would drop its buffer.
            output = "".join(seen) + process.stdout.read()
            process.wait(timeout=30)
        assert process.returncode == 0
        assert "collection: extra" in output
        assert "collection: preloaded" in output
        assert "service stopped" in output


class TestServeDurabilityCli:
    def test_wal_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--wal-dir", "/tmp/w", "--wal-fsync", "off"]
        )
        assert args.wal_dir == "/tmp/w"
        assert args.wal_fsync == "off"
        defaults = build_parser().parse_args(["serve"])
        assert defaults.wal_dir is None
        assert defaults.wal_fsync is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--wal-fsync", "sometimes"])

    def test_spec_service_section_rejects_unknown_keys(self, tmp_path, capsys):
        import json as _json

        spec = tmp_path / "svc.json"
        spec.write_text(_json.dumps({"service": {"bogus_knob": 1}}))
        assert main(["serve", "--port", "0", "--spec", str(spec)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_ping_distinguishes_degraded_from_healthy(self, capsys):
        """A degraded (read-only) service pings with exit code 3, not 0."""
        import asyncio

        from repro.service import ServiceApp

        app = ServiceApp()
        outcome = {}

        async def scenario():
            await app.start()
            loop = asyncio.get_running_loop()
            try:
                outcome["healthy"] = await loop.run_in_executor(
                    None,
                    lambda: main(["ping", "--port", str(app.port), "--timeout", "5"]),
                )
                collection = app.store.get_or_create("demo")
                collection.degraded_reason = "WAL append failed: disk on fire"
                outcome["degraded"] = await loop.run_in_executor(
                    None,
                    lambda: main(["ping", "--port", str(app.port), "--timeout", "5"]),
                )
            finally:
                await app.stop()

        asyncio.run(scenario())
        assert outcome["healthy"] == 0
        assert outcome["degraded"] == 3
        captured = capsys.readouterr()
        assert "up but degraded" in captured.err
        assert "demo" in captured.err

    def test_serve_restart_replays_the_wal(self, tmp_path):
        """Kill -9 a WAL-backed server mid-life; the restart replays."""
        import json as _json
        import os
        import signal
        import subprocess
        import sys
        import urllib.request

        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        serve_args = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--wal-dir", str(tmp_path / "wal"),
            "--snapshot-dir", str(tmp_path / "snap"),
            "--wal-fsync", "batch",
        ]

        def start():
            process = subprocess.Popen(
                serve_args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
            )
            port = None
            lines = []
            for _ in range(200):
                line = process.stdout.readline()
                lines.append(line)
                if line.startswith("serving on "):
                    port = int(line.strip().rsplit(":", 1)[1])
                    break
            assert port, f"serve never announced its port: {lines}"
            return process, port, lines

        process, port, _ = start()
        try:
            payload = _json.dumps(
                {"profiles": [{"id": 0, "attributes": {"name": "alpha bravo"}}]}
            ).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/collections/demo/profiles",
                data=payload, method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 201
        finally:
            process.send_signal(signal.SIGKILL)  # no chance to snapshot
            process.wait(timeout=30)
            process.stdout.close()

        process, port, lines = start()
        try:
            assert any(
                "replayed 1 WAL record(s) into collection 'demo'" in line
                for line in lines
            ), lines
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/collections/demo/matches/0?budget=5",
                timeout=10,
            ) as response:
                assert response.status == 200
        finally:
            process.send_signal(signal.SIGTERM)
            for _ in range(400):
                if not process.stdout.readline():
                    break
            assert process.wait(timeout=30) == 0
            process.stdout.close()
