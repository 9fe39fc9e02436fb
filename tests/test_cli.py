"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["concurrent"])
        assert args.mapper == "data-centric"
        assert args.scale == "small"
        assert args.stencil == 0
        assert not args.time

    def test_bad_mapper(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["concurrent", "--mapper", "magic"])


class TestCommands:
    def test_concurrent(self, capsys):
        assert main(["concurrent", "--mapper", "round-robin"]) == 0
        out = capsys.readouterr().out
        assert "CAP1" in out and "coupling" in out

    def test_sequential_with_time(self, capsys):
        assert main(["sequential", "--time"]) == 0
        out = capsys.readouterr().out
        assert "retrieval ms" in out

    def test_compare(self, capsys):
        assert main(["compare", "--scenario", "concurrent"]) == 0
        out = capsys.readouterr().out
        assert "round-robin" in out and "data-centric" in out
        assert "reduction" in out

    @pytest.mark.slow
    def test_compare_with_dist(self, capsys):
        assert main(["compare", "--scenario", "sequential",
                     "--dist", "cyclic"]) == 0
        assert "cyclic" in capsys.readouterr().out

    def test_stencil_flag(self, capsys):
        assert main(["concurrent", "--stencil", "1"]) == 0
        out = capsys.readouterr().out
        assert "intra_app" in out

    def test_dag_command(self, tmp_path, capsys):
        path = tmp_path / "wf.dag"
        path.write_text(
            "APP_ID 1\nAPP_ID 2\nPARENT_APPID 1 CHILD_APPID 2\n"
            "DECOMP 1 size=8,8 layout=2,2\nDECOMP 2 size=8,8 layout=4,1\n"
        )
        assert main(["dag", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid workflow: 2 apps" in out
        assert "BUNDLE" in out

    def test_dag_invalid_file(self, tmp_path):
        path = tmp_path / "bad.dag"
        path.write_text("NOT_A_KEYWORD 1\n")
        from repro.errors import DagParseError
        with pytest.raises(DagParseError):
            main(["dag", str(path)])


class TestObservability:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        tpath = tmp_path / "t.json"
        mpath = tmp_path / "m.json"
        assert main(["concurrent", "--trace-out", str(tpath),
                     "--metrics-out", str(mpath)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {tpath}" in out
        assert f"metrics written to {mpath}" in out

        trace = json.loads(tpath.read_text())
        assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
        assert {"name", "ph", "ts"} <= set(trace["traceEvents"][0])
        metrics = json.loads(mpath.read_text())
        assert "transfer.bytes{app=2,kind=coupling,transport=shm}" in \
            metrics["counters"]

    def test_metrics_out_alone(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        assert main(["sequential", "--metrics-out", str(mpath)]) == 0
        assert mpath.exists()
        assert "trace written" not in capsys.readouterr().out

    def test_trace_report_subcommand(self, tmp_path, capsys):
        tpath = tmp_path / "t.json"
        mpath = tmp_path / "m.json"
        main(["sequential", "--trace-out", str(tpath),
              "--metrics-out", str(mpath)])
        capsys.readouterr()

        assert main(["trace-report", str(tpath),
                     "--metrics", str(mpath), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "per-phase timeline" in out
        assert "top 5 spans by inclusive simulated time" in out
        assert "DHT hop distribution" in out
        assert "schedule-cache hit rate" in out
        assert "transfer breakdown by transport" in out

    def test_compare_writes_data_centric_trace(self, tmp_path, capsys):
        tpath = tmp_path / "t.json"
        assert main(["compare", "--scenario", "concurrent",
                     "--trace-out", str(tpath)]) == 0
        assert tpath.exists()
        assert f"trace written to {tpath}" in capsys.readouterr().out


class TestGrayFlags:
    """Audit of the gray-failure CLI surface: every flag documented in
    --help, every invalid value rejected at parse time, and a seeded
    end-to-end run completing with the gray summary printed."""

    GRAY_FLAGS = (
        "--slow-node", "--corruption", "--duplication",
        "--hedge-factor", "--speculation-threshold", "--scrub-period",
    )

    def help_text(self, command="sequential"):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return buf.getvalue()

    def test_every_gray_flag_documented(self):
        for command in ("sequential", "concurrent", "compare"):
            text = self.help_text(command)
            for flag in self.GRAY_FLAGS:
                assert flag in text, f"{flag} missing from {command} --help"

    @pytest.mark.parametrize("argv", [
        ["sequential", "--hedge-factor", "-1.0"],
        ["sequential", "--hedge-factor", "1.0"],  # must exceed 1x budget
        ["sequential", "--speculation-threshold", "0.5"],
        ["sequential", "--speculation-threshold", "-2"],
        ["sequential", "--corruption", "1.0"],  # probability must be < 1
        ["sequential", "--corruption", "-0.1"],
        ["sequential", "--duplication", "2.0"],
        ["sequential", "--scrub-period", "0"],
        ["sequential", "--scrub-period", "-0.5"],
        ["sequential", "--slow-node", "nonsense"],
        ["sequential", "--slow-node", "1:0"],  # missing duration
        ["sequential", "--slow-node", "1:0:5:0.5"],  # factor must be > 1
    ])
    def test_invalid_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "usage" in capsys.readouterr().err

    def test_gray_run_end_to_end(self, capsys):
        assert main([
            "sequential",
            "--slow-node", "0:0:10:4",
            "--corruption", "0.02",
            "--duplication", "0.05",
            "--hedge-factor", "2.0",
            "--speculation-threshold", "1.5",
            "--scrub-period", "0.5",
            "--replication", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "gray failures:" in out
        assert "unrecoverable" not in out  # zero corrupted gets leaked

    def test_gray_flags_deterministic(self, capsys):
        argv = [
            "sequential", "--slow-node", "0:0:10:4",
            "--corruption", "0.02", "--hedge-factor", "2.0",
            "--replication", "2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestPartitionFlags:
    """Audit of the partition CLI surface: every flag documented in
    --help, invalid values rejected at parse time, quorum/replication
    cross-checks enforced, and a seeded end-to-end run completing with
    the partition summary printed."""

    PARTITION_FLAGS = (
        "--partition", "--write-quorum", "--read-quorum",
        "--partition-deadline",
    )

    E2E_ARGV = [
        "sequential", "--compute-seconds", "0.2",
        "--partition", "0,1,2,3/4,5,6,7@0.05:0.4",
        "--replication", "2",
        "--write-quorum", "2", "--read-quorum", "1",
        "--partition-deadline", "5.0",
    ]

    def help_text(self, command="sequential"):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return buf.getvalue()

    def test_every_partition_flag_documented(self):
        for command in ("sequential", "concurrent", "compare"):
            text = self.help_text(command)
            for flag in self.PARTITION_FLAGS:
                assert flag in text, f"{flag} missing from {command} --help"

    @pytest.mark.parametrize("argv", [
        ["sequential", "--partition", "nonsense"],
        ["sequential", "--partition", "0,1/2,3"],  # no @window
        ["sequential", "--partition", "0,1/2,3@1.5"],  # missing duration
        ["sequential", "--partition", "0,1/2,3@x:y"],
        ["sequential", "--partition", "0,1/1,2@0:1"],  # overlapping groups
        ["sequential", "--partition", "0,1/2,3@-1:2"],
        ["sequential", "--partition", "0,1/2,3@0:0"],  # zero duration
        ["sequential", "--partition", "0,1/2,3@0:1:0"],  # zero flap
        ["sequential", "--write-quorum", "0"],
        ["sequential", "--write-quorum", "lots"],
        ["sequential", "--read-quorum", "-1"],
        ["sequential", "--partition-deadline", "0"],
        ["sequential", "--partition-deadline", "-2.5"],
    ])
    def test_invalid_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sequential", "--write-quorum", "2"],  # default replication is 1
        ["sequential", "--replication", "2", "--write-quorum", "3"],
        ["sequential", "--replication", "2", "--read-quorum", "3"],
    ])
    def test_quorum_cannot_outnumber_copies(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "quorum" in capsys.readouterr().err

    def test_partition_run_end_to_end(self, capsys):
        assert main(self.E2E_ARGV) == 0
        out = capsys.readouterr().out
        assert "network partitions:" in out
        assert "quorum:" in out
        assert "heal:" in out

    def test_partition_summary_absent_on_clean_runs(self, capsys):
        assert main(["sequential"]) == 0
        out = capsys.readouterr().out
        assert "network partitions:" not in out

    def test_partition_flags_deterministic(self, capsys):
        assert main(self.E2E_ARGV) == 0
        first = capsys.readouterr().out
        assert main(self.E2E_ARGV) == 0
        assert capsys.readouterr().out == first


class TestMemoryFlags:
    """Audit of the memory-pressure CLI surface: every flag documented in
    --help, invalid values rejected at parse time, memory knobs refused
    without --enforce-memory, and a seeded end-to-end run completing with
    the memory summary printed."""

    MEMORY_FLAGS = (
        "--enforce-memory", "--memory-per-node", "--high-watermark",
        "--spill-capacity", "--memory-pressure",
    )

    E2E_ARGV = [
        "sequential", "--compute-seconds", "0.05",
        "--enforce-memory", "--replication", "2",
        "--memory-per-node", str(12 * 512 * 1024),
        "--memory-pressure", "0@0.0:0.3:0.5",
        "--memory-pressure", "1@0.2:0.3",
    ]

    def help_text(self, command="sequential"):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return buf.getvalue()

    def test_every_memory_flag_documented(self):
        for command in ("sequential", "concurrent", "compare"):
            text = self.help_text(command)
            for flag in self.MEMORY_FLAGS:
                assert flag in text, f"{flag} missing from {command} --help"

    @pytest.mark.parametrize("argv", [
        ["sequential", "--memory-pressure", "nonsense"],
        ["sequential", "--memory-pressure", "0"],  # no @window
        ["sequential", "--memory-pressure", "0@1.5"],  # missing duration
        ["sequential", "--memory-pressure", "0@x:y"],
        ["sequential", "--memory-pressure", "0@0:1:2:3"],  # extra field
        ["sequential", "--memory-pressure", "-1@0:1"],  # bad node
        ["sequential", "--memory-pressure", "0@-1:1"],
        ["sequential", "--memory-pressure", "0@0:0"],  # zero duration
        ["sequential", "--memory-pressure", "0@0:1:0"],  # zero factor
        ["sequential", "--memory-pressure", "0@0:1:1.5"],  # factor > 1
        ["sequential", "--memory-per-node", "0"],
        ["sequential", "--memory-per-node", "-4096"],
        ["sequential", "--memory-per-node", "lots"],
        ["sequential", "--high-watermark", "0"],
        ["sequential", "--high-watermark", "1.5"],
        ["sequential", "--high-watermark", "-0.1"],
        ["sequential", "--spill-capacity", "-1"],
    ])
    def test_invalid_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sequential", "--memory-per-node", "4096"],
        ["sequential", "--high-watermark", "0.5"],
        ["sequential", "--spill-capacity", "4096"],
        ["sequential", "--memory-pressure", "0@0:1"],
    ])
    def test_memory_knobs_need_enforce_memory(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--enforce-memory" in capsys.readouterr().err

    def test_memory_run_end_to_end(self, capsys):
        assert main(self.E2E_ARGV) == 0
        out = capsys.readouterr().out
        assert "memory pressure:" in out
        assert "reclaim ladder:" in out
        assert "spill tier:" in out

    def test_memory_summary_absent_on_clean_runs(self, capsys):
        assert main(["sequential"]) == 0
        out = capsys.readouterr().out
        assert "memory pressure:" not in out

    def test_memory_flags_deterministic(self, capsys):
        assert main(self.E2E_ARGV) == 0
        first = capsys.readouterr().out
        assert main(self.E2E_ARGV) == 0
        assert capsys.readouterr().out == first


class TestTimelineFlags:
    """Audit of the telemetry CLI surface: every flag documented in
    --help, invalid values rejected at parse time, and the timeline
    subcommand's exit codes."""

    TIMELINE_FLAGS = (
        "--trace-stream", "--timeline-out", "--sample-period", "--progress",
    )

    def help_text(self, command="sequential"):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return buf.getvalue()

    def test_every_timeline_flag_documented(self):
        for command in ("sequential", "concurrent", "compare"):
            text = self.help_text(command)
            for flag in self.TIMELINE_FLAGS:
                assert flag in text, f"{flag} missing from {command} --help"

    def test_timeline_subcommand_documented(self):
        text = self.help_text("timeline")
        assert "--width" in text

    @pytest.mark.parametrize("argv", [
        ["sequential", "--sample-period", "0"],
        ["sequential", "--sample-period", "-0.5"],
        ["sequential", "--sample-period", "forever"],
        ["sequential", "--timeline-out", "/nonexistent-dir/tl.jsonl"],
        ["sequential", "--timeline-out", "/tmp"],  # a directory
        ["timeline"],  # path is required
    ])
    def test_invalid_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "usage" in capsys.readouterr().err

    def test_trace_stream_requires_trace_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sequential", "--trace-stream"])
        assert exc.value.code == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_streamed_run_and_timeline_render(self, tmp_path, capsys):
        tpath = tmp_path / "t.json"
        tlpath = tmp_path / "tl.jsonl"
        assert main([
            "concurrent", "--time",
            "--trace-out", str(tpath), "--trace-stream",
            "--timeline-out", str(tlpath), "--sample-period", "0.002",
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {tpath}" in out
        assert f"timeline written to {tlpath}" in out

        from repro.obs.timeline import read_timeline
        header, records = read_timeline(str(tlpath))
        assert header["sample_period"] == 0.002
        assert any(r["kind"] == "sample" for r in records)

        assert main(["timeline", str(tlpath)]) == 0
        render = capsys.readouterr().out
        assert "per-node-group busy fraction" in render
        assert "queue depth" in render

    def test_timeline_subcommand_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["timeline", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_timeline_subcommand_malformed_file_exits_1(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "sample", "t": 0.0}\n')
        assert main(["timeline", str(bad)]) == 1
        assert "header" in capsys.readouterr().err

    def test_progress_reports_on_stderr(self, capsys):
        assert main(["concurrent", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "ev/s" in err


class TestProvenanceFlags:
    """Audit of the provenance CLI surface: flags documented in --help,
    invalid paths rejected at parse time, a ledgered end-to-end run
    printing the provenance summary and ledger-written message, and the
    explain subcommand answering queries over the emitted file."""

    PROVENANCE_FLAGS = ("--provenance-out", "--runs-db")

    def help_text(self, command="sequential"):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return buf.getvalue()

    def test_flags_documented_everywhere(self):
        for command in ("sequential", "concurrent", "compare"):
            text = self.help_text(command)
            for flag in self.PROVENANCE_FLAGS:
                assert flag in text, f"{flag} missing from {command} --help"

    def test_explain_and_runs_listed_as_subcommands(self):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = buf.getvalue()
        assert "explain" in text
        assert "runs" in text

    @pytest.mark.parametrize("flag", ["--provenance-out", "--runs-db"])
    def test_unwritable_path_rejected_at_parse_time(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sequential", flag, "/no/such/dir/out.bin"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_ledgered_run_end_to_end(self, tmp_path, capsys):
        lpath = tmp_path / "ledger.jsonl"
        assert main(["sequential", "--provenance-out", str(lpath)]) == 0
        out = capsys.readouterr().out
        assert "provenance:" in out
        assert "workflow.submit" in out
        assert f"provenance ledger written to {lpath}" in out

        from repro.obs.provenance import read_ledger
        header, records = read_ledger(str(lpath))
        assert header["scenario"] == "seq"
        assert any(r["kind"] == "bundle.complete" for r in records)

        assert main(["explain", "slowest", "--ledger", str(lpath)]) == 0
        assert "dominant stall" in capsys.readouterr().out
        assert main(["explain", "bundle", "0", "--ledger", str(lpath)]) == 0
        assert "why bundle 0 completed" in capsys.readouterr().out

    def test_compare_ledgers_only_data_centric_run(self, tmp_path, capsys):
        lpath = tmp_path / "ledger.jsonl"
        assert main(["compare", "--scenario", "sequential",
                     "--provenance-out", str(lpath)]) == 0
        assert f"provenance ledger written to {lpath}" in \
            capsys.readouterr().out
        from repro.obs.provenance import read_ledger
        header, records = read_ledger(str(lpath))
        # One run's worth of records — the round-robin leg is untracked.
        assert sum(1 for r in records if r["kind"] == "workflow.submit") == 1

    def test_ledger_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            assert main(["sequential", "--provenance-out", str(p)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_explain_missing_target_exits_2(self, tmp_path, capsys):
        lpath = tmp_path / "ledger.jsonl"
        main(["sequential", "--provenance-out", str(lpath)])
        capsys.readouterr()
        assert main(["explain", "bundle", "--ledger", str(lpath)]) == 2
        assert "needs a bundle id" in capsys.readouterr().err
        assert main(["explain", "object", "--ledger", str(lpath)]) == 2
        assert "needs an object name" in capsys.readouterr().err

    def test_explain_missing_ledger_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["explain", "slowest", "--ledger", missing]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_hash_covers_the_plan_not_artifact_paths(self, tmp_path,
                                                            capsys):
        from repro.analysis.runs import RunRegistry

        db = str(tmp_path / "runs.db")
        base = ["sequential", "--replication", "2", "--compute-seconds",
                "0.5", "--runs-db", db]
        runs = [
            ["--partition", "0,1/2,3@0.1:0.3"],
            ["--partition", "0/1,2,3@0.2:0.9"],
            ["--partition", "0/1,2,3@0.2:0.9",
             "--metrics-out", str(tmp_path / "m.json")],
        ]
        for extra in runs:
            assert main(base + extra) == 0
        capsys.readouterr()
        with RunRegistry(db) as registry:
            hashes = [r["config_hash"] for r in registry.list_runs()]
        # Different cuts are different runs; where the metrics land is not.
        assert hashes[0] != hashes[1]
        assert hashes[1] == hashes[2]


class TestPerfNoBaseline:
    def test_missing_snapshot_dir_reports_no_baseline(self, tmp_path,
                                                      capsys):
        # Regression: a --dir that does not exist used to crash with
        # FileNotFoundError from os.listdir before any output.
        missing = str(tmp_path / "never-made")
        assert main(["perf", "--dir", missing,
                     "--scenario", "fig09_sequential"]) == 0
        out = capsys.readouterr().out
        assert "no baseline" in out
        assert "BENCH_1.json" in out
