"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.datasets.registry import DatasetSpec
from repro.graph.io import save_edge_list
from repro.graph.temporal_graph import TemporalGraph


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_input_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--source", "a", "--target", "b",
                                       "--begin", "1", "--end", "2"])


class TestImportCost:
    def test_importing_the_cli_does_not_load_the_graphml_dependencies(self):
        # xml.sax.saxutils pulls in urllib.request, http.client and email;
        # only to_graphml needs it, so a serving process never should.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('xml.sax.saxutils' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestQueryCommand:
    def test_query_on_edge_list(self, tmp_path, capsys):
        graph = TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6), ("b", "c", 3), ("c", "t", 7)])
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        exit_code = main([
            "query", "--edge-list", str(path),
            "--source", "s", "--target", "t",
            "--begin", "2", "--end", "7", "--show-edges",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "4 edges" in captured
        assert "s -> b @ 2" in captured

    def test_query_on_builtin_dataset_with_integer_vertices(self, capsys):
        exit_code = main([
            "query", "--dataset", "D1",
            "--source", "0", "--target", "1",
            "--begin", "1", "--end", "40",
        ])
        assert exit_code == 0
        assert "tspG has" in capsys.readouterr().out

    def test_query_with_alternative_algorithm(self, tmp_path, capsys):
        graph = TemporalGraph(edges=[("s", "t", 3)])
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        exit_code = main([
            "query", "--edge-list", str(path),
            "--source", "s", "--target", "t",
            "--begin", "1", "--end", "5",
            "--algorithm", "EPdtTSG",
        ])
        assert exit_code == 0
        assert "EPdtTSG" in capsys.readouterr().out

    def test_reversed_interval_is_rejected_before_the_graph_loads(
        self, tmp_path, monkeypatch
    ):
        def no_load(key):
            raise AssertionError("the dataset loaded before the interval check")

        monkeypatch.setattr("repro.cli.get_dataset", no_load)
        with pytest.raises(SystemExit, match=r"--begin \(40\) must not be after --end \(1\)"):
            main([
                "query", "--dataset", "D1", "--source", "0", "--target", "1",
                "--begin", "40", "--end", "1",
            ])
        with pytest.raises(SystemExit, match="--begin"):
            main([
                "query", "--edge-list", str(tmp_path / "missing.txt"),
                "--source", "s", "--target", "t", "--begin", "40", "--end", "1",
            ])

    @pytest.mark.parametrize("target", ["0", "00"])
    def test_source_equal_to_target_is_rejected(self, target):
        with pytest.raises(SystemExit, match="must be different vertices"):
            main([
                "query", "--dataset", "D1", "--source", "0", "--target", target,
                "--begin", "1", "--end", "40",
            ])


class TestOtherCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "D1" in out and "D10" in out
        assert "email-Eu-core" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_theta_sweep(self, capsys):
        assert main([
            "experiment", "exp2", "--dataset", "D1", "--queries", "2",
            "--thetas", "4", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Exp-2" in out

    def test_experiment_multi_dataset(self, capsys):
        assert main([
            "experiment", "exp4", "--datasets", "D1", "--queries", "2",
        ]) == 0
        assert "Exp-4" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["exp2", "--queries", "0"], "--queries must be at least 1"),
        (["exp4", "--queries", "-3"], "--queries must be at least 1"),
        (["exp5-fig10", "--thetas", "1"], "--thetas values must be at least 2"),
        (["exp6", "--thetas", "6", "-4"], "--thetas values must be at least 2"),
        (["exp5-fig10", "--thetas"], "--thetas needs at least one value"),
        (["exp7", "--thetas"], "--thetas needs at least one value"),
        (["exp2", "--dataset", "D99"], "unknown dataset 'D99'"),
        (["exp9", "--dataset", "D99"], "unknown dataset 'D99'"),
        (["exp1", "--datasets", "D1", "D99"], "unknown dataset 'D99'"),
        (["exp13", "--workers", "0"], "--workers must be at least 1"),
    ])
    def test_experiment_rejects_bad_arguments_before_loading(
        self, monkeypatch, argv, message
    ):
        def no_load(self):
            raise AssertionError("a dataset loaded before the arguments were checked")

        monkeypatch.setattr(DatasetSpec, "load", no_load)
        with pytest.raises(SystemExit, match=message):
            main(["experiment", *argv])

    def test_case_study(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "Silver Ave" in out
        assert "30th St" in out


class TestWarmCommand:
    def test_warm_writes_a_loadable_snapshot(self, tmp_path, capsys):
        from repro.store import peek_snapshot

        graph = TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6), ("b", "c", 3)])
        edge_list = tmp_path / "graph.txt"
        save_edge_list(graph, edge_list)
        snapshot = tmp_path / "graph.tspgsnap"
        assert main([
            "warm", "--edge-list", str(edge_list), "--output", str(snapshot),
        ]) == 0
        out = capsys.readouterr().out
        assert "snapshot v5 written" in out
        info = peek_snapshot(snapshot)
        assert info.num_edges == 3

    def test_warm_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warm", "--output", "x.tspgsnap"])

    def test_warm_shards_writes_a_bootable_shard_set(self, tmp_path, capsys):
        from repro.store import ShardSnapshotSet

        graph = TemporalGraph(
            edges=[("s", "b", 2), ("b", "t", 6), ("b", "c", 3), ("c", "t", 7)]
        )
        edge_list = tmp_path / "graph.txt"
        save_edge_list(graph, edge_list)
        shard_dir = tmp_path / "shards"
        assert main([
            "warm", "--edge-list", str(edge_list),
            "--shards", "2", "--shard-overlap", "3",
            "--output", str(shard_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "shard set v1 written" in out
        assert "2 shards" in out
        manifest = ShardSnapshotSet(shard_dir).manifest()
        assert manifest.num_shards == 2
        assert manifest.overlap == 3

    def test_warm_validates_shard_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--shards"):
            main(["warm", "--dataset", "D1", "--shards", "0", "--output", "x"])
        with pytest.raises(SystemExit, match="--shard-overlap"):
            main(["warm", "--dataset", "D1", "--shards", "2",
                  "--shard-overlap", "-1", "--output", "x"])


class TestBatchCommand:
    def _edge_list(self, tmp_path):
        graph = TemporalGraph(
            edges=[("s", "b", 2), ("b", "t", 6), ("b", "c", 3), ("c", "t", 7),
                   ("s", "c", 4), ("c", "b", 5)]
        )
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        return path

    def test_batch_from_snapshot(self, tmp_path, capsys):
        edge_list = self._edge_list(tmp_path)
        snapshot = tmp_path / "g.tspgsnap"
        assert main(["warm", "--edge-list", str(edge_list),
                     "--output", str(snapshot)]) == 0
        capsys.readouterr()
        assert main([
            "batch", "--snapshot", str(snapshot),
            "--num-queries", "5", "--theta", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out
        assert "Batch of 5 queries" in out

    def test_batch_sharded(self, tmp_path, capsys):
        edge_list = self._edge_list(tmp_path)
        assert main([
            "batch", "--edge-list", str(edge_list),
            "--num-queries", "5", "--theta", "4",
            "--shards", "2", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "fallback" in out

    def test_batch_sharded_from_snapshot_end_to_end(self, tmp_path, capsys):
        edge_list = self._edge_list(tmp_path)
        snapshot = tmp_path / "g.tspgsnap"
        assert main(["warm", "--edge-list", str(edge_list),
                     "--output", str(snapshot)]) == 0
        capsys.readouterr()
        assert main([
            "batch", "--snapshot", str(snapshot),
            "--num-queries", "5", "--theta", "4",
            "--shards", "3", "--shard-overlap", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 shards" in out
        assert "5/5" in out

    def test_batch_from_shard_snapshots_with_process_executor(self, tmp_path, capsys):
        edge_list = self._edge_list(tmp_path)
        shard_dir = tmp_path / "shards"
        assert main(["warm", "--edge-list", str(edge_list),
                     "--shards", "2", "--shard-overlap", "3",
                     "--output", str(shard_dir)]) == 0
        capsys.readouterr()
        assert main([
            "batch", "--shard-snapshots", str(shard_dir),
            "--num-queries", "5", "--theta", "4", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "shard snapshots" in out
        assert "2 shards" in out
        assert "5/5" in out
        assert "| processes " in out
        assert "note:" not in out

    def test_batch_shard_snapshots_conflicts_with_shards_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(["batch", "--shard-snapshots", str(tmp_path),
                  "--shards", "2", "--num-queries", "2"])
        with pytest.raises(SystemExit, match="conflicts"):
            main(["batch", "--shard-snapshots", str(tmp_path),
                  "--shard-overlap", "6", "--num-queries", "2"])

    def test_batch_rejects_missing_shard_set(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot open shard manifest"):
            main(["batch", "--shard-snapshots", str(tmp_path / "nope"),
                  "--num-queries", "2"])

    def test_batch_rejects_corrupt_snapshot(self, tmp_path):
        bad = tmp_path / "bad.tspgsnap"
        bad.write_bytes(b"not a snapshot at all")
        with pytest.raises(SystemExit, match="not a tspG snapshot|truncated"):
            main(["batch", "--snapshot", str(bad), "--num-queries", "2"])

    @pytest.mark.parametrize("command", ["inspect", "batch"])
    def test_a_pre_v4_snapshot_exits_with_one_re_warm_line(
        self, tmp_path, command
    ):
        from repro.store import save_snapshot

        path = tmp_path / "old.tspgsnap"
        save_snapshot(TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6)]), path)
        raw = bytearray(path.read_bytes())
        raw[8:10] = (3).to_bytes(2, "big")  # the header's format version
        path.write_bytes(bytes(raw))
        argv = (
            ["inspect", str(path)] if command == "inspect"
            else ["batch", "--snapshot", str(path), "--num-queries", "2"]
        )
        with pytest.raises(SystemExit) as exited:
            main(argv)
        message = exited.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "version 3" in message and "re-warm" in message

    def test_batch_validates_shard_flags(self, tmp_path):
        edge_list = self._edge_list(tmp_path)
        with pytest.raises(SystemExit, match="--shards"):
            main(["batch", "--edge-list", str(edge_list), "--shards", "0"])
        with pytest.raises(SystemExit, match="--shard-overlap"):
            main(["batch", "--edge-list", str(edge_list),
                  "--shards", "2", "--shard-overlap", "-1"])

    def test_snapshot_and_dataset_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["batch", "--dataset", "D1", "--snapshot", "x.tspgsnap"]
            )

    def test_process_fallback_note_names_the_specific_reason(self, tmp_path, capsys):
        # No snapshot attached: the note must say so, not recite every
        # possible condition.
        edge_list = self._edge_list(tmp_path)
        assert main([
            "batch", "--edge-list", str(edge_list),
            "--num-queries", "4", "--theta", "4", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "no snapshot is attached" in out
        assert "max_workers=1" not in out

    def test_process_fallback_note_names_single_query_batch(self, tmp_path, capsys):
        # Regression: a <=1-query batch degrades to serial inside
        # run_batch, which process_fallback_reasons cannot see — the CLI
        # must name it rather than claim everything was cache-served.
        edge_list = self._edge_list(tmp_path)
        snapshot = tmp_path / "g.tspgsnap"
        assert main(["warm", "--edge-list", str(edge_list),
                     "--output", str(snapshot)]) == 0
        capsys.readouterr()
        assert main([
            "batch", "--snapshot", str(snapshot),
            "--num-queries", "1", "--theta", "4", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "a batch of one query runs serially" in out
        assert "result cache" not in out

    def test_workers_one_runs_serially_without_a_note(self, tmp_path, capsys):
        # --workers 1 asks for a serial run: no pool, nothing to explain.
        edge_list = self._edge_list(tmp_path)
        snapshot = tmp_path / "g.tspgsnap"
        assert main(["warm", "--edge-list", str(edge_list),
                     "--output", str(snapshot)]) == 0
        capsys.readouterr()
        assert main([
            "batch", "--snapshot", str(snapshot),
            "--num-queries", "4", "--theta", "4", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "| serial " in out
        assert "note:" not in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--num-queries", "0", "--num-queries must be at least 1"),
        ("--num-queries", "-3", "--num-queries must be at least 1"),
        ("--theta", "1", "--theta must be at least 2"),
        ("--theta", "-4", "--theta must be at least 2"),
        ("--repeat", "0", "--repeat must be at least 1"),
        ("--repeat", "-2", "--repeat must be at least 1"),
        ("--budget", "-1", "--budget must be a finite, non-negative number"),
        ("--budget", "nan", "--budget must be a finite, non-negative number"),
        ("--budget", "inf", "--budget must be a finite, non-negative number"),
    ])
    def test_bad_sizes_fail_before_the_graph_loads(
        self, tmp_path, flag, value, message
    ):
        # The edge list does not exist: a check that ran after the load
        # would fail there instead.
        with pytest.raises(SystemExit, match=message):
            main(["batch", "--edge-list", str(tmp_path / "missing.txt"),
                  flag, value])


class TestServeCommand:
    def _edge_list(self, tmp_path):
        graph = TemporalGraph(
            edges=[("s", "b", 2), ("b", "t", 6), ("b", "c", 3), ("c", "t", 7),
                   ("s", "c", 4), ("c", "b", 5)]
        )
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        return path

    def _run(self, tmp_path, requests, extra_args=(), capsys=None):
        script = tmp_path / "requests.jsonl"
        script.write_text("\n".join(requests) + "\n", encoding="utf-8")
        edge_list = self._edge_list(tmp_path)
        code = main([
            "serve", "--edge-list", str(edge_list),
            "--workers", "1", "--input", str(script), *extra_args,
        ])
        assert code == 0
        out = capsys.readouterr().out
        return [json.loads(line) for line in out.splitlines() if line.strip()]

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-line-bytes", "0", "--max-line-bytes must be at least 1"),
        ("--max-line-bytes", "-4", "--max-line-bytes must be at least 1"),
        ("--admission-margin-ms", "-1", "--admission-margin-ms must be a finite"),
        ("--admission-margin-ms", "nan", "--admission-margin-ms must be a finite"),
        ("--admission-margin-ms", "inf", "--admission-margin-ms must be a finite"),
        ("--budget", "-0.5", "--budget must be a finite"),
        ("--budget", "nan", "--budget must be a finite"),
    ])
    def test_bad_serve_bounds_fail_before_anything_boots(
        self, tmp_path, flag, value, message
    ):
        # The edge list does not exist: a check that ran after the boot
        # would fail there instead, and one that never ran would listen.
        with pytest.raises(SystemExit, match=message):
            main(["serve", "--edge-list", str(tmp_path / "missing.txt"),
                  "--listen", "127.0.0.1:0", flag, value])

    def test_query_batch_and_stats_round_trip(self, tmp_path, capsys):
        responses = self._run(tmp_path, [
            '{"source": "s", "target": "t", "begin": 2, "end": 7}',
            '{"queries": [["s", "t", 2, 7], ["b", "t", 3, 7]]}',
            '{"op": "stats"}',
        ], capsys=capsys)
        query, batch, stats = responses
        assert query["ok"] and query["op"] == "query"
        assert query["num_edges"] > 0 and query["timed_out"] is False
        assert batch["ok"] and batch["op"] == "batch"
        assert batch["queries"] == "2/2"
        assert stats["ok"] and stats["cache"]["misses"] >= 2
        assert "pool" not in stats  # --workers 1 attaches no pool

    def test_expired_deadline_reports_timed_out(self, tmp_path, capsys):
        # Mirrors test_server's refuse-before-work test: stdio shares the
        # TCP tier's admission semantics and stats schema.
        query, batch, malformed, stats = self._run(tmp_path, [
            '{"source": "s", "target": "t", "begin": 2, "end": 7, "deadline_ms": -1}',
            '{"op": "batch", "queries": [["s", "t", 2, 7]], "budget_ms": 0}',
            # Refused before its queries are validated, without ending the loop.
            '{"op": "batch", "queries": 7, "budget_ms": 0}',
            '{"op": "stats"}',
        ], capsys=capsys)
        assert query["ok"] is True
        assert query["refused"] is True
        assert query["timed_out"] is True
        assert query["num_edges"] == 0
        assert batch["ok"] is True and batch["refused"] is True
        assert batch["queries"] == 1 and batch["completed"] == 0
        assert batch["timed_out"] is True
        assert malformed["refused"] is True and malformed["queries"] == 0
        # Refuse-before-work: the service never saw these requests (no
        # cache traffic) and no query or batch op was admitted.
        server = stats["server"]
        assert server["refused_deadline"] == 3
        assert server["requests_admitted"] == 0
        assert server["responses_sent"] == 3
        assert server["latency_ms"] == {}
        assert stats["cache"]["misses"] == 0

    def test_malformed_requests_do_not_end_the_loop(self, tmp_path, capsys):
        first, *responses, last = self._run(tmp_path, [
            '{"op": "stats"}',
            "definitely not json",
            '{"op": "unknown-op"}',
            '{"source": "s", "target": "t"}',
            '{"queries": [], "op": "batch"}',
            '{"algorithm": "nope", "source": "s", "target": "t", "begin": 1, "end": 2}',
            # Malformed numbers: budgets must be finite numbers, begin/end
            # and ingest timestamps integral.
            '{"source": "s", "target": "t", "begin": 2, "end": 7, "deadline_ms": "abc"}',
            '{"source": "s", "target": "t", "begin": 2, "end": 7, "deadline_ms": [5]}',
            '{"source": "s", "target": "t", "begin": 2, "end": 7, "deadline_ms": NaN}',
            '{"queries": [["s", "t", 2, 7]], "budget_ms": "abc"}',
            '{"source": "s", "target": "t", "begin": 0, "end": 1e400}',
            '{"source": "s", "target": "t", "begin": 1.7, "end": 7}',
            '{"source": "s", "target": "t", "begin": true, "end": 7}',
            '{"op": "ingest", "edges": [["s", "t", 1e400]]}',
            '{"op": "ingest", "edges": [["s", "t", 8.5]]}',
            '{"op": "ingest", "edges": [["s", "t", 1180591620717411303424]]}',
            '{"op": []}',
            '{"op": {}, "deadline_ms": 5}',
            # Malformed vertex ids: only strings and integral numbers name
            # a vertex, in queries, batch entries and ingest rows alike.
            '{"source": 1.5, "target": "t", "begin": 2, "end": 7}',
            '{"source": true, "target": "t", "begin": 2, "end": 7}',
            '{"source": null, "target": "t", "begin": 2, "end": 7}',
            '{"source": [1], "target": "t", "begin": 2, "end": 7}',
            '{"source": "s", "target": {"a": 1}, "begin": 2, "end": 7}',
            '{"queries": [["s", null, 2, 7]]}',
            '{"op": "ingest", "edges": [[null, "t", 9]]}',
            '{"op": "ingest", "edges": [[1.5, "t", 9]]}',
            '{"op": "ingest", "edges": [["s", true, 9]]}',
            '{"op": "ingest", "edges": [[["a"], "t", 9]]}',
            '{"source": "s", "target": "t", "begin": 2, "end": 7}',
            '{"source": "s", "target": "t", "begin": 2.0, "end": 7, "deadline_ms": 5e3}',
            '{"op": "stats"}',
        ], capsys=capsys)
        assert [r["ok"] for r in responses] == [False] * 27 + [True] * 2
        assert "missing begin, end" in responses[2]["error"]
        assert "unknown algorithm" in responses[4]["error"]
        assert "deadline_ms must be a finite number" in responses[5]["error"]
        assert "end must be an integer" in responses[9]["error"]
        assert "timestamp must be an integer" in responses[12]["error"]
        assert "outside the int64 range" in responses[14]["error"]
        assert "unknown op" in responses[15]["error"]
        assert "unknown op" in responses[16]["error"]
        assert "source must be an integer" in responses[17]["error"]
        assert "source must be a string or an integer" in responses[18]["error"]
        assert "target must be a string or an integer" in responses[21]["error"]
        assert responses[-1]["num_edges"] == responses[-2]["num_edges"] > 0
        # No rejected ingest row reached the graph.
        assert first["ok"] and last["ok"]
        assert last["epoch"] == first["epoch"]

    def test_quit_ends_the_session_early(self, tmp_path, capsys):
        # quit is acknowledged (so shutdown is observable, symmetric with
        # every other op) and everything after it goes unanswered.
        responses = self._run(tmp_path, [
            '{"op": "quit"}',
            '{"source": "s", "target": "t", "begin": 2, "end": 7}',
        ], capsys=capsys)
        assert responses == [{"ok": True, "op": "quit"}]

    def test_blank_lines_and_comments_answer_nothing(self, tmp_path, capsys):
        # Keystroke artifacts of an interactive session are not requests:
        # no error response per blank line, and the loop keeps serving.
        responses = self._run(tmp_path, [
            "",
            "   ",
            "# a comment, not a request",
            '{"source": "s", "target": "t", "begin": 2, "end": 7}',
        ], capsys=capsys)
        assert len(responses) == 1
        assert responses[0]["ok"] is True and responses[0]["op"] == "query"

    def test_eof_and_quit_shutdown_paths_are_symmetric(self, tmp_path, capsys):
        # Same requests, one session ended by quit and one by EOF: both
        # answer every request, print the same served-count summary, and
        # differ only by the quit ack itself.
        edge_list = self._edge_list(tmp_path)
        outputs = {}
        for name, requests in (
            ("eof", ['{"source": "s", "target": "t", "begin": 2, "end": 7}']),
            ("quit", ['{"source": "s", "target": "t", "begin": 2, "end": 7}',
                      '{"op": "quit"}']),
        ):
            script = tmp_path / f"{name}.jsonl"
            script.write_text("\n".join(requests) + "\n", encoding="utf-8")
            assert main([
                "serve", "--edge-list", str(edge_list),
                "--workers", "1", "--input", str(script),
            ]) == 0
            captured = capsys.readouterr()
            outputs[name] = (
                [json.loads(line) for line in captured.out.splitlines() if line.strip()],
                captured.err,
            )
        eof_responses, eof_err = outputs["eof"]
        quit_responses, quit_err = outputs["quit"]

        def stable(response):
            return {k: v for k, v in response.items() if k != "elapsed_ms"}

        assert [stable(r) for r in quit_responses[:-1]] == [
            stable(r) for r in eof_responses
        ]
        assert quit_responses[-1] == {"ok": True, "op": "quit"}
        assert "served 1 requests" in eof_err
        assert "served 1 requests" in quit_err

    def test_serve_over_a_persistent_pool(self, tmp_path, capsys):
        edge_list = self._edge_list(tmp_path)
        snapshot = tmp_path / "g.tspgsnap"
        assert main(["warm", "--edge-list", str(edge_list),
                     "--output", str(snapshot)]) == 0
        capsys.readouterr()
        script = tmp_path / "requests.jsonl"
        script.write_text(
            '{"queries": [["s", "t", 2, 7], ["b", "t", 3, 7]]}\n'
            '{"queries": [["s", "t", 2, 7], ["b", "t", 3, 7]]}\n'
            '{"op": "stats"}\n',
            encoding="utf-8",
        )
        assert main([
            "serve", "--snapshot", str(snapshot), "--workers", "2",
            "--cache-size", "0", "--input", str(script),
        ]) == 0
        out = capsys.readouterr().out
        responses = [json.loads(line) for line in out.splitlines() if line.strip()]
        first, second, stats = responses
        assert first["executor"] == "processes"
        assert second["executor"] == "processes"
        # One worker set served both batches: the pool never re-forked.
        assert stats["pool"]["batches_served"] == 2
        assert stats["pool"]["generation"] == 1

    def test_both_transports_note_that_batches_will_run_serially(
        self, tmp_path, capsys, monkeypatch
    ):
        # An edge-list boot leaves pool workers no snapshot to boot from.
        from repro.service import TspgServer, TspgService

        async def return_at_once(server):
            return None

        monkeypatch.setattr(TspgServer, "serve_forever", return_at_once)
        edge_list = self._edge_list(tmp_path)
        script = tmp_path / "empty.jsonl"
        script.write_text("", encoding="utf-8")
        note = (
            "note: batches will run serially — "
            + TspgService._NO_SNAPSHOT_REASON
        )
        assert main(["serve", "--edge-list", str(edge_list),
                     "--listen", "127.0.0.1:0"]) == 0
        listen = capsys.readouterr().err.splitlines()
        # The banner stays the first line: that is where clients read the
        # bound port.
        assert listen[0].startswith("listening on 127.0.0.1:")
        assert listen[1] == note
        assert main(["serve", "--edge-list", str(edge_list),
                     "--input", str(script)]) == 0
        assert note in capsys.readouterr().err.splitlines()
        assert main(["serve", "--edge-list", str(edge_list), "--workers", "1",
                     "--listen", "127.0.0.1:0"]) == 0
        assert "note:" not in capsys.readouterr().err
