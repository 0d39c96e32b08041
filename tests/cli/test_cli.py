"""Smoke tests for the tibsp CLI (tiny scales)."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "500"]) == 0
        out = capsys.readouterr().out
        assert "CARN" in out and "WIKI" in out

    def test_edgecuts(self, capsys):
        assert main(["edgecuts", "--scale", "400"]) == 0
        out = capsys.readouterr().out
        assert "edge_cut_%" in out

    def test_run_tdsp(self, capsys):
        assert main([
            "run", "tdsp", "--scale", "400", "--instances", "5",
            "--partitions", "3", "--graph", "CARN",
        ]) == 0
        out = capsys.readouterr().out
        assert "time per timestep" in out
        assert "Per-partition utilization" in out

    def test_run_meme_with_gc(self, capsys):
        assert main([
            "run", "meme", "--scale", "400", "--instances", "5",
            "--partitions", "3", "--graph", "WIKI", "--gc",
        ]) == 0

    def test_run_hash(self, capsys):
        assert main([
            "run", "hash", "--scale", "300", "--instances", "4", "--partitions", "3",
        ]) == 0

    def test_fig5b(self, capsys):
        assert main(["fig5b", "--scale", "300", "--instances", "4", "--partitions", "3"]) == 0
        out = capsys.readouterr().out
        assert "Giraph" in out

    def test_store(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main([
            "store", str(root), "--scale", "300", "--instances", "4", "--partitions", "3",
        ]) == 0
        assert (root / "manifest.json").exists()

    @pytest.mark.parametrize(
        "other,field",
        [
            (["--scale", "600", "--instances", "6", "--seed", "9"], "num_edges"),
            (["--scale", "900", "--instances", "6"], "num_vertices"),
            (["--scale", "600", "--instances", "12"], "num_timesteps"),
            (["--scale", "600", "--instances", "6", "--partitions", "2"], "num_partitions"),
        ],
        ids=["seed", "scale", "instances", "partitions"],
    )
    def test_a_store_written_for_another_dataset_is_refused_before_anything_runs(
        self, other, field, tmp_path, capsys
    ):
        """At 1d595cb the first ran to a wrong answer (exit 0, the new
        partitioning's rows read as defaults) and the next two died with an
        ``IndexError`` from a kernel / at the store's last timestep."""
        root = str(tmp_path / "store")
        same = ["--scale", "600", "--instances", "6"]
        assert main(["store", root, *same, "--partitions", "3"]) == 0
        run = ["run", "tdsp", "--graph", "CARN", "--partitions", "3", "--gofs", root]
        assert main(run + same) == 0
        capsys.readouterr()
        assert main(run + other) == 2
        captured = capsys.readouterr()
        assert f"was written for {field}=" in captured.err and "error:" in captured.err
        assert "timesteps" not in captured.out  # no run summary: nothing ran

    @pytest.mark.parametrize("missing", ["template.gsl", "rows_p001_b0000.gsl"])
    def test_a_store_missing_a_file_is_refused_naming_it(self, missing, tmp_path, capsys):
        """At 5ab4dba a store without its template ended in a numpy
        ``FileNotFoundError`` traceback (exit 1) instead of ``error:`` / 2."""
        root = tmp_path / "store"
        same = ["--scale", "600", "--instances", "6", "--partitions", "3"]
        assert main(["store", str(root), *same]) == 0
        (root / missing).unlink()
        capsys.readouterr()
        assert main(["run", "tdsp", "--graph", "CARN", *same, "--gofs", str(root)]) == 2
        captured = capsys.readouterr()
        assert f"error: {root / missing} cannot be read" in captured.err
        assert "timesteps" not in captured.out  # nothing ran

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestNewSubcommands:
    def test_run_reach(self, capsys):
        assert main([
            "run", "reach", "--scale", "400", "--instances", "5", "--partitions", "3",
        ]) == 0
        assert "reach on CARN" in capsys.readouterr().out

    def test_run_evolve(self, capsys):
        assert main([
            "run", "evolve", "--scale", "400", "--instances", "4",
            "--partitions", "3", "--graph", "WIKI",
        ]) == 0
        assert "communities per timestep" in capsys.readouterr().out

    def test_run_stats(self, capsys):
        assert main([
            "run", "stats", "--scale", "300", "--instances", "4", "--partitions", "3",
        ]) == 0
        assert "mean latency" in capsys.readouterr().out

    def test_run_with_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "summary.json"
        assert main([
            "run", "tdsp", "--scale", "400", "--instances", "5",
            "--partitions", "3", "--export", str(out),
        ]) == 0
        assert f"run summary written to {out}" in capsys.readouterr().out
        summary = json.loads(out.read_text())
        assert summary["metrics"]["timesteps"] == len(summary["timestep_series_s"]) == 5

    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize(
        "flag, message",
        [
            pytest.param(["--executor", "thread"], "invalid choice: 'thread'", id="thread"),
            pytest.param(["--rebalance"], "unrecognized arguments: --rebalance", id="rebalance"),
        ],
    )
    def test_deleted_options_are_argparse_errors(self, command, flag, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "tdsp", "--scale", "300", "--instances", "4", *flag])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_run_socket_executor(self, capsys, external_workers):
        """The deployment shape: --hosts names two running agents."""
        assert main([
            "run", "tdsp", "--scale", "300", "--instances", "4",
            "--partitions", "2", "--executor", "socket",
            "--hosts", ",".join(external_workers[:2]),
        ]) == 0


class TestWorkerSubcommand:
    def test_worker_serves_one_session(self, capsys):
        """``tibsp worker`` binds, announces, and serves a run."""
        import re
        import threading

        from repro.core import EngineConfig, run_application
        from repro.generators import road_latency_collection, road_network
        from repro.partition import partition_graph
        from repro.runtime import serve_worker

        # One worker via the CLI entrypoint path, one via the library, so
        # the test covers both the argparse wiring and a 2-partition run.
        addrs: list[str] = []
        # Daemon threads, as the session's agents: the accept loops end with
        # the test process.
        t1 = threading.Thread(
            target=main, args=(["worker", "--listen", "127.0.0.1:0"],), daemon=True
        )
        t1.start()
        deadline_announce = threading.Event()

        def announce(bound):
            addrs.append(f"{bound[0]}:{bound[1]}")
            deadline_announce.set()

        t2 = threading.Thread(
            target=serve_worker, args=(("127.0.0.1", 0),),
            kwargs={"announce": announce}, daemon=True,
        )
        t2.start()
        assert deadline_announce.wait(10)
        # The CLI worker prints its bound address to stdout; poll for it.
        import time as _time

        cli_addr = None
        for _ in range(100):
            m = re.search(
                r"tibsp worker listening on (\S+)", capsys.readouterr().out
            )
            if m:
                cli_addr = m.group(1)
                break
            _time.sleep(0.05)
        assert cli_addr, "worker CLI never announced its address"

        from repro.algorithms.tdsp import TDSPComputation
        tpl = road_network(300, seed=4)
        coll = road_latency_collection(tpl, 4, seed=4)
        pg = partition_graph(tpl, 2)
        result = run_application(
            TDSPComputation(0), pg, coll,
            config=EngineConfig(executor="socket", hosts=(cli_addr, addrs[0])),
        )
        assert result.failure is None


class TestResilienceFlags:
    """Resilience knobs that cannot act must fail loudly, not silently no-op."""

    BASE = ["run", "tdsp", "--scale", "300", "--instances", "4", "--partitions", "2"]

    def test_fault_seed_without_inject_faults_errors(self, capsys):
        assert main(self.BASE + ["--fault-seed", "7"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--inject-faults" in err

    def test_gather_timeout_bounds_a_serial_run(self, tmp_path):
        """The timeout means one thing on every executor: a dropped reply
        on serial is cured by one resend, as on process."""
        log = tmp_path / "log.json"
        assert main(self.BASE + ["--gather-timeout", "5", "--inject-faults",
                                 "drop_frame@t1:p0", "--failure-log", str(log)]) == 0
        payload = json.loads(log.read_text())
        assert [a["kind"] for a in payload["recovery_actions"]] == ["protocol_retry"]
        assert payload["protocol_stats"]["resends"] == 1

    def test_hosts_without_socket_executor_errors(self, capsys):
        assert main(self.BASE + ["--hosts", "127.0.0.1:9000,127.0.0.1:9001"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--executor socket" in err

    @pytest.mark.parametrize(
        "hosts, partitions, message",
        [
            ("127.0.0.1:1,", "2", "1 agent(s) for --partitions 2"),
            ("localhost", "2", "is not host:port"),
            ("127.0.0.1:1,127.0.0.1:2", "3", "2 agent(s) for --partitions 3"),
        ],
        ids=["trailing-comma", "no-port", "count"],
    )
    def test_hosts_checked_before_the_dataset_is_built(
        self, hosts, partitions, message, tmp_path, capsys
    ):
        cache = tmp_path / "dataset-cache"
        argv = self.BASE[:-1] + [partitions, "--executor", "socket", "--hosts", hosts]
        assert main(argv + ["--dataset-cache", str(cache)]) == 2
        err = capsys.readouterr().err
        assert "error: --hosts" in err and message in err
        assert not cache.exists() or not list(cache.iterdir())

    def test_degrade_and_quarantine_are_refused_together(self, capsys):
        assert main(self.BASE + ["--inject-faults", "kill@t1:p0", "--degrade", "--quarantine"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--degrade and --quarantine" in err

    @pytest.mark.parametrize("flag", [["--prefetch"], ["--cache-bytes", "4096"]])
    def test_view_flags_without_gofs_error_before_the_dataset_is_built(
        self, flag, tmp_path, capsys
    ):
        cache = tmp_path / "dataset-cache"
        assert main(self.BASE + flag + ["--dataset-cache", str(cache)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--gofs DIR" in err
        # Refused in the flag check: nothing was generated or partitioned.
        assert not cache.exists() or not list(cache.iterdir())

    def test_recovery_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--inject-faults", "kill@t1:p0", "--recovery-mode", "surgical"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --recovery-mode" in capsys.readouterr().err

    def test_recovery_flags_without_fault_source_warn(self, capsys):
        # Not fatal — but the user is told the policy can never act.
        assert main(self.BASE + ["--max-retries", "3"]) == 0
        assert "WARNING" in capsys.readouterr().err

    def test_a_plain_run_whose_agent_keeps_dying_fails_once(self, tmp_path, capsys, monkeypatch):
        """No resilience flag: the default policy respawns the agent twice,
        then the run fails as one structured failure, not a traceback."""
        import os

        from repro.algorithms import TDSPComputation

        compute = TDSPComputation.compute

        def dies_off_the_driver(self, ctx):
            if ctx.subgraph.partition_id == 1:
                os._exit(1)  # a forked agent: every incarnation inherits this
            return compute(self, ctx)

        monkeypatch.setattr(TDSPComputation, "compute", dies_off_the_driver)
        log = tmp_path / "failures.json"
        argv = self.BASE + ["--executor", "process", "--failure-log", str(log)]
        assert main(argv) == 2
        assert "RUN FAILED: WorkerLost" in capsys.readouterr().out
        payload = json.loads(log.read_text())
        assert [(f["partition"], f["action"]) for f in payload["failure_log"]] == [
            (1, "retry"), (1, "retry"), (1, "raise")
        ]
        assert [a["kind"] for a in payload["recovery_actions"]] == ["worker_respawn"] * 2

    def test_fault_seed_with_inject_faults_accepted(self, tmp_path, capsys):
        assert main(self.BASE + [
            "--inject-faults", "kill@t1:p0", "--fault-seed", "7",
            "--checkpoint-every", "1", "--checkpoint-dir", str(tmp_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "error:" not in captured.err
        assert "recovered from" in captured.out
        assert "recovery provenance: 1 surgical respawn(s)" in captured.out

    def test_failure_log_carries_recovery_provenance(self, tmp_path, capsys):
        import json

        log = tmp_path / "failures.json"
        assert main(self.BASE + [
            "--inject-faults", "kill@t1:p0",
            "--checkpoint-every", "1", "--checkpoint-dir", str(tmp_path / "ck"),
            "--failure-log", str(log),
        ]) == 0
        payload = json.loads(log.read_text())
        assert payload["failure"] is None
        assert payload["failure_log"] and payload["failure_log"][0]["action"] == "retry"
        assert payload["degraded_partitions"] == []
        kinds = [a["kind"] for a in payload["recovery_actions"]]
        assert kinds == ["worker_respawn"]
        assert payload["recovery_actions"][0]["incarnation"] == 1
        assert isinstance(payload["protocol_stats"], dict)

    def test_quarantine_run_reports_degraded(self, tmp_path, capsys):
        faults = "kill@t1:p0,kill@t1:p0:i1,kill@t1:p0:i2,kill@t1:p0:i3"
        assert main(self.BASE + [
            "--inject-faults", faults, "--max-retries", "2", "--quarantine",
            "--checkpoint-every", "1", "--checkpoint-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "QUARANTINED PARTITIONS: [0]" in out


class TestTraceSubcommand:
    def test_trace_writes_three_artifacts(self, tmp_path, capsys):
        import json

        from repro.observability import read_event_log, validate_chrome_trace

        out = tmp_path / "trace-out"
        assert main([
            "trace", "tdsp", "--scale", "300", "--instances", "4",
            "--partitions", "3", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "trace valid" in text
        trace = json.loads((out / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        events = read_event_log(out / "events.jsonl")
        assert events and all("kind" in e and "ts_us" in e for e in events)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["algorithm"] == "tdsp"
        assert manifest["schema_version"] == 1
        assert "barrier_s" in manifest and "counters" in manifest
        assert "created_utc" in manifest and "metrics" in manifest

    def test_trace_serial_executor(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main([
            "trace", "meme", "--scale", "300", "--instances", "4",
            "--partitions", "2", "--graph", "WIKI",
            "--executor", "serial", "--out", str(out),
        ]) == 0
        assert (out / "trace.json").exists()

    @pytest.mark.parametrize("executor", [None, "process", "serial", "socket"])
    def test_trace_traces_the_executors_people_run(self, tmp_path, capsys, executor):
        """Valid trace, a track per partition plus the driver, and a streamed
        log that folds to the manifest's summary — on ``run``'s executors
        (``process`` when none is named)."""
        import json

        from repro.observability import read_event_log
        from repro.runtime.metrics import MetricsCollector

        out = tmp_path / "t"
        assert main([
            "trace", "tdsp", "--scale", "300", "--instances", "4", "--partitions", "3",
            "--out", str(out), "--stream",
            *(["--executor", executor] if executor else []),
        ]) == 0
        assert "trace valid" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["executor"] == (executor or "process")
        spans = json.loads((out / "trace.json").read_text())["traceEvents"]
        assert {e["pid"] for e in spans if e["ph"] == "X"} == {0, 1, 2, 3}
        folded = MetricsCollector.from_events(
            read_event_log(out / "events.jsonl"), 3, barrier_s=manifest["barrier_s"]
        )
        assert folded.summary() == manifest["metrics"]

    def test_export_carries_provenance(self, tmp_path, capsys):
        import json

        out = tmp_path / "summary.json"
        assert main([
            "run", "tdsp", "--scale", "300", "--instances", "4",
            "--partitions", "3", "--export", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        prov = payload["provenance"]
        assert prov["schema_version"] == 1
        assert prov["algorithm"] == "tdsp" and prov["graph"] == "CARN"
        assert prov["executor"] == "serial"
        assert prov["scale"] == 300 and prov["seed"] == 0
        assert "created_utc" in prov and "git_describe" in prov


class TestLiveCLI:
    @pytest.mark.parametrize("flag", ["--live-metrics", "--live-export", "--live-interval"])
    def test_live_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "tdsp", "--scale", "300", "--instances", "4", flag, "x"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_with_stream(self, tmp_path, capsys):
        import json

        from repro.observability import read_event_log
        from repro.runtime.metrics import MetricsCollector

        out, summary = tmp_path / "watch", tmp_path / "run.json"
        assert main([
            "run", "tdsp", "--scale", "400", "--instances", "5",
            "--partitions", "3", "--executor", "process",
            "--stream", str(out), "--export", str(summary),
        ]) == 0
        assert f"watch with 'tibsp top {out}'" in capsys.readouterr().out
        log = read_event_log(out / "events.jsonl")
        assert log[0]["kind"] == "run_begin" and log[-1]["kind"] == "run_end"
        folded = MetricsCollector.from_events(log, 3, barrier_s=log[0]["barrier_s"])
        assert folded.summary() == json.loads(summary.read_text())["metrics"]

    def test_top_once(self, tmp_path, capsys):
        out = tmp_path / "watch"
        assert main([
            "run", "tdsp", "--scale", "400", "--instances", "5",
            "--partitions", "3", "--stream", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["top", str(out), "--once", "--stall-after", "1"]) == 0
        text = capsys.readouterr().out
        assert "tibsp top" in text and "progress" in text and "run ended after" in text

    def test_top_once_empty(self, tmp_path, capsys):
        assert main(["top", str(tmp_path), "--once"]) == 1

    def test_trace_stream_and_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "t"
        report = tmp_path / "cp.json"
        assert main([
            "trace", "tdsp", "--scale", "300", "--instances", "4",
            "--partitions", "3", "--out", str(out),
            "--stream", "--report", str(report),
        ]) == 0
        text = capsys.readouterr().out
        assert "critical path over" in text
        assert "trace valid" in text
        payload = json.loads(report.read_text())
        assert payload["timesteps"] and payload["partitions"]
        assert set(payload["totals"]) >= {"compute", "barrier", "load"}
