"""Smoke tests for the tibsp CLI (tiny scales)."""

import json

import numpy as np
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

    def test_a_run_builds_only_the_dataset_it_reads(self, tmp_path, monkeypatch):
        """TDSP on CARN generates the road template and its latencies only:
        no WIKI template, no tweet collection; and it finds what it found when
        it built all four configurations (labels and counts pinned from then)."""
        import repro.core.engine
        import repro.generators.datasets as datasets
        from repro.algorithms import tdsp_labels_from_result

        calls, results = [], []
        for name in ("smallworld_network", "tweet_collection"):
            monkeypatch.setattr(datasets, name, lambda *a, name=name, **k: calls.append(name))
        run_application = repro.core.engine.run_application
        monkeypatch.setattr(repro.core.engine, "run_application",
                            lambda *a, **k: results.append(run_application(*a, **k)) or results[-1])
        export = tmp_path / "run.json"
        assert main(["run", "tdsp", "--graph", "CARN", "--scale", "600", "--instances", "6",
                     "--partitions", "2", "--export", str(export)]) == 0
        assert calls == []
        metrics = json.loads(export.read_text())["metrics"]
        assert [metrics[k] for k in ("timesteps", "supersteps", "messages", "remote_messages")] \
            == [6, 15, 10, 4]
        labels = tdsp_labels_from_result(results[0], 600)
        reached = np.isfinite(labels)
        assert reached.sum() == 525
        assert labels[reached].sum() == pytest.approx(8276.076418138451, rel=1e-12)

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
            (["--scale", "600", "--instances", "6", "--seed", "9"], "seed=0 but the run has --seed 9"),
            (["--scale", "900", "--instances", "6"], "scale=600 but the run has --scale 900"),
            (["--scale", "600", "--instances", "12"], "instances=6 but the run has --instances 12"),
            (["--scale", "600", "--instances", "6", "--partitions", "2"],
             "partitions=3 but the run has --partitions 2"),
            (["--scale", "600", "--instances", "6", "--graph", "WIKI"],
             "graph='CARN' but the run has --graph WIKI"),
        ],
        ids=["seed", "scale", "instances", "partitions", "graph"],
    )
    def test_a_store_written_for_another_dataset_is_refused_before_anything_runs(
        self, other, field, tmp_path, capsys
    ):
        """At 1d595cb the first ran to a wrong answer (exit 0, the new
        partitioning's rows read as defaults) and the next two died with an
        ``IndexError`` from a kernel / at the store's last timestep.  The
        store records the flags that wrote it, so the flag is named."""
        root = str(tmp_path / "store")
        same = ["--scale", "600", "--instances", "6"]
        assert main(["store", root, *same, "--partitions", "3"]) == 0
        run = ["run", "tdsp", "--partitions", "3", "--gofs", root]
        assert main(run + ["--graph", "CARN"] + same) == 0
        capsys.readouterr()
        assert main(run + (other if "--graph" in other else ["--graph", "CARN", *other])) == 2
        captured = capsys.readouterr()
        assert f"was written for {field}" in captured.err and "error:" in captured.err
        assert "timesteps" not in captured.out  # no run summary: nothing ran

    @pytest.mark.parametrize(
        "workload, algorithm, stored, read",
        [("road", "meme", "road", "tweets"), ("tweets", "tdsp", "tweets", "road"),
         ("road", "reach", "road", "evolving")],
        ids=["meme-over-road", "tdsp-over-tweets", "reach-over-road"],
    )
    def test_a_run_of_another_collection_is_refused_naming_it(
        self, workload, algorithm, stored, read, tmp_path, capsys
    ):
        """At 9cb3237 MEME over a road store exited 0 with 12 supersteps and
        15 messages against 18 and 25 in memory: the tweets read as their
        default."""
        root = str(tmp_path / "store")
        same = ["--scale", "600", "--instances", "6", "--partitions", "3", "--graph", "CARN"]
        assert main(["store", root, "--workload", workload, *same]) == 0
        capsys.readouterr()
        assert main(["run", algorithm, *same, "--gofs", root]) == 2
        captured = capsys.readouterr()
        assert (
            f"error: GoFS store {root} holds the {stored} collection, but {algorithm} "
            f"reads the {read} collection"
        ) in captured.err
        assert "timesteps" not in captured.out

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_a_run_over_an_existing_store_generates_and_partitions_nothing(
        self, executor, tmp_path, capsys, monkeypatch
    ):
        """The run that writes the store and every run after it open the
        same store; only the first generates or partitions anything."""
        import repro.core.engine
        import repro.generators
        from repro.algorithms import tdsp_labels_from_result
        from repro.partition.metis_like import MetisLikePartitioner

        results, calls = [], []
        run_application = repro.core.engine.run_application

        def recorded(*args, **kwargs):
            results.append(run_application(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(repro.core.engine, "run_application", recorded)
        root, export = str(tmp_path / "store"), tmp_path / "run.json"
        argv = ["run", "tdsp", "--scale", "600", "--instances", "6", "--partitions", "3",
                "--executor", executor, "--gofs", root, "--export", str(export)]
        assert main(argv) == 0
        written = json.loads(export.read_text())["metrics"]
        for name in ("paper_dataset", "paper_datasets", "road_network", "smallworld_network",
                     "road_latency_collection"):
            monkeypatch.setattr(repro.generators, name, lambda *a, name=name, **k: calls.append(name))
        monkeypatch.setattr(
            MetisLikePartitioner, "assign", lambda *a, **k: calls.append("assign")
        )
        capsys.readouterr()
        assert main(argv) == 0
        assert calls == [] and "wrote GoFS store" not in capsys.readouterr().out
        reopened = json.loads(export.read_text())["metrics"]
        counts = ("timesteps", "supersteps", "messages", "remote_messages", "frames", "bytes_sent")
        assert [reopened[k] for k in counts] == [written[k] for k in counts]
        first, second = (tdsp_labels_from_result(r, 600) for r in results)
        np.testing.assert_array_equal(first, second)

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

    def test_help_lists_each_subcommand_on_its_own_line(self, capsys):
        """The description keeps its table: argparse must not reflow it."""
        with pytest.raises(SystemExit):
            main(["--help"])
        lines = capsys.readouterr().out.splitlines()
        for name in ("datasets", "edgecuts", "run", "worker", "top", "fig5b", "store"):
            assert any(line.split()[:2] == ["tibsp", name] for line in lines), name


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

    @pytest.mark.parametrize("command", ["run"])
    @pytest.mark.parametrize(
        "flag, message",
        [
            pytest.param(["--executor", "thread"], "invalid choice: 'thread'", id="thread"),
            pytest.param(["--rebalance"], "unrecognized arguments: --rebalance", id="rebalance"),
            pytest.param(["--dataset-cache", "d"], "unrecognized arguments: --dataset-cache",
                         id="dataset-cache"),
            pytest.param(["--inject-faults", "kill@t1:p0", "--fault-seed", "7"],
                         "unrecognized arguments: --fault-seed", id="fault-seed"),
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

    def test_gather_timeout_bounds_a_serial_run(self, tmp_path):
        """The timeout means one thing on every executor: a dropped reply
        on serial is cured by one resend, as on process."""
        log = tmp_path / "log.json"
        assert main(self.BASE + ["--gather-timeout", "5", "--inject-faults",
                                 "drop_frame@t1:p0", "--export", str(log)]) == 0
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
        store = tmp_path / "store"
        argv = self.BASE[:-1] + [partitions, "--executor", "socket", "--hosts", hosts]
        assert main(argv + ["--gofs", str(store)]) == 2
        err = capsys.readouterr().err
        assert "error: --hosts" in err and message in err
        assert not store.exists()

    def test_degrade_and_quarantine_are_refused_together(self, capsys):
        assert main(self.BASE + ["--inject-faults", "kill@t1:p0", "--degrade", "--quarantine"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--degrade and --quarantine" in err

    @pytest.mark.parametrize(
        "flag", [["--prefetch"], ["--cache-bytes", "4096"]], ids=["prefetch", "cache-bytes"]
    )
    def test_view_flags_are_gone(self, flag, tmp_path, capsys):
        """A GoFS view takes no tuning flag, with a store or without."""
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--gofs", str(tmp_path / "store")] + flag)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

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
        argv = self.BASE + ["--executor", "process", "--export", str(log)]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "RUN FAILED: WorkerLost" in out
        payload = json.loads(log.read_text())
        assert [(f["partition"], f["action"]) for f in payload["failure_log"]] == [
            (1, "retry"), (1, "retry"), (1, "raise")
        ]
        # Each record appears once: in ``failure_log``, and once on stdout.
        assert set(payload["failure"]) == {"reason", "timestep"}
        assert log.read_text().count('"action"') == 3
        assert sum("'action':" in line for line in out.splitlines()) == 3
        assert [a["kind"] for a in payload["recovery_actions"]] == ["worker_respawn"] * 2

    def test_failure_log_carries_recovery_provenance(self, tmp_path, capsys):
        """``--export`` carries the failure provenance."""
        log = tmp_path / "failures.json"
        assert main(self.BASE + [
            "--inject-faults", "kill@t1:p0",
            "--checkpoint-every", "1", "--checkpoint-dir", str(tmp_path / "ck"),
            "--export", str(log),
        ]) == 0
        captured = capsys.readouterr()
        assert "error:" not in captured.err
        assert "recovered from" in captured.out
        assert "recovery provenance: 1 surgical respawn(s)" in captured.out
        payload = json.loads(log.read_text())
        assert payload["failure"] is None
        assert payload["failure_log"] == [{
            "kind": "failure", "timestep": 1, "superstep": 0, "partition": 0, "attempt": 1,
            "error": "WorkerLost",
            "message": "partition 0 worker died mid-round "
            "(EOFError('partition 0 agent closed its session'))",
            "action": "retry",
        }]
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
    """A run is recorded by ``run --stream DIR``; the ``trace`` subcommand,
    which ran an application a second way to write its artifacts, is gone."""

    RUN = ["run", "tdsp", "--scale", "300", "--instances", "4", "--partitions", "3"]

    def test_the_trace_subcommand_and_the_failure_log_flag_are_gone(self, tmp_path, capsys):
        for argv in (
            ["trace", "tdsp", "--scale", "300", "--instances", "4"],
            self.RUN + ["--failure-log", str(tmp_path / "log.json")],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'trace'" in err
        assert "unrecognized arguments: --failure-log" in err
        assert not (tmp_path / "log.json").exists()

    def test_trace_writes_three_artifacts(self, tmp_path, capsys):
        """Beside the event log it streamed, a recorded run writes the
        Perfetto trace, its manifest and its critical-path report."""
        from repro.observability import chrome_trace, read_event_log, validate_chrome_trace

        out = tmp_path / "rec"
        assert main(self.RUN + ["--stream", str(out)]) == 0
        text = capsys.readouterr().out
        assert f"recorded run in {out}" in text
        assert sorted(f.name for f in out.iterdir()) == [
            "critical_path.json", "events.jsonl", "manifest.json", "trace.json"
        ]
        trace = json.loads((out / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        events = read_event_log(out / "events.jsonl")
        assert events and all("kind" in e and "ts_us" in e for e in events)
        assert chrome_trace(events, {"manifest": "manifest.json"}) == trace
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["algorithm"] == "tdsp" and manifest["partitions"] == 3
        assert manifest["schema_version"] == 1
        assert "barrier_s" in manifest and "counters" in manifest
        assert "created_utc" in manifest and "metrics" in manifest
        assert manifest["failure"] is None and manifest["failure_log"] == []
        assert manifest["recovery_actions"] == [] and manifest["degraded_partitions"] == []

    def test_trace_serial_executor(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main([
            "run", "meme", "--scale", "300", "--instances", "4",
            "--partitions", "2", "--graph", "WIKI",
            "--executor", "serial", "--stream", str(out),
        ]) == 0
        assert (out / "trace.json").exists()

    @pytest.mark.parametrize("executor", [None, "process", "serial", "socket"])
    def test_trace_traces_the_executors_people_run(self, tmp_path, capsys, executor):
        """Valid trace, a track per partition plus the driver, and a streamed
        log that folds to the manifest's summary — on every executor
        (``serial`` when none is named)."""
        from repro.observability import chrome_trace, read_event_log
        from repro.runtime.metrics import MetricsCollector

        out = tmp_path / "t"
        assert main(
            self.RUN + ["--stream", str(out), *(["--executor", executor] if executor else [])]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["executor"] == (executor or "serial")
        trace = json.loads((out / "trace.json").read_text())
        assert {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"} == {0, 1, 2, 3}
        log = read_event_log(out / "events.jsonl")
        assert chrome_trace(log, {"manifest": "manifest.json"}) == trace
        folded = MetricsCollector.from_events(log, 3, barrier_s=manifest["barrier_s"])
        assert folded.summary() == manifest["metrics"]

    def test_an_invalid_trace_fails_the_run(self, tmp_path, capsys, monkeypatch):
        import repro.observability

        # ``tibsp run --stream`` loads the validator where it records the run.
        monkeypatch.setattr(
            repro.observability, "validate_chrome_trace", lambda trace: ["bad event"]
        )
        assert main(self.RUN + ["--stream", str(tmp_path / "t")]) == 1
        assert "TRACE INVALID: bad event" in capsys.readouterr().out

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

        from repro.observability import chrome_trace, read_event_log
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
        # spans ride in the log, stamped with their end, and it stays sorted
        assert any(e["kind"] == "span" for e in log)
        assert [e["ts_us"] for e in log] == sorted(e["ts_us"] for e in log)
        trace = json.loads((out / "trace.json").read_text())
        assert chrome_trace(log, {"manifest": "manifest.json"}) == trace
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
        out = tmp_path / "t"
        assert main([
            "run", "tdsp", "--scale", "300", "--instances", "4",
            "--partitions", "3", "--stream", str(out),
        ]) == 0
        assert "critical path over" in capsys.readouterr().out
        payload = json.loads((out / "critical_path.json").read_text())
        assert payload["timesteps"] and payload["partitions"]
        assert set(payload["totals"]) >= {"compute", "barrier", "load"}


class TestRecordedFailures:
    """A failure is stated once, as a record in the run's stream: folding a
    recorded run's ``events.jsonl`` gives the failure and repair records that
    its ``--export`` JSON and its manifest carry, record for record."""

    BASE = ["run", "tdsp", "--scale", "300", "--instances", "6", "--partitions", "3"]

    def _recorded(self, tmp_path, argv, code=0):
        from repro.observability import chrome_trace, read_event_log
        from repro.runtime.metrics import MetricsCollector

        out, export = tmp_path / "rec", tmp_path / "run.json"
        assert main(self.BASE + argv + ["--stream", str(out), "--export", str(export)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        log = read_event_log(out / "events.jsonl")
        trace = json.loads((out / "trace.json").read_text())
        assert chrome_trace(log, {"manifest": "manifest.json"}) == trace
        folded = MetricsCollector.from_events(log, 3, barrier_s=manifest["barrier_s"])
        payload = json.loads(export.read_text())
        records = {"failure_log": folded.failures, "recovery_actions": folded.repairs}
        for key, folded_records in records.items():
            lines = [{"kind": r.kind, **r.as_event()} for r in folded_records]
            assert lines == payload[key] == manifest[key], key
        assert payload["failure"] == manifest["failure"]
        assert payload["degraded_partitions"] == manifest["degraded_partitions"]
        return folded, payload

    @pytest.mark.parametrize(
        "faults",
        [["--inject-faults", "kill@t3:p1", "--checkpoint-every", "2"],
         ["--inject-faults", "drop_frame@t1:p0", "--gather-timeout", "2"]],
        ids=["kill", "drop_frame"],
    )
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_streamed_failures_fold_to_the_exported_records(self, tmp_path, executor, faults):
        argv = ["--executor", executor, "--checkpoint-dir", str(tmp_path / "ck"), *faults]
        folded, payload = self._recorded(tmp_path, argv)
        repair = "worker_respawn" if "kill@t3:p1" in faults else "protocol_retry"
        assert [(f.timestep, f.action) for f in folded.failures] == [
            (3 if repair == "worker_respawn" else 1, "retry")
        ]
        assert [a.kind for a in folded.repairs] == [repair]
        assert payload["failure"] is None

    def test_a_failed_run_leaves_its_failures_in_the_log_and_the_export(self, tmp_path, capsys):
        kills = "kill@t1:p1,kill@t1:p1:i1,kill@t1:p1:i2"
        folded, payload = self._recorded(tmp_path, ["--inject-faults", kills], code=2)
        assert "RUN FAILED: WorkerLost" in capsys.readouterr().out
        assert [f.action for f in folded.failures] == ["retry", "retry", "raise"]
        assert set(payload["failure"]) == {"reason", "timestep"}

    def test_a_quarantined_run_leaves_its_failures_in_the_log_and_the_export(self, tmp_path):
        kills = "kill@t1:p1,kill@t1:p1:i1,kill@t1:p1:i2"
        folded, payload = self._recorded(
            tmp_path, ["--inject-faults", kills, "--max-retries", "2", "--quarantine"]
        )
        assert [f.action for f in folded.failures] == ["retry", "retry", "quarantine"]
        assert payload["failure"] is None and payload["degraded_partitions"] == [1]
