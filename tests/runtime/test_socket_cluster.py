"""The socket executor: worker agents forked here or named by ``hosts``.

Each ComputeHost runs in an agent behind one socket — forked on a
socketpair when no ``hosts`` are given, else an externally launched
``tibsp worker`` reached over TCP — speaking the same seq/incarnation
envelope protocol either way, so surgical recovery states the same repair
on both.
"""

import pytest

from repro.core import EngineConfig, Pattern, run_application
from repro.resilience import CheckpointConfig, FaultPlan, RecoveryPolicy
from repro.runtime import (
    Cluster,
    RunMeta,
    WorkerLost,
    parse_hosts,
    process_cluster,
)

from .test_process_cluster import EmitSum, case  # noqa: F401  (fixture reuse)


class TestParseHosts:
    def test_parses_comma_list(self):
        assert parse_hosts("127.0.0.1:9000, 10.0.0.2:9001") == [
            ("127.0.0.1", 9000),
            ("10.0.0.2", 9001),
        ]

    def test_accepts_sequence(self):
        assert parse_hosts(["h1:1", "h2:2"]) == [("h1", 1), ("h2", 2)]

    def test_accepts_its_own_pairs(self):
        pairs = parse_hosts("h1:1,[::1]:2")
        assert parse_hosts(pairs) == pairs == [("h1", 1), ("::1", 2)]
        with pytest.raises(ValueError, match="outside 0-65535"):
            parse_hosts([("h1", 70000)])

    def test_missing_port(self):
        with pytest.raises(ValueError, match="is not host:port"):
            parse_hosts("localhost")

    def test_non_integer_port(self):
        with pytest.raises(ValueError, match="non-integer port"):
            parse_hosts("localhost:http")

    @pytest.mark.parametrize("address", ["127.0.0.1:70000", "127.0.0.1:65536", "127.0.0.1:-1"])
    def test_port_out_of_range(self, address):
        with pytest.raises(ValueError, match="outside 0-65535"):
            parse_hosts(address)

    def test_port_range_ends_are_ports(self):
        assert parse_hosts("a:0,b:65535") == [("a", 0), ("b", 65535)]

    def test_bracketed_ipv6(self):
        assert parse_hosts("[::1]:9000,[fe80::2]:1") == [("::1", 9000), ("fe80::2", 1)]
        with pytest.raises(ValueError, match="is not host:port"):
            parse_hosts("[]:9000")

    def test_empty(self):
        with pytest.raises(ValueError, match="no worker addresses"):
            parse_hosts(" , ")


class TestAutoSpawn:
    """Without ``hosts`` the socket executor forks the process executor's
    agents; with them, shutdown and the address count are still the cluster's."""

    def test_end_to_end_matches_serial(self, case):
        tpl, coll, pg, _sources = case
        serial = run_application(EmitSum(), pg, coll)
        sock = run_application(
            EmitSum(), pg, coll,
            config=EngineConfig(executor="socket"),
        )
        assert serial.outputs == sock.outputs
        assert set(sock.states) == set(serial.states)

    def test_shutdown_idempotent(self, case, external_workers):
        tpl, coll, pg, sources = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        cluster = Cluster(pg, EmitSum(), meta, sources, hosts=external_workers[:2])
        assert [c.proc for c in cluster._channels] == [None, None]  # nothing of ours to reap
        cluster.shutdown()
        cluster.shutdown()  # second call is a no-op
        assert cluster._channels == []

    def test_hosts_count_must_match_partitions(self, case):
        tpl, coll, pg, sources = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        with pytest.raises(ValueError, match="2 partitions"):
            Cluster(pg, EmitSum(), meta, sources, hosts="127.0.0.1:9000")

    def test_surgical_recovery_over_sockets(self, case, tmp_path):
        """kill + drop_frame cured on forked agents, bit-identical to fault-free."""
        tpl, coll, pg, sources = case
        baseline = run_application(EmitSum(), pg, coll, config=EngineConfig(executor="socket"))
        result = run_application(
            EmitSum(), pg, coll,
            config=EngineConfig(
                executor="socket",
                gather_timeout_s=0.5,
                checkpoint=CheckpointConfig(dir=tmp_path / "ck", every=1),
                faults=FaultPlan.parse("kill@t1:s0:p1,drop_frame@t2:p0"),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        assert result.failure is None
        assert result.outputs == baseline.outputs
        assert result.states == baseline.states
        respawns = [
            a for a in result.recovery_actions if a.kind == "worker_respawn"
        ]
        assert [(a.partition, a.incarnation) for a in respawns] == [(1, 1)]
        assert result.protocol_stats["resends"] >= 1


class TestExternalWorkers:
    def test_run_against_external_workers(self, case, external_workers):
        tpl, coll, pg, _sources = case
        serial = run_application(EmitSum(), pg, coll)
        sock = run_application(
            EmitSum(), pg, coll,
            config=EngineConfig(executor="socket", hosts=external_workers[:2]),
        )
        assert serial.outputs == sock.outputs

    def test_kill_respawns_into_same_address(self, case, external_workers, tmp_path):
        """A kill severs one session; the agent accepts the respawn, and the
        repair is the one a forked agent's kill states."""
        tpl, coll, pg, sources = case
        forked, agents = (
            run_application(
                EmitSum(), pg, coll,
                config=EngineConfig(
                    executor="socket",
                    hosts=hosts,
                    gather_timeout_s=0.5,
                    checkpoint=CheckpointConfig(dir=tmp_path / name, every=1),
                    faults=FaultPlan.parse("kill@t1:s0:p1"),
                    recovery=RecoveryPolicy(backoff_s=0.0),
                ),
            )
            for name, hosts in (("forked", None), ("agents", external_workers[:2]))
        )
        assert agents.failure is None and agents.outputs == forked.outputs
        stated = [
            [(a.kind, a.partition, a.incarnation, a.timestep) for a in r.recovery_actions]
            for r in (forked, agents)
        ]
        assert stated[0] == stated[1] == [("worker_respawn", 1, 1, 1)]

    def test_unreachable_host_fails_fast(self, case, monkeypatch):
        tpl, coll, pg, sources = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        monkeypatch.setattr(process_cluster, "_CONNECT_TIMEOUT_S", 0.3)
        # Port 1 on localhost: nothing listens, connect is refused instantly.
        with pytest.raises(WorkerLost, match="unreachable"):
            Cluster(pg, EmitSum(), meta, sources, hosts="127.0.0.1:1,127.0.0.1:1")
