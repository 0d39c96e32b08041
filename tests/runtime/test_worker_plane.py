"""The worker plane states each fact once: one op table, one fault
coordinate, one host spec, one socket transport — on every executor
(``socket`` on the session's ``tibsp worker`` agents).
"""

import socket
import time

import numpy as np
import pytest

from repro.core import Pattern
from repro.resilience import AT_EOT, FaultPlan, FaultSpec
from repro.resilience.recovery import RecoverableError
from repro.runtime import Cluster, RunMeta, WorkerLost, process_cluster
from repro.runtime.host import HOST_OPS, HostSpec
from repro.runtime.process_cluster import (
    _CORRUPT_WIRE_BYTES,
    _recv_oob,
    _send_oob,
    _SocketConn,
    parse_hosts,
)

from ..conftest import hosts_for
from .test_process_cluster import EmitSum, case  # noqa: F401  (fixture reuse)


class EmitSumMerged(EmitSum):
    """Module-level (picklable): ``EmitSum`` with a merge phase to call."""

    def merge(self, ctx):
        ctx.vote_to_halt()


def _meta(coll):
    return RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)


def _cluster(executor, case, agents, **kwargs):  # noqa: F811
    _tpl, coll, pg, sources = case
    hosts = hosts_for(executor, agents, pg.num_partitions)
    return Cluster(pg, EmitSumMerged(), _meta(coll), sources,
                   remote=executor != "serial", hosts=hosts, **kwargs)


EXECUTORS = ("serial", "process", "socket")


@pytest.mark.parametrize("executor", EXECUTORS)
class TestOneOpTable:
    def test_unknown_op_is_a_driver_side_value_error(
        self, executor, case, external_workers  # noqa: F811
    ):
        with _cluster(executor, case, external_workers) as cluster:
            cluster.run_round("superstep", 0, 0, [[], []])
            sent = cluster.protocol_stats().get("commands_sent")
            with pytest.raises(ValueError, match="unknown protocol op 'bogus'"):
                cluster.run_round("bogus", 0, 0, None)
            with pytest.raises(ValueError, match="unknown protocol op 'bogus'"):
                cluster.step_one(0, "bogus", 0, 0, None)
            # Nothing left the driver, and the hosts still answer.
            assert cluster.protocol_stats().get("commands_sent") == sent
            assert len(cluster.run_round("resident", -1, -1, None)) == 2

    def test_every_op_of_the_table_runs(self, executor, case, external_workers):  # noqa: F811
        """Seven ops, ``restore`` among them, through the one ``run_round``."""
        with _cluster(executor, case, external_workers) as cluster:
            answered = {"superstep": cluster.run_round("superstep", 0, 0, [[], []])}
            answered["eot"] = cluster.run_round("eot", 0, AT_EOT, None)
            blobs = answered["snapshot"] = cluster.run_round("snapshot", 1, 0, None)
            answered["restore"] = cluster.run_round("restore", -1, -1, blobs)
            assert answered["restore"] == [None, None]
            cluster.restore_one(1, blobs[1])
            answered["merge"] = cluster.run_round("merge", -1, 0, [[], []])
            for op in ("resident", "states"):
                answered[op] = cluster.run_round(op, -1, -1, None)
            assert set(answered) == set(HOST_OPS) and len(HOST_OPS) == 7
            for op, outcomes in answered.items():
                assert not any(isinstance(o, RecoverableError) for o in outcomes), op
            assert answered["states"][0] == blobs[0]["states"]
            with pytest.raises(ValueError, match="one payload per partition"):
                cluster.run_round("restore", -1, -1, blobs[:1])

    def test_a_fault_fires_at_the_coordinate_the_driver_issued(
        self, executor, case, external_workers  # noqa: F811
    ):
        """Not at one re-derived from the op's name: an ``eot`` issued at a
        plain superstep number does not trip an ``AT_EOT`` fault."""
        plan = FaultPlan([FaultSpec("kill", 0, 1, AT_EOT)])
        with _cluster(executor, case, external_workers, fault_plan=plan) as cluster:
            fired = {}
            for op, s, payloads in (
                ("superstep", 0, [[], []]),
                ("eot", 3, None),
                ("eot", AT_EOT, None),
            ):
                outcomes = cluster.run_round(op, 0, s, payloads)
                fired[op, s] = [
                    p for p, o in enumerate(outcomes) if isinstance(o, RecoverableError)
                ]
            assert fired == {
                ("superstep", 0): [],
                ("eot", 3): [],
                ("eot", AT_EOT): [1],
            }


def _open(address):
    (pair,) = parse_hosts(address)
    return _SocketConn(socket.create_connection(pair, timeout=10))


def _init(conn, case, incarnation=0):  # noqa: F811
    _tpl, coll, pg, sources = case
    sg_part = np.asarray([sg.partition_id for sg in pg.subgraphs], dtype=np.int64)
    spec = HostSpec(EmitSum(), _meta(coll))
    _send_oob(conn, ("init", (spec, pg.partitions[0], sources[0], sg_part, None, incarnation)))
    return _recv_oob(conn, deadline=time.monotonic() + 10, what="ready")


class TestAgentOutlivesABadSession:
    """A long-lived ``tibsp worker`` ends the session, never itself."""

    @pytest.mark.parametrize("bad", ["corrupt-frame", "two-tuple"])
    def test_bad_command(self, case, external_workers, bad):  # noqa: F811
        address = external_workers[0]
        conn = _open(address)
        assert _init(conn, case) == ("ready", 0)
        if bad == "corrupt-frame":
            conn.send_bytes(_CORRUPT_WIRE_BYTES)
        else:
            _send_oob(conn, (0, "superstep"))
        with pytest.raises(EOFError):  # the agent hung up on this session ...
            conn.recv_bytes()
        conn.close()
        again = _open(address)  # ... and serves the next one on the same address
        assert _init(again, case) == ("ready", 0)
        _send_oob(again, (0, "resident", False, -1, -1, None))
        assert _recv_oob(again, deadline=time.monotonic() + 10) == (0, 0, 0)
        again.close()

    @pytest.mark.parametrize(
        "init",
        [
            ("init", {"partition": None, "computation": None, "incarnation": 0}),
            ("init", dict.fromkeys("abcdef")),  # six keys destructure, to no HostSpec
            ("hello", (None,) * 6),
            "init",
        ],
    )
    def test_bad_init(self, case, external_workers, init):  # noqa: F811
        address = external_workers[1]
        conn = _open(address)
        _send_oob(conn, init)  # e.g. the state dict another version's driver sends
        with pytest.raises(EOFError):
            conn.recv_bytes()
        conn.close()
        again = _open(address)
        assert _init(again, case, incarnation=1) == ("ready", 1)
        again.close()


class TestConnectIsBounded:
    def test_each_attempt_gets_what_is_left_of_the_deadline(self, case, monkeypatch):  # noqa: F811
        _tpl, coll, pg, sources = case
        asked = []

        def black_hole(address, timeout=None, **kwargs):
            asked.append(timeout)
            time.sleep(min(timeout, 0.2))  # a SYN nobody answers
            raise TimeoutError("timed out")

        monkeypatch.setattr(socket, "create_connection", black_hole)
        monkeypatch.setattr(process_cluster, "_CONNECT_TIMEOUT_S", 0.5)
        start = time.monotonic()
        with pytest.raises(WorkerLost, match="unreachable"):
            Cluster(pg, EmitSum(), _meta(coll), sources, hosts="127.0.0.1:1,127.0.0.1:1")
        assert time.monotonic() - start < 2.0
        assert len(asked) >= 2 and all(t is not None and 0 < t <= 0.5 for t in asked)

    def test_a_connected_socket_is_blocking_again(self, case, external_workers):  # noqa: F811
        with _cluster("socket", case, external_workers) as cluster:
            assert [c.conn._sock.gettimeout() for c in cluster._channels] == [None, None]


def test_a_timestep_on_the_wire_is_superstep_eot():
    """Seven host ops; superstep 0 opens a timestep, so no round op begins one."""
    from repro.runtime.host import ROUND_OPS

    assert len(HOST_OPS) == 7
    assert ROUND_OPS == ("superstep", "eot", "merge")
