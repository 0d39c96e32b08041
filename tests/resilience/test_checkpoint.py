"""Unit tests for the checkpoint store: integrity, retention, recovery policy."""

import json
from dataclasses import fields

import pytest

from repro.resilience.checkpoint import CHECKPOINT_FORMAT_VERSION
from repro.resilience import (
    CheckpointConfig,
    CheckpointCorrupt,
    CheckpointManager,
    FailureRecord,
    RecoveryPolicy,
    RunFailure,
)


def _write(mgr, t, driver=None, parts=None):
    return mgr.write(
        t,
        driver if driver is not None else {"next_t": t},
        parts if parts is not None else [{"p": 0}, {"p": 1}],
    )


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        mgr = CheckpointManager(tmp_path, signature={"pattern": "TEST"})
        info = _write(mgr, 3, driver={"next_t": 3, "x": [1, 2]})
        assert info.path.name == "ckpt-000000-t3"
        assert info.nbytes > 0 and info.seconds >= 0
        loaded = mgr.load()
        assert loaded.timestep == 3 and "superstep" not in loaded.meta
        assert loaded.driver == {"next_t": 3, "x": [1, 2]}
        assert loaded.parts == [{"p": 0}, {"p": 1}]
        assert loaded.meta["signature"] == {"pattern": "TEST"}
        # The manager that stamps the signature refuses another run's.
        other = CheckpointManager(tmp_path, signature={"pattern": "OTHER"})
        with pytest.raises(ValueError, match="pattern is 'TEST' in the checkpoint"):
            other.load()

    def test_load_by_name(self, tmp_path):
        mgr = CheckpointManager(tmp_path, retain=5)
        first = _write(mgr, 1)
        _write(mgr, 2)
        assert mgr.load(first.path.name).timestep == 1

    def test_no_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(tmp_path / "empty").load()

    def test_seq_resumes_after_reopen(self, tmp_path):
        _write(CheckpointManager(tmp_path), 1)
        info = _write(CheckpointManager(tmp_path), 2)
        assert info.seq == 1


class TestIntegrity:
    def test_tampered_blob_detected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        info = _write(mgr, 1)
        blob = info.path / "part-1.bin"
        blob.write_bytes(b"\x00" + blob.read_bytes()[1:])
        with pytest.raises(CheckpointCorrupt, match="failed validation"):
            mgr.load()

    def test_missing_blob_detected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        info = _write(mgr, 1)
        (info.path / "driver.bin").unlink()
        with pytest.raises(CheckpointCorrupt):
            mgr.load()

    def test_future_format_version_rejected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        info = _write(mgr, 1)
        manifest = json.loads((info.path / "manifest.json").read_text())
        manifest["format_version"] = 999
        (info.path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorrupt, match="format version"):
            mgr.load()

    def test_v1_mid_timestep_checkpoint_is_refused(self, tmp_path):
        """A format-1 manifest may name a point inside a timestep, which a
        run that resumes only where a timestep closed must not enter."""
        mgr = CheckpointManager(tmp_path)
        info = _write(mgr, 2)
        manifest = json.loads((info.path / "manifest.json").read_text())
        manifest.update(format_version=1, superstep=3)
        (info.path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorrupt, match="unsupported format version 1"):
            mgr.load()
        with pytest.raises(CheckpointCorrupt, match="format version 1"):
            mgr.load(partitions=(0,))

    def test_format_version_is_4(self):
        """4: a checkpoint closes a timestep, its collector carries the run's
        failure records, and its records pickle as slotted values."""
        assert CHECKPOINT_FORMAT_VERSION == 4

    def test_v2_checkpoint_is_refused(self, tmp_path):
        """A format-2 driver blob pickles a collector without failure
        records: a run resumed from it would lose its failure log."""
        mgr = CheckpointManager(tmp_path)
        info = _write(mgr, 2)
        manifest = json.loads((info.path / "manifest.json").read_text())
        manifest["format_version"] = 2
        (info.path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorrupt, match=r"version 2 \(this engine reads 4\)"):
            mgr.load()

    def test_manifestless_dir_is_not_a_checkpoint(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        _write(mgr, 1)
        torn = tmp_path / "ckpt-000009-t9"
        torn.mkdir()
        (torn / "driver.bin").write_bytes(b"partial")
        # The latest is the highest complete one; the torn dir is invisible.
        assert mgr.latest_name() == "ckpt-000000-t1"

    def test_latest_fallback_scan(self, tmp_path):
        """The latest checkpoint is found one way: the complete directory
        with the highest sequence number.  No pointer file is written, and
        no manifest's temporary file is left behind."""
        mgr = CheckpointManager(tmp_path, retain=5)
        _write(mgr, 1)
        _write(mgr, 2)
        assert CheckpointManager(tmp_path).latest_name() == "ckpt-000001-t2"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt-000000-t1", "ckpt-000001-t2"]
        assert not list(tmp_path.glob("*/*.tmp"))

    def test_a_truncated_manifest_is_corrupt(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        info = _write(mgr, 1)
        manifest = info.path / "manifest.json"
        manifest.write_text(manifest.read_text()[:20])
        with pytest.raises(CheckpointCorrupt, match="unreadable manifest"):
            mgr.load()


class TestRetention:
    def test_prunes_beyond_retain(self, tmp_path):
        mgr = CheckpointManager(tmp_path, retain=2)
        for t in range(5):
            _write(mgr, t)
        names = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert names == ["ckpt-000003-t3", "ckpt-000004-t4"]
        assert mgr.load().timestep == 4


class TestConfigAndRecords:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(every=0)
        with pytest.raises(ValueError):
            CheckpointConfig(retain=0)
        # A checkpoint closes a timestep: there is no mid-timestep cadence.
        assert [f.name for f in fields(CheckpointConfig)] == ["dir", "every", "retain"]

    def test_recovery_policy_has_three_fields(self):
        assert RecoveryPolicy.__slots__ == ("max_retries", "backoff_s", "on_exhausted")

    def test_recovery_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(on_exhausted="panic")
        with pytest.raises(TypeError):
            RecoveryPolicy(mode="surgical")  # one way to recover: not an option
        p = RecoveryPolicy(backoff_s=0.1)
        assert [p.backoff_for(n) for n in (1, 2, 3)] == pytest.approx([0.1, 0.2, 0.4])

    def test_failure_record_and_run_failure_as_dict(self):
        """A failure is a run record: its event line folds back to it, and a
        structured failure is its reason and timestep alone (the records are
        the result's ``failure_log``, stated once)."""
        rec = FailureRecord(3, -1, 1, 1, "WorkerLost", "boom", "retry")
        assert rec.kind == "failure"
        assert FailureRecord.from_event({"kind": rec.kind, **rec.as_event()}) == rec
        failure = RunFailure("WorkerLost: boom", 3)
        assert failure.as_dict() == {"reason": "WorkerLost: boom", "timestep": 3}
