"""fsio's durable atomic writes and the injection seam they consult.

Every durable-write path (checkpoints, model store, journals,
quarantine dumps) funnels through :mod:`repro.utils.fsio`, which asks
the ``durable`` point of :mod:`repro.utils.inject` before any byte
moves; these tests pin both — atomicity under injected faults,
temp-file hygiene, arming scope, the JSON vocabulary — so the call
sites can lean on them.
"""

from __future__ import annotations

import errno

import pytest

from repro.netsim.faults import DiskFull, DiskIOError
from repro.utils import inject
from repro.utils.fsio import atomic_write_bytes, atomic_write_text, fsync_dir

pytestmark = pytest.mark.faults


class TestAtomicWrite:
    def test_write_lands_with_no_temp_debris(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]

    def test_rewrite_replaces_atomically(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_injected_fault_leaves_previous_contents(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"good")

        def hook(op, p):
            raise OSError(errno.ENOSPC, "injected", p)

        with inject.arm({inject.DURABLE: hook}), pytest.raises(OSError):
            atomic_write_bytes(path, b"never lands")
        assert path.read_bytes() == b"good"
        assert list(tmp_path.iterdir()) == [path]

    def test_fsync_dir_tolerates_odd_filesystems(self, tmp_path):
        fsync_dir(tmp_path)  # plain directory: fine
        fsync_dir(tmp_path / "does-not-exist")  # best-effort: no raise


class TestFaultHook:
    def test_no_hook_is_a_no_op(self, tmp_path):
        assert inject.hook(inject.DURABLE) is None
        atomic_write_bytes(tmp_path / "x", b"fine")

    def test_hook_sees_op_and_path(self, tmp_path):
        seen = []
        with inject.arm({inject.DURABLE: lambda op, p: seen.append((op, p))}):
            atomic_write_bytes(tmp_path / "y", b"")
        assert seen == [("write", str(tmp_path / "y"))]

    def test_clear_restores_the_no_op(self, tmp_path):
        def hook(op, p):
            raise OSError(errno.EIO, "injected", p)

        outer = []
        with inject.arm({inject.DURABLE: outer.append}):
            with inject.arm({inject.DURABLE: hook}):
                assert inject.hook(inject.DURABLE) is hook
            assert inject.hook(inject.DURABLE) == outer.append
        assert inject.hook(inject.DURABLE) is None
        atomic_write_bytes(tmp_path / "z", b"fine")

    def test_unknown_points_are_refused(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            with inject.arm({"disk": print}):
                pass
        assert all(inject.hook(point) is None for point in inject.POINTS)


class TestDurableFaultProfiles:
    def test_disk_full_fires_in_its_attempt_window(self, tmp_path):
        hook = DiskFull(match="target.ckpt", after=2, times=1).points()[
            inject.DURABLE
        ]
        hook("write", "/w/target.ckpt")  # attempt 1: before the window
        with pytest.raises(OSError) as caught:
            hook("write", "/w/target.ckpt")  # attempt 2: inside
        assert caught.value.errno == errno.ENOSPC
        hook("write", "/w/target.ckpt")  # attempt 3: window exhausted

    def test_non_matching_paths_never_count(self):
        hook = DiskFull(match="checkpoint.ckpt").points()[inject.DURABLE]
        hook("write", "/w/events.bin")
        hook("write", "/w/quarantine.jsonl")
        with pytest.raises(OSError):
            hook("write", "/w/checkpoint.ckpt.new")  # temp names match too

    def test_io_error_profile_raises_eio_for_its_op(self):
        hook = DiskIOError(match="s.log", op="read").points()[inject.DURABLE]
        hook("write", "/w/s.log")  # wrong op: ignored
        with pytest.raises(OSError) as caught:
            hook("read", "/w/s.log")
        assert caught.value.errno == errno.EIO

    def test_from_dict_dispatches_and_rejects_unknown(self):
        hooks = inject.from_dict(
            {
                "durable": {"errno": "ENOSPC", "match": "x"},
                "daemon.arrival": {"after": 3},
                "tenant.arrival": {"at": 2, "mode": "hang", "tenant": "a"},
            }
        )
        with pytest.raises(OSError) as caught:
            hooks[inject.DURABLE]("write", "/w/x")
        assert caught.value.errno == errno.ENOSPC
        assert isinstance(hooks[inject.DAEMON_ARRIVAL], inject.DaemonCrash)
        poison = hooks[inject.TENANT_ARRIVAL]
        assert poison.hangs("a") and not poison.hangs("b")
        assert inject.from_dict(None) == {}
        for bad in (
            {"shard.step": {}},  # not in the JSON vocabulary
            {"meteor-strike": {}},
            {"durable": {"errno": "EMETEOR"}},
            {"durable": {"errno": "EIO", "colour": "red"}},
            {"tenant.arrival": {"at": 0, "mode": "explode"}},
            {"daemon.arrival": 5},
        ):
            with pytest.raises(ValueError):
                inject.from_dict(bad)
