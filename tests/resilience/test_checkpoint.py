"""Checkpoint-restart: atomicity, pruning, and bit-identical resumes."""
import numpy as np
import pytest

from repro.core.model import AsucaModel, ModelConfig
from repro.resilience.checkpoint import CheckpointManager
from repro.workloads.warm_bubble import make_warm_bubble_case


@pytest.fixture(scope="module")
def case():
    return make_warm_bubble_case(nx=12, ny=12, nz=10)


def _fresh_state(case):
    return case.model.initial_state()


# ------------------------------------------------------------- bookkeeping
class TestManager:
    def test_due_cadence(self, tmp_path):
        m = CheckpointManager(tmp_path, every=3)
        assert [s for s in range(1, 10) if m.due(s)] == [3, 6, 9]
        assert not CheckpointManager(tmp_path).due(3)   # every=0 disables
        assert not m.due(0)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=-1)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_save_load_roundtrip_single_rank(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        st = _fresh_state(case)
        m.save(5, st)
        assert m.latest_step() == 5
        ckpt = m.load([case.grid])
        assert ckpt.step == 5
        assert len(ckpt.states) == 1
        for name in st.prognostic_names():
            np.testing.assert_array_equal(ckpt.states[0].get(name),
                                          st.get(name), err_msg=name)
        assert ckpt.states[0].time == st.time
        assert ckpt.meta["phase"] == "long_step_boundary"

    def test_no_tmp_files_left_behind(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        m.save(1, _fresh_state(case))
        assert not list(tmp_path.glob("*.tmp"))
        assert (tmp_path / "latest").read_text().strip() == "1"

    def test_prune_keeps_newest(self, tmp_path, case):
        m = CheckpointManager(tmp_path, keep=2)
        st = _fresh_state(case)
        for step in (1, 2, 3, 4):
            m.save(step, st)
        archives = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert archives == ["ckpt-00000003.npz", "ckpt-00000004.npz"]
        assert m.latest_step() == 4

    def test_latest_falls_back_to_archive_scan(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        m.save(7, _fresh_state(case))
        (tmp_path / "latest").unlink()
        assert m.latest_step() == 7

    def test_rng_state_roundtrip(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        rng = np.random.default_rng(123)
        rng.random(10)
        m.save(1, _fresh_state(case), rng=rng)
        ckpt = m.load([case.grid])
        restored = np.random.default_rng(0)
        restored.bit_generator.state = ckpt.rng_state
        assert restored.random() == rng.random()

    def test_load_rejects_wrong_rank_count(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        m.save(1, _fresh_state(case))
        with pytest.raises(ValueError, match="ranks"):
            m.load([case.grid, case.grid])

    def test_load_missing_raises(self, tmp_path, case):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(tmp_path / "empty").load([case.grid])

    def test_load_rejects_mismatched_field_shape(self, tmp_path, case):
        from repro.core.grid import make_grid

        m = CheckpointManager(tmp_path)
        m.save(1, _fresh_state(case))
        wrong = make_grid(10, 12, 10, 1000.0, 1000.0, 10000.0)
        with pytest.raises(ValueError, match="shape"):
            m.load([wrong])

    def test_precip_accum_roundtrip(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        st = _fresh_state(case)
        st.precip_accum = np.full((case.grid.nx, case.grid.ny), 1.25)
        m.save(1, st)
        np.testing.assert_array_equal(
            m.load([case.grid]).states[0].precip_accum, 1.25)


# ------------------------------------------------- bit-identical continue
class TestResumeBitIdentity:
    def test_single_domain_resume_equals_uninterrupted(self, tmp_path, case):
        """AsucaModel: run 6 steps straight vs. run 6 with a checkpoint at
        3, reload, and continue — the final fields must be identical."""
        model = case.model
        ref = model.run(_fresh_state(case), 6)

        m = CheckpointManager(tmp_path, every=3)
        model.run(_fresh_state(case), 3, checkpoint=m)
        ckpt = m.load([case.grid])
        assert ckpt.step == 3
        resumed = model.run(ckpt.states[0], 3, checkpoint=m,
                            start_step=ckpt.step)
        for name in ref.prognostic_names():
            np.testing.assert_array_equal(resumed.get(name), ref.get(name),
                                          err_msg=name)
        assert resumed.time == ref.time

    def test_multigpu_resume_equals_uninterrupted(self, tmp_path):
        """2x2 MultiGpuAsuca: kill after step 2 of 4, restore from the
        step-2 checkpoint, finish — bit-identical to the straight run."""
        from repro.dist.multigpu import MultiGpuAsuca

        case = make_warm_bubble_case(nx=12, ny=12, nz=10)

        def fresh():
            machine = MultiGpuAsuca(case.grid, case.ref, 2, 2,
                                    case.model.config)
            states = machine.scatter_state(case.model.initial_state())
            machine.exchange_all(states, None)
            return machine, states

        machine, states = fresh()
        ref = machine.gather_state(machine.run(states, 4))

        m = CheckpointManager(tmp_path, every=2)
        machine, states = fresh()
        machine.run(states, 2, checkpoint=m)       # "killed" here
        ckpt = m.load([r.grid for r in machine.ranks])
        assert ckpt.step == 2

        machine2, _ = fresh()                      # a fresh process
        machine2.step_index = ckpt.step
        out = machine2.gather_state(machine2.run(ckpt.states, 2,
                                                 checkpoint=m))
        for name in ref.prognostic_names():
            np.testing.assert_array_equal(out.get(name), ref.get(name),
                                          err_msg=name)
