"""THE multi-GPU correctness test: a domain-decomposed run reproduces the
single-domain run bit for bit (the distributed analogue of the paper's
"numerical results ... agree with those from the CPU code within the
margin of machine round-off error" — here the margin is exactly zero).
"""
import numpy as np
import pytest

from repro.core import (
    AsucaModel,
    DynamicsConfig,
    ModelConfig,
    bell_mountain,
    make_grid,
    make_reference_state,
)
from repro.dist.multigpu import MultiGpuAsuca
from repro.workloads.sounding import constant_stability_sounding, tropospheric_sounding


def _setup(terrain=None, sounding=None, physics=False, nx=16, ny=12, nz=8):
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=2000.0, dy=2000.0, ztop=12000.0,
                  terrain=terrain)
    ref = make_reference_state(g, sounding or constant_stability_sounding())
    cfg = ModelConfig(
        dynamics=DynamicsConfig(dt=4.0, ns=4, rayleigh_depth=4000.0,
                                rayleigh_tau=30.0),
        physics_enabled=physics,
    )
    return g, ref, cfg


def _perturbed_initial(model):
    st = model.initial_state(u0=10.0)
    g = model.grid
    X = g.x_c()[:, None, None]
    Y = g.y_c()[None, :, None]
    st.rhotheta += st.rho * 1.5 * np.exp(
        -(((X - 16000.0) / 4000.0) ** 2) - (((Y - 12000.0) / 4000.0) ** 2)
    )
    model._exchange(st, None)
    return st


@pytest.mark.parametrize("px,py", [(2, 2), (1, 2), (3, 1), (2, 3)])
def test_bitwise_equivalence_flat(px, py):
    g, ref, cfg = _setup()
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)

    machine = MultiGpuAsuca(g, ref, px, py, cfg)
    rank_states = machine.scatter_state(st)
    machine.exchange_all(rank_states, None)

    st_single = st
    for _ in range(3):
        st_single = single.step(st_single)
        rank_states = machine.step(rank_states)
    gathered = machine.gather_state(rank_states)
    for name in st_single.prognostic_names():
        a = st_single.get(name)
        b = gathered.get(name)
        h = g.halo
        np.testing.assert_array_equal(
            a[h : h + g.nx, h : h + g.ny], b[h : h + g.nx, h : h + g.ny],
            err_msg=f"{name} differs for {px}x{py}",
        )


def test_bitwise_equivalence_terrain():
    terr = bell_mountain(height=300.0, half_width=4000.0, x0=16000.0)
    g, ref, cfg = _setup(terrain=terr)
    single = AsucaModel(g, ref, cfg)
    st = single.initial_state(u0=10.0)

    machine = MultiGpuAsuca(g, ref, 2, 2, cfg)
    rank_states = machine.scatter_state(st)
    machine.exchange_all(rank_states, None)

    st_single = st
    for _ in range(3):
        st_single = single.step(st_single)
        rank_states = machine.step(rank_states)
    gathered = machine.gather_state(rank_states)
    h = g.halo
    for name in st_single.prognostic_names():
        np.testing.assert_array_equal(
            st_single.get(name)[h : h + g.nx, h : h + g.ny],
            gathered.get(name)[h : h + g.nx, h : h + g.ny],
            err_msg=name,
        )
    # and the wave is actually active (the test is not comparing zeros)
    assert machine.max_w(rank_states) > 1e-4


def test_bitwise_equivalence_with_physics():
    g, ref, cfg = _setup(sounding=tropospheric_sounding(), physics=True)
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)
    # moisten so the Kessler path activates
    from repro.core.pressure import eos_pressure, exner
    from repro.physics.saturation import saturation_mixing_ratio

    p = eos_pressure(st.rhotheta, g)
    T = (st.rhotheta / st.rho) * exner(p)
    # supersaturate the lower levels so the Kessler path definitely fires
    qvs = saturation_mixing_ratio(p, T)
    st.q["qv"][...] = 0.9 * qvs * st.rho
    st.q["qv"][:, :, :3] = 1.1 * qvs[:, :, :3] * st.rho[:, :, :3]
    single._exchange(st, None)

    machine = MultiGpuAsuca(g, ref, 2, 2, cfg)
    rank_states = machine.scatter_state(st)
    machine.exchange_all(rank_states, None)

    st_single = st
    for _ in range(3):
        st_single = single.step(st_single)
        rank_states = machine.step(rank_states)
    gathered = machine.gather_state(rank_states)
    h = g.halo
    for name in st_single.prognostic_names():
        np.testing.assert_array_equal(
            st_single.get(name)[h : h + g.nx, h : h + g.ny],
            gathered.get(name)[h : h + g.nx, h : h + g.ny],
            err_msg=name,
        )
    assert float(gathered.q["qc"].max()) > 0.0  # cloud formed somewhere


def test_mass_conservation_distributed():
    g, ref, cfg = _setup()
    machine = MultiGpuAsuca(g, ref, 2, 2, cfg)
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)
    rank_states = machine.scatter_state(st)
    machine.exchange_all(rank_states, None)
    m0 = machine.total_mass(rank_states)
    rank_states = machine.run(rank_states, 5)
    assert machine.total_mass(rank_states) == pytest.approx(m0, rel=1e-8)


def test_comm_traffic_recorded():
    g, ref, cfg = _setup()
    machine = MultiGpuAsuca(g, ref, 2, 2, cfg)
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)
    rank_states = machine.scatter_state(st)
    machine.exchange_all(rank_states, None)
    machine.comm.stats.reset()
    machine.step(rank_states)
    stats = machine.comm.stats
    assert stats.messages > 0
    assert stats.bytes_total > 0
    # every rank pair that talks is a grid neighbor
    for (src, dst), nbytes in stats.by_pair.items():
        ssrc = machine.subs[src]
        sdst = machine.subs[dst]
        dx = min(abs(ssrc.cx - sdst.cx), machine.px - abs(ssrc.cx - sdst.cx))
        dy = min(abs(ssrc.cy - sdst.cy), machine.py - abs(ssrc.cy - sdst.cy))
        assert dx + dy <= 1, "non-neighbor communication"


def test_step_raises_when_ranks_yield_different_fields(monkeypatch):
    """Lockstep trusts no single rank's field list: a rank that yields a
    different list at an exchange point desynchronizes the step."""
    g, ref, cfg = _setup()
    machine = MultiGpuAsuca(g, ref, 2, 1, cfg)
    rank_states = machine.scatter_state(
        _perturbed_initial(AsucaModel(g, ref, cfg)))
    machine.exchange_all(rank_states, None)
    integ = machine.ranks[1].integrator
    real = integ.step_phases
    monkeypatch.setattr(integ, "step_phases", lambda state: (
        (st, None if fields is None else fields[:1])
        for st, fields in real(state)))
    with pytest.raises(RuntimeError, match="desynchronized"):
        machine.step(rank_states)
