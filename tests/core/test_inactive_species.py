"""Property tests of inactive-species skipping in the RK3 long step.

A water species whose array is +0.0 everywhere (halos included) is not
advected or updated.  The oracle is a long step that applies
``advect_scalar`` to every species by hand; the stepped state must equal
it byte for byte (``.view(np.uint64)``, so -0.0 differs from +0.0), and a
2x2 decomposed run must equal the single-domain run.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import advection as adv
from repro.core.acoustic import AcousticStepper, build_context
from repro.core.advection import advect_scalar, contravariant_mass_flux_w
from repro.core.grid import make_grid
from repro.core.model import AsucaModel, ModelConfig
from repro.core.reference import make_reference_state
from repro.core.rk3 import DynamicsConfig, slow_tendencies
from repro.dist.multigpu import MultiGpuAsuca
from repro.workloads.sounding import constant_stability_sounding

PATTERNS = ("all-zero", "one-cell", "one-negative-zero")


def _model(nx, ny, nz, limiter="koren"):
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=2000.0, dy=2000.0, ztop=10000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    cfg = ModelConfig(dynamics=DynamicsConfig(dt=4.0, ns=4, limiter=limiter))
    return AsucaModel(g, ref, cfg), cfg


def _initial(model, seed):
    """Moist (qv > 0 everywhere), windy, perturbed state; every other
    species is +0.0."""
    st0 = model.initial_state(u0=10.0, v0=-7.0)
    r = np.random.default_rng(seed)
    st0.rhotheta += st0.rho * r.uniform(0.0, 0.5, st0.rho.shape)
    st0.q["qv"][...] = st0.rho * r.uniform(1e-3, 1e-2, st0.rho.shape)
    return st0


def _oracle_step(model, state):
    """One long step that advects every species with ``advect_scalar``,
    applied by hand."""
    integ = model.integrator
    g = model.grid
    exchange = model._exchange
    exchange(state, None)
    ctx = build_context(state, integ.ref, integ.p_ref)
    cur = state
    for dts, nsub in integ.stage_plan():
        forcing, _ = slow_tendencies(cur, integ.ref, integ.cfg, integ.limiter,
                                     integ.rayleigh_w, inactive=list(cur.q))
        fz = contravariant_mass_flux_w(cur.rhou, cur.rhov, cur.rhow, g)
        q_tend = {
            name: advect_scalar(q_hat / cur.rho, cur.rhou, cur.rhov, fz, g,
                                integ.limiter)
            for name, q_hat in cur.q.items()
        }
        stepper = AcousticStepper(state, forcing, ctx, integ.ref, dts, nsub,
                                  beta=integ.cfg.beta,
                                  div_damp=integ.cfg.div_damp)
        for _ in range(nsub):
            exchange(stepper.st, stepper.substep())
        exchange(stepper.st, stepper.finish(q_tend))
        cur = stepper.st
    return cur


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def _assert_same_bits(a, b, names, window=(slice(None), slice(None))):
    for name in names:
        np.testing.assert_array_equal(
            _bits(a.get(name)[window]), _bits(b.get(name)[window]),
            err_msg=f"{name} differs bitwise")


class _CountAdvection:
    """Counts ``advect_scalar`` calls made by the RK3 slow tendencies."""

    def __init__(self, mp):
        self.calls = 0
        real = adv.advect_scalar

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        mp.setattr(adv, "advect_scalar", counted)


@settings(max_examples=12, deadline=None)
@given(nx=st.integers(6, 12), ny=st.integers(6, 12), nz=st.integers(4, 7),
       seed=st.integers(0, 10_000), pattern=st.sampled_from(PATTERNS))
def test_skipping_matches_hand_advected_oracle(nx, ny, nz, seed, pattern):
    model, cfg = _model(nx, ny, nz)
    st0 = _initial(model, seed)
    g = model.grid
    r = np.random.default_rng(seed + 1)
    i = g.halo + int(r.integers(g.nx))
    j = g.halo + int(r.integers(g.ny))
    k = int(r.integers(g.nz))
    if pattern == "one-cell":
        st0.q["qc"][i, j, k] = 1e-4 * float(st0.rho[i, j, k])
    elif pattern == "one-negative-zero":
        st0.q["qc"][i, j, k] = -0.0
    model._exchange(st0, None)

    with pytest.MonkeyPatch.context() as mp:
        count = _CountAdvection(mp)
        stepped = model.step(st0.copy())
    oracle = _oracle_step(model, st0.copy())
    _assert_same_bits(stepped, oracle, st0.prognostic_names())

    # theta and qv in every stage; qc only when it is not all +0.0
    per_stage = 2 if pattern == "all-zero" else 3
    assert count.calls == 3 * per_stage

    machine = MultiGpuAsuca(g, model.ref, 2, 2, cfg)
    ranks = machine.scatter_state(st0.copy())
    machine.exchange_all(ranks, None)
    gathered = machine.gather_state(machine.step(ranks))
    h = g.halo
    _assert_same_bits(stepped, gathered, st0.prognostic_names(),
                      (slice(h, h + g.nx), slice(h, h + g.ny)))


@settings(max_examples=10, deadline=None)
@given(nx=st.integers(14, 18), ny=st.integers(14, 18), nz=st.integers(4, 6),
       seed=st.integers(0, 10_000), rank=st.integers(0, 3),
       margin=st.sampled_from((0, 1, 3)),
       limiter=st.sampled_from(("koren", "unlimited_k13")))
@example(nx=14, ny=14, nz=4, seed=1, rank=0, margin=3, limiter="unlimited_k13")
def test_species_on_one_rank_decomposed_equals_single(nx, ny, nz, seed, rank,
                                                     margin, limiter):
    """qc is nonzero on one rank of a 2x2 run only.  With a margin of
    ``halo`` (3) cells, the other ranks start all +0.0, halos included.
    An unlimited reconstruction reads the downwind cell, so the tracer
    then reaches their interiors from the halo within the long step: a
    species skipped at the long-step start must become active there."""
    model, cfg = _model(nx, ny, nz, limiter)
    g = model.grid
    h = g.halo
    machine = MultiGpuAsuca(g, model.ref, 2, 2, cfg)
    sub = machine.ranks[rank].sub
    st0 = _initial(model, seed)
    r = np.random.default_rng(seed + 2)
    x0, y0 = h + sub.x0 + margin, h + sub.y0 + margin
    x1, y1 = h + sub.x0 + sub.nx - margin, h + sub.y0 + sub.ny - margin
    block = st0.q["qc"][x0:x1, y0:y1]
    block[...] = st0.rho[x0:x1, y0:y1] * r.uniform(-1e-3, 1e-3, block.shape)
    model._exchange(st0, None)

    oracle = _oracle_step(model, st0.copy())
    stepped = model.step(st0.copy())
    _assert_same_bits(stepped, oracle, st0.prognostic_names())

    ranks = machine.scatter_state(st0.copy())
    machine.exchange_all(ranks, None)
    with pytest.MonkeyPatch.context() as mp:
        count = _CountAdvection(mp)
        gathered = machine.gather_state(machine.step(ranks))
    window = (slice(h, h + g.nx), slice(h, h + g.ny))
    _assert_same_bits(stepped, gathered, st0.prognostic_names(), window)
    _assert_same_bits(oracle, gathered, st0.prognostic_names(), window)
    # theta, qv and qc on 4 ranks in 3 stages, less the skipped qc calls
    if margin >= h:
        assert count.calls < 4 * 3 * 3


def test_exchange_points_name_every_species():
    """finish() names every species, inactive ones too, so ranks that
    disagree on the inactive set still yield the same exchange list."""
    model, _ = _model(8, 8, 4)
    st0 = _initial(model, 0)
    gen = model.integrator.step_phases(st0)
    lists = []
    try:
        while True:
            _, fields = next(gen)
            lists.append(fields)
    except StopIteration:
        pass
    species = list(st0.q)
    assert lists.count(species) == 3
