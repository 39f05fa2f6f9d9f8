"""Bit identity of the interior-window acoustic substep.

The oracle is a frozen copy of the full-extent substep it replaced: every
temporary over the whole haloed arrays, sliced to the interior at the end.
The two must agree byte for byte (``.view(np.uint64)``, so the sign of
zero counts) after every substep, halos included.
"""
import numpy as np
import pytest

from repro import constants as c
from repro.core.acoustic import AcousticStepper, build_context
from repro.core.advection import contravariant_mass_flux_w
from repro.core.boundary import fill_halos_state
from repro.core.grid import bell_mountain, make_grid
from repro.core.helmholtz import HelmholtzOperator
from repro.core.limiter import koren
from repro.core.pressure import eos_pressure
from repro.core.reference import make_reference_state
from repro.core.rk3 import DynamicsConfig, slow_tendencies
from repro.core.state import state_from_reference
from repro.workloads.sounding import constant_stability_sounding


# ------------------------------------------------- frozen full-extent oracle
def _dpp_dz_centers(pp, grid):
    nz = grid.nz
    out = np.empty_like(pp)
    span = (grid.z_c[2:] - grid.z_c[:-2])[None, None, :]
    out[:, :, 1:-1] = (pp[:, :, 2:] - pp[:, :, :-2]) / span
    out[:, :, 0] = (pp[:, :, 1] - pp[:, :, 0]) / (grid.z_c[1] - grid.z_c[0])
    out[:, :, nz - 1] = (pp[:, :, -1] - pp[:, :, -2]) / (grid.z_c[-1] - grid.z_c[-2])
    out /= grid.jac[:, :, None]
    return out


def _metric_flux(rhou, rhov, grid):
    zero_w = np.zeros(grid.shape_w, dtype=rhou.dtype)
    return contravariant_mass_flux_w(rhou, rhov, zero_w, grid)


def _dz_center_from_faces(flux_w, grid):
    return (flux_w[:, :, 1:] - flux_w[:, :, :-1]) / grid.dz_c[None, None, :]


class FullExtentSubstep:
    """The acoustic substep before the interior-window rewrite."""

    def __init__(self, base, forcing, ctx, dts, nsub, beta, div_damp):
        g = ctx.grid
        self.ctx, self.forcing, self.g = ctx, forcing, g
        self.beta, self.div_damp = beta, div_damp
        self.dtau = dts / nsub
        self.st = base.copy()
        self.helm = HelmholtzOperator(g, ctx.theta_wf, ctx.cp_lin, self.dtau, beta)
        self.jac3 = g.jac[:, :, None]
        self.pp_prev = None
        self.has_terrain = not g.is_flat()

    def substep(self):
        ctx = self.ctx
        forcing = self.forcing
        st = self.st
        g = self.g
        h = g.halo
        sx, sy = g.isl
        dtau = self.dtau
        beta = self.beta
        jac3 = self.jac3
        has_terrain = self.has_terrain
        helm = self.helm
        pp_prev = self.pp_prev
        div_damp = self.div_damp

        pp = ctx.pc + ctx.cp_lin * st.rhotheta
        if pp_prev is not None and div_damp > 0.0:
            pp_h = pp + div_damp * (pp - pp_prev)
        else:
            pp_h = pp
        self.pp_prev = pp

        ux0, ux1 = h, h + g.nx + 1
        grad_x = (pp_h[ux0:ux1, sy] - pp_h[ux0 - 1 : ux1 - 1, sy]) / g.dx
        pgf_u = -g.jac_u[ux0:ux1, sy, None] * grad_x
        if has_terrain:
            dppdz = _dpp_dz_centers(pp_h, g)
            dppdz_u = 0.5 * (dppdz[ux0:ux1, sy] + dppdz[ux0 - 1 : ux1 - 1, sy])
            pgf_u += (
                g.jac_u[ux0:ux1, sy, None]
                * g.dzsdx_u[ux0:ux1, sy, None]
                * g.decay_c[None, None, :]
                * dppdz_u
            )
        st.rhou[ux0:ux1, sy] += dtau * (pgf_u + forcing.r_u[ux0:ux1, sy])

        vy0, vy1 = h, h + g.ny + 1
        grad_y = (pp_h[sx, vy0:vy1] - pp_h[sx, vy0 - 1 : vy1 - 1]) / g.dy
        pgf_v = -g.jac_v[sx, vy0:vy1, None] * grad_y
        if has_terrain:
            dppdz_v = 0.5 * (dppdz[sx, vy0:vy1] + dppdz[sx, vy0 - 1 : vy1 - 1])
            pgf_v += (
                g.jac_v[sx, vy0:vy1, None]
                * g.dzsdy_v[sx, vy0:vy1, None]
                * g.decay_c[None, None, :]
                * dppdz_v
            )
        st.rhov[sx, vy0:vy1] += dtau * (pgf_v + forcing.r_v[sx, vy0:vy1])

        dfx = (st.rhou[h + 1 : h + g.nx + 1, sy] - st.rhou[h : h + g.nx, sy]) / g.dx
        dfy = (st.rhov[sx, h + 1 : h + g.ny + 1] - st.rhov[sx, h : h + g.ny]) / g.dy
        if has_terrain:
            m_now = _metric_flux(st.rhou, st.rhov, g)
            dm = _dz_center_from_faces(m_now, g)[sx, sy]
        else:
            m_now = None
            dm = 0.0
        rho_e = st.rho[sx, sy] - dtau * (dfx + dfy + dm)

        du_p = st.rhou - forcing.fx_s
        dv_p = st.rhov - forcing.fy_s
        thx = ctx.theta_xf
        thy = ctx.theta_yf
        dfx_t = (
            thx[h + 1 : h + g.nx + 1, sy] * du_p[h + 1 : h + g.nx + 1, sy]
            - thx[h : h + g.nx, sy] * du_p[h : h + g.nx, sy]
        ) / g.dx
        dfy_t = (
            thy[sx, h + 1 : h + g.ny + 1] * dv_p[sx, h + 1 : h + g.ny + 1]
            - thy[sx, h : h + g.ny] * dv_p[sx, h : h + g.ny]
        ) / g.dy
        if has_terrain:
            dm_p = _dz_center_from_faces(
                ctx.theta_wf * (m_now - forcing.m_s), g
            )[sx, sy]
        else:
            dm_p = 0.0
        dws = _dz_center_from_faces(ctx.theta_wf * forcing.w_s, g)[sx, sy] / jac3[sx, sy]
        theta_e = st.rhotheta[sx, sy] + dtau * (
            forcing.r_theta[sx, sy] - dfx_t - dfy_t - dm_p + dws
        )

        rho_be = beta * rho_e + (1.0 - beta) * st.rho[sx, sy]
        theta_be = beta * theta_e + (1.0 - beta) * st.rhotheta[sx, sy]
        pp_be = ctx.pc[sx, sy] + ctx.cp_lin[sx, sy] * theta_be
        dz_pp = (pp_be[:, :, 1:] - pp_be[:, :, :-1]) / g.dz_f[None, None, 1:-1]
        buoy = 0.5 * (
            (rho_be - ctx.rho_ref_hat[sx, sy])[:, :, 1:]
            + (rho_be - ctx.rho_ref_hat[sx, sy])[:, :, :-1]
        )
        rhs_e = (
            st.rhow[sx, sy, 1:-1]
            + dtau * (-dz_pp - c.G * buoy + forcing.r_w[sx, sy, 1:-1])
        )
        rhs = np.zeros((g.nxh, g.nyh, g.nz - 1), dtype=st.rho.dtype)
        rhs[sx, sy] = rhs_e
        if beta < 1.0:
            aw = helm.apply(st.rhow)
            rhs[sx, sy] += ((1.0 - beta) / beta) * (
                st.rhow[sx, sy, 1:-1] - aw[sx, sy]
            )
        w_new = helm.solve(rhs)
        w_beta = beta * w_new + (1.0 - beta) * st.rhow

        st.rho[sx, sy] = rho_e - dtau * _dz_center_from_faces(w_beta, g)[sx, sy] / jac3[sx, sy]
        st.rhotheta[sx, sy] = theta_e - dtau * _dz_center_from_faces(
            ctx.theta_wf * w_beta, g
        )[sx, sy] / jac3[sx, sy]
        st.rhow[sx, sy] = w_new[sx, sy]


# ------------------------------------------------------------------ tests
def _case(terrain):
    mountain = bell_mountain(height=400.0, half_width=5000.0, x0=12000.0,
                             y0=10000.0) if terrain else None
    g = make_grid(12, 10, 8, 2000.0, 2000.0, 10000.0, terrain=mountain)
    ref = make_reference_state(g, constant_stability_sounding())
    base = state_from_reference(g, ref, u0=10.0, v0=-4.0)
    # large perturbations and a long stage, so that a reordered operation
    # shows in the last bits of the state and is not rounded away
    r = np.random.default_rng(7)
    base.rhotheta += base.rho * r.uniform(0.0, 5.0, base.rho.shape)
    base.rhow[:, :, 1:-1] += r.normal(0.0, 1.0, base.rhow[:, :, 1:-1].shape)
    fill_halos_state(base)
    p_ref = eos_pressure(ref.rhotheta_c * g.jac[:, :, None], g)
    ctx = build_context(base, ref, p_ref)
    # a stage state unlike the base, so the perturbation fluxes are nonzero
    stage = base.copy()
    stage.rhou += r.normal(0.0, 5.0, stage.rhou.shape)
    stage.rhov += r.normal(0.0, 5.0, stage.rhov.shape)
    fill_halos_state(stage)
    forcing, _ = slow_tendencies(stage, ref, DynamicsConfig(), koren)
    return g, ref, base, ctx, forcing


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@pytest.mark.parametrize("terrain", [False, True], ids=["flat", "terrain"])
@pytest.mark.parametrize("beta", [0.55, 1.0])
@pytest.mark.parametrize("div_damp", [0.0, 0.1])
@pytest.mark.parametrize("nsub", [1, 3, 4])
def test_window_substep_is_bit_identical(terrain, beta, div_damp, nsub):
    g, ref, base, ctx, forcing = _case(terrain)
    assert g.is_flat() != terrain
    new = AcousticStepper(base, forcing, ctx, ref, 12.0, nsub, beta=beta,
                          div_damp=div_damp)
    old = FullExtentSubstep(base, forcing, ctx, 12.0, nsub, beta, div_damp)
    for n in range(nsub):
        fields = new.substep()
        old.substep()
        fill_halos_state(new.st, fields)
        fill_halos_state(old.st, fields)
        for name in base.prognostic_names():
            np.testing.assert_array_equal(
                _bits(new.st.get(name)), _bits(old.st.get(name)),
                err_msg=f"{name} differs bitwise after substep {n + 1}")
