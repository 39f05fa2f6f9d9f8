"""HE-VI acoustic (short) time step.

Each Runge-Kutta stage of the long step integrates the fast (acoustic and
gravity-wave) modes from the long-step start over the stage interval in
``n`` substeps of ``dtau`` (paper Sec. II: "horizontally explicit and
vertically implicit (HE-VI) scheme with a time-splitting method").

Per substep:

1. perturbation pressure ``pp = (p^t - p_ref) + Cp (Theta - Theta^t)``
   (linearized EOS about the long-step start, reference state subtracted
   so a balanced atmosphere is exactly stationary), with forward-in-time
   divergence damping ``pp_h = pp + damp * (pp - pp_prev)``;
2. explicit horizontal momentum update: metric-corrected horizontal
   gradient of ``pp_h`` plus the slow forcing;
3. explicit parts of the continuity and thermodynamic updates (updated
   horizontal fluxes, metric vertical fluxes, slow forcings);
4. vertically implicit update of W via the tridiagonal
   :class:`~repro.core.helmholtz.HelmholtzOperator` (trapezoidal
   off-centering ``beta``), then the implied vertical-flux updates of
   ``rho`` and ``rhotheta``.

The perturbation fluxes for ``rhotheta`` are taken relative to the RK
*stage* fluxes (whose full advective tendency sits in the slow forcing), so
that a uniform-theta atmosphere stays exactly uniform — the discrete
consistency property the tests assert.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import constants as c
from .advection import metric_flux_terms
from .grid import Grid
from ..obs.trace import span
from .helmholtz import HelmholtzOperator
from .pressure import eos_pressure, linearization_coefficient
from .reference import ReferenceState
from .state import State

__all__ = ["AcousticContext", "SlowForcing", "AcousticStepper",
           "acoustic_integrate", "build_context", "ACOUSTIC_FIELDS"]


@dataclass
class SlowForcing:
    """Slow-mode forcings and the stage fluxes they were computed with."""

    r_u: np.ndarray          # tendency of rhou (interior u faces valid)
    r_v: np.ndarray
    r_w: np.ndarray          # tendency of rhow (interior w faces valid)
    r_theta: np.ndarray      # tendency of rhotheta (interior cells valid)
    fx_s: np.ndarray         # stage-state mass fluxes
    fy_s: np.ndarray
    w_s: np.ndarray          # stage-state rhow (boundary faces zero)
    m_s: np.ndarray          # stage-state metric vertical flux


@dataclass
class AcousticContext:
    """Linearization data frozen at the long-step start ``t``."""

    grid: Grid
    p_t: np.ndarray              # full pressure at t
    cp_lin: np.ndarray           # p' = cp_lin * (G rho theta)'
    pc: np.ndarray               # p_t - p_ref - cp_lin * rhotheta_t
    rhotheta_t: np.ndarray
    rho_ref_hat: np.ndarray      # G * rho_ref (buoyancy reference)
    theta_xf: np.ndarray         # theta^t at u faces
    theta_yf: np.ndarray         # theta^t at v faces
    theta_wf: np.ndarray         # theta^t at w faces (boundary faces too)


def build_context(state: State, ref: ReferenceState, p_ref: np.ndarray) -> AcousticContext:
    """Precompute the acoustic linearization at the long-step start."""
    g = state.grid
    p_t = eos_pressure(state.rhotheta, g)
    cp_lin = linearization_coefficient(p_t, state.rhotheta)
    theta = state.rhotheta / state.rho

    theta_xf = np.empty(g.shape_u, dtype=theta.dtype)
    theta_xf[1:-1] = 0.5 * (theta[1:] + theta[:-1])
    theta_xf[0] = theta[0]
    theta_xf[-1] = theta[-1]

    theta_yf = np.empty(g.shape_v, dtype=theta.dtype)
    theta_yf[:, 1:-1] = 0.5 * (theta[:, 1:] + theta[:, :-1])
    theta_yf[:, 0] = theta[:, 0]
    theta_yf[:, -1] = theta[:, -1]

    theta_wf = np.empty(g.shape_w, dtype=theta.dtype)
    theta_wf[:, :, 1:-1] = 0.5 * (theta[:, :, 1:] + theta[:, :, :-1])
    theta_wf[:, :, 0] = theta[:, :, 0]
    theta_wf[:, :, -1] = theta[:, :, -1]

    return AcousticContext(
        grid=g,
        p_t=p_t,
        cp_lin=cp_lin,
        pc=p_t - p_ref - cp_lin * state.rhotheta,
        rhotheta_t=state.rhotheta.copy(),
        rho_ref_hat=ref.rho_c * g.jac[:, :, None],
        theta_xf=theta_xf,
        theta_yf=theta_yf,
        theta_wf=theta_wf,
    )


def _dpp_dz_centers(pp: np.ndarray, jac3: np.ndarray, grid: Grid) -> np.ndarray:
    """(1/G) d(pp)/dx3 at cell centers (= physical d pp/dz), centered in the
    interior, one-sided at the bottom/top cells; ``jac3`` is ``G`` over the
    columns of ``pp``."""
    nz = grid.nz
    out = np.empty_like(pp)
    span = (grid.z_c[2:] - grid.z_c[:-2])[None, None, :]
    out[:, :, 1:-1] = (pp[:, :, 2:] - pp[:, :, :-2]) / span
    out[:, :, 0] = (pp[:, :, 1] - pp[:, :, 0]) / (grid.z_c[1] - grid.z_c[0])
    out[:, :, nz - 1] = (pp[:, :, -1] - pp[:, :, -2]) / (grid.z_c[-1] - grid.z_c[-2])
    out /= jac3
    return out


def _dz_center_from_faces(flux_w: np.ndarray, grid: Grid) -> np.ndarray:
    """(d/dx3) of a w-face flux, at centers: (F[k+1] - F[k]) / dz_c[k]."""
    return (flux_w[:, :, 1:] - flux_w[:, :, :-1]) / grid.dz_c[None, None, :]


#: prognostic fields refreshed after every acoustic substep — the
#: variables the paper exchanges in the short time step (Sec. V-A)
ACOUSTIC_FIELDS = ["rho", "rhou", "rhov", "rhow", "rhotheta"]


class AcousticStepper:
    """Resumable HE-VI integrator: one object per RK stage.

    ``substep()`` advances one acoustic substep *without* touching halos;
    the caller must refresh halos of :data:`ACOUSTIC_FIELDS` between
    substeps (periodic fill or multi-GPU exchange).  ``finish()`` applies
    the slow moisture tendencies and returns the stage state.  The
    single-domain :func:`acoustic_integrate` and the distributed driver
    both run on this class, which is what makes the decomposed run
    bit-identical to the single-domain run.

    A substep works on interior windows only: interior cells, interior
    u/v faces, and the perturbation pressure one cell beyond them.  Every
    element it writes sees the operands and operation order of the
    full-extent formulas, so the result does not depend on the halos
    beyond what the stencils read.  Everything fixed over the stage is
    formed once, here.
    """

    def __init__(
        self,
        base: State,
        forcing: SlowForcing,
        ctx: AcousticContext,
        ref: ReferenceState,
        dts: float,
        nsub: int,
        *,
        beta: float = 0.55,
        div_damp: float = 0.1,
    ):
        self.base = base
        self.forcing = forcing
        self.ctx = ctx
        self.ref = ref
        self.dts = dts
        self.nsub = nsub
        self.beta = beta
        self.div_damp = div_damp
        g = ctx.grid
        self.g = g
        self.dtau = dts / nsub
        self.st = base.copy()
        self.st.time = base.time + dts
        h = g.halo
        sx, sy = g.isl
        #: interior u faces, interior v faces, and the window of the
        #: perturbation pressure (one cell beyond the interior in x and y)
        self.xf = slice(h, h + g.nx + 1)
        self.yf = slice(h, h + g.ny + 1)
        self.pw = (slice(h - 1, h + g.nx + 1), slice(h - 1, h + g.ny + 1))
        self.helm = HelmholtzOperator(g, ctx.theta_wf, ctx.cp_lin, self.dtau,
                                      beta, cols=(sx, sy))
        self.jac3 = g.jac[sx, sy, None]
        self.pp_prev: np.ndarray | None = None
        self.has_terrain = not g.is_flat()
        self._done = 0

        # stage invariants, on the windows the substep reads
        self.pc_w = ctx.pc[self.pw]
        self.cp_w = ctx.cp_lin[self.pw]
        self.neg_jac_u = -g.jac_u[self.xf, sy, None]
        self.neg_jac_v = -g.jac_v[sx, self.yf, None]
        self.theta_wi = ctx.theta_wf[sx, sy]
        # explicit stage-flux vertical theta transport is inside r_theta;
        # add back the w_s part that the implicit operator will replace
        self.dws = _dz_center_from_faces(
            self.theta_wi * forcing.w_s[sx, sy], g) / self.jac3
        if self.has_terrain:
            self.jac3_w = g.jac[self.pw][:, :, None]
            self.terrain_u = (g.jac_u[self.xf, sy, None]
                              * g.dzsdx_u[self.xf, sy, None]
                              * g.decay_c[None, None, :])
            self.terrain_v = (g.jac_v[sx, self.yf, None]
                              * g.dzsdy_v[sx, self.yf, None]
                              * g.decay_c[None, None, :])
            self.m_si = forcing.m_s[sx, sy]

    def _metric_flux(self, ru: np.ndarray, rv: np.ndarray) -> np.ndarray:
        """Metric part of the contravariant vertical mass flux (zero rhow)
        on the interior columns, from the interior-face windows ``ru``/``rv``
        of rhou/rhov."""
        g = self.g
        sx, sy = g.isl
        out = np.zeros((g.nx, g.ny, g.nz + 1), dtype=ru.dtype)
        # 0.0 - x, not -x: contravariant_mass_flux_w subtracts from the +0.0
        # of a zero rhow, and that fixes the sign of a zero result
        out[:, :, 1:-1] = 0.0 - metric_flux_terms(
            ru, rv, g.jac_u[self.xf, sy], g.dzsdx_u[self.xf, sy],
            g.jac_v[sx, self.yf], g.dzsdy_v[sx, self.yf], g.decay_f)
        return out

    def substep(self) -> list[str]:
        """One acoustic substep; returns the field names whose halos are
        now stale and must be exchanged by the caller."""
        if self._done >= self.nsub:
            raise RuntimeError("all substeps already taken")
        with span("acoustic_substep", cat="phase"):
            return self._substep_impl()

    def _substep_impl(self) -> list[str]:
        ctx = self.ctx
        forcing = self.forcing
        st = self.st
        g = self.g
        sx, sy = g.isl
        xf, yf = self.xf, self.yf
        dtau = self.dtau
        beta = self.beta
        jac3 = self.jac3
        has_terrain = self.has_terrain
        helm = self.helm
        pp_prev = self.pp_prev
        div_damp = self.div_damp

        # (1) perturbation pressure ------------------------------------
        pp = self.pc_w + self.cp_w * st.rhotheta[self.pw]
        if pp_prev is not None and div_damp > 0.0:
            pp_h = pp + div_damp * (pp - pp_prev)
        else:
            pp_h = pp
        self.pp_prev = pp

        # (2) horizontal momentum (explicit) ---------------------------
        grad_x = (pp_h[1:, 1:-1] - pp_h[:-1, 1:-1]) / g.dx
        pgf_u = self.neg_jac_u * grad_x
        if has_terrain:
            dppdz = _dpp_dz_centers(pp_h, self.jac3_w, g)
            dppdz_u = 0.5 * (dppdz[1:, 1:-1] + dppdz[:-1, 1:-1])
            pgf_u += self.terrain_u * dppdz_u
        st.rhou[xf, sy] += dtau * (pgf_u + forcing.r_u[xf, sy])

        grad_y = (pp_h[1:-1, 1:] - pp_h[1:-1, :-1]) / g.dy
        pgf_v = self.neg_jac_v * grad_y
        if has_terrain:
            dppdz_v = 0.5 * (dppdz[1:-1, 1:] + dppdz[1:-1, :-1])
            pgf_v += self.terrain_v * dppdz_v
        st.rhov[sx, yf] += dtau * (pgf_v + forcing.r_v[sx, yf])

        # (3) explicit parts of continuity / thermodynamics ------------
        # horizontal divergence of the updated mass fluxes
        ru = st.rhou[xf, sy]
        rv = st.rhov[sx, yf]
        dfx = (ru[1:] - ru[:-1]) / g.dx
        dfy = (rv[:, 1:] - rv[:, :-1]) / g.dy

        if has_terrain:
            m_now = self._metric_flux(ru, rv)
            dm = _dz_center_from_faces(m_now, g)
        else:
            dm = 0.0
        rho_e = st.rho[sx, sy] - dtau * (dfx + dfy + dm)

        # theta: perturbation fluxes relative to the stage fluxes
        tx = ctx.theta_xf[xf, sy] * (ru - forcing.fx_s[xf, sy])
        ty = ctx.theta_yf[sx, yf] * (rv - forcing.fy_s[sx, yf])
        dfx_t = (tx[1:] - tx[:-1]) / g.dx
        dfy_t = (ty[:, 1:] - ty[:, :-1]) / g.dy
        if has_terrain:
            dm_p = _dz_center_from_faces(self.theta_wi * (m_now - self.m_si), g)
        else:
            dm_p = 0.0
        theta_e = st.rhotheta[sx, sy] + dtau * (
            forcing.r_theta[sx, sy] - dfx_t - dfy_t - dm_p + self.dws
        )

        # (4) vertical implicit solve ----------------------------------
        rho_be = beta * rho_e + (1.0 - beta) * st.rho[sx, sy]
        theta_be = beta * theta_e + (1.0 - beta) * st.rhotheta[sx, sy]

        pp_be = ctx.pc[sx, sy] + ctx.cp_lin[sx, sy] * theta_be
        dz_pp = (pp_be[:, :, 1:] - pp_be[:, :, :-1]) / g.dz_f[None, None, 1:-1]
        drho = rho_be - ctx.rho_ref_hat[sx, sy]
        buoy = 0.5 * (drho[:, :, 1:] + drho[:, :, :-1])
        w_now = st.rhow[sx, sy]
        rhs = (
            w_now[:, :, 1:-1]
            + dtau * (-dz_pp - c.G * buoy + forcing.r_w[sx, sy, 1:-1])
        )
        # trapezoidal correction from the known W^n
        if beta < 1.0:
            rhs += ((1.0 - beta) / beta) * (w_now[:, :, 1:-1] - helm.apply(w_now))
        with span("helmholtz_solve", cat="phase"):
            w_new = helm.solve(rhs)
        w_beta = beta * w_new + (1.0 - beta) * w_now

        # implied vertical-flux updates
        st.rho[sx, sy] = rho_e - dtau * _dz_center_from_faces(w_beta, g) / jac3
        st.rhotheta[sx, sy] = theta_e - dtau * _dz_center_from_faces(
            self.theta_wi * w_beta, g
        ) / jac3
        st.rhow[sx, sy] = w_new

        self._done += 1
        return list(ACOUSTIC_FIELDS)

    def finish(self, q_tendencies: dict[str, np.ndarray | None] | None = None
               ) -> list[str]:
        """Apply the slow moisture tendencies over the full stage interval
        (moisture is a slow mode); returns the fields needing exchange,
        every species named in ``q_tendencies``.  A ``None`` tendency marks
        an inactive species, whose stage copy of its all-+0.0 start value
        already is its stage value."""
        if self._done != self.nsub:
            raise RuntimeError(f"finish() after {self._done}/{self.nsub} substeps")
        if not q_tendencies:
            return []
        sx, sy = self.g.isl
        for name, tend in q_tendencies.items():
            if tend is None:
                continue
            arr = self.st.q[name]
            arr[sx, sy] = self.base.q[name][sx, sy] + self.dts * tend[sx, sy]
        return list(q_tendencies.keys())


def acoustic_integrate(
    base: State,
    forcing: SlowForcing,
    ctx: AcousticContext,
    ref: ReferenceState,
    dts: float,
    nsub: int,
    *,
    beta: float = 0.55,
    div_damp: float = 0.1,
    exchange: Callable[[State, list[str]], None],
    q_tendencies: dict[str, np.ndarray | None] | None = None,
) -> State:
    """Single-domain driver over :class:`AcousticStepper`: integrate the
    fast modes from ``base`` over ``dts``, refreshing halos after each
    substep (the paper's short-time-step communications)."""
    stepper = AcousticStepper(
        base, forcing, ctx, ref, dts, nsub, beta=beta, div_damp=div_damp
    )
    for _ in range(nsub):
        fields = stepper.substep()
        exchange(stepper.st, fields)
    q_fields = stepper.finish(q_tendencies)
    if q_fields:
        exchange(stepper.st, q_fields)
    return stepper.st
