"""Reference implementations kept as oracles for the vectorized code.

Each function here is a slower, literal transcription of a formula that the
package evaluates in a faster form. Tests compare the two.
"""

import numpy as np

from lis_uplink.asymptotics import _MomentParts
from lis_uplink.links import UnitChannelStats, sample_unit_channels


def moment_parts(stats: UnitChannelStats, pilot_snrs: np.ndarray) -> _MomentParts:
    """Lemma 1-3 ingredients of unit (n, k), one ``einsum`` per sum and one
    pass per contaminator for the Lemma 2 cross term."""
    geom = stats.geom
    n, k = geom.n, geom.k
    N, K = geom.p_los.shape
    M = geom.hlos.shape[2]
    hlos_own = geom.hlos[n, k]
    rho_p_own = float(pilot_snrs[n, k])

    sqrt_ratio = np.sqrt(pilot_snrs[:, k] / rho_p_own)
    sqrt_ratio[n] = 0.0
    ratio = sqrt_ratio**2
    cont_w = ratio * stats.nlos_var[:, k]

    mu_e = np.einsum("l,lm->m", sqrt_ratio, stats.hbar[:, k])
    q_bar = hlos_own + mu_e

    roots_k = stats.roots[:, k]
    rowpow = np.einsum("lmp->lm", np.abs(roots_k) ** 2)

    mu_x = complex(np.einsum("m,m->", np.conj(mu_e), hlos_own))
    proj_x = np.einsum("lmp,m->lp", np.conj(roots_k), hlos_own)
    var_x_const = float(np.einsum("l,lp->", cont_w, np.abs(proj_x) ** 2))
    var_x_noise = geom.own_power / rho_p_own

    mu_y = np.einsum("m,ljm->lj", np.conj(q_bar), stats.hbar)
    hbar_norm2 = np.einsum("ljm->lj", np.abs(stats.hbar) ** 2)

    proj_el = np.einsum("cmp,ljm->cljp", np.conj(roots_k), stats.hbar)
    el_const = np.einsum("c,cljp->lj", cont_w, np.abs(proj_el) ** 2)
    el_noise = hbar_norm2 / rho_p_own

    proj_en = np.einsum("m,ljmp->ljp", np.conj(q_bar), stats.roots)
    term_a = np.einsum("ljp->lj", np.abs(proj_en) ** 2)
    term_b = np.zeros((N, K))
    for c in range(N):
        if cont_w[c] == 0.0:
            continue
        cross = np.einsum("mp,ljmq->ljpq", np.conj(roots_k[c]), stats.roots)
        term_b += cont_w[c] * np.einsum("ljpq->lj", np.abs(cross) ** 2)
    rootfrob = np.einsum("ljmp->lj", np.abs(stats.roots) ** 2)
    en_const = stats.nlos_var * (term_a + term_b)
    en_noise = stats.nlos_var * rootfrob / rho_p_own

    var_y_const = el_const + en_const
    var_y_noise = el_noise + en_noise
    mu_y[n, k] = 0.0
    var_y_const[n, k] = 0.0
    var_y_noise[n, k] = 0.0

    var_z_const_m = np.einsum("c,cm->m", cont_w, rowpow)
    var_z_noise_m = 1.0 / rho_p_own

    return _MomentParts(
        n=n,
        k=k,
        M=M,
        mu_x=mu_x,
        var_x_const=var_x_const,
        var_x_noise=var_x_noise,
        mu_y=mu_y,
        var_y_const=var_y_const,
        var_y_noise=var_y_noise,
        q_bar=q_bar,
        var_z_const_m=var_z_const_m,
        var_z_noise_m=var_z_noise_m,
        beta2_sum=geom.own_power,
        rho_p_own=rho_p_own,
    )


def los_phase(d: np.ndarray, lam: float) -> np.ndarray:
    """LOS phase exp(-2j pi d / lambda) in its complex-arithmetic form."""
    return np.exp(-2j * np.pi * d / lam)


def kernel_products(stats: UnitChannelStats, g: np.ndarray, w: np.ndarray, pilot_snrs: np.ndarray):
    """Sampled inner products of ``BlockKernel`` for unit (n, k), one
    ``einsum`` each: A = u^H h_lj, C = w^H h_lj and A_pure = h_los^H h_lj,
    with u the noise-free LS filter."""
    geom = stats.geom
    n, k = geom.n, geom.k
    ch = sample_unit_channels(stats, g)
    hlos = geom.hlos[n, k]
    sqrt_ratio = np.sqrt(pilot_snrs[:, k] / pilot_snrs[n, k])
    sqrt_ratio[n] = 0.0
    u = hlos + np.einsum("l,lm->m", sqrt_ratio, ch[:, k])
    A = np.einsum("m,ljm->lj", np.conj(u), ch)
    C = np.einsum("m,ljm->lj", np.conj(w), ch)
    A_pure = np.einsum("m,ljm->lj", np.conj(hlos), ch)
    return A, C, A_pure
