"""Explicit Runge-Kutta integration with step-size control and dense output.

The method is ``DOP853``, named as in SciPy's ``solve_ivp``: the
Dormand-Prince 8(5,3) pair, stepping with the eighth-order formula, with
its seventh-degree dense output, which costs three extra stages per
interpolated step (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., 1993, Sec. II.10, and their Fortran
code DOP853).

The first step follows Hairer, Norsett & Wanner Sec. II.4; the error is
measured in the root-mean-square norm scaled by ``atol + rtol |y|``,
blending the fifth- and third-order estimates, and each step is resized
by ``0.9 err^(-1/8)`` within ``[0.2, 10]``, never growing right after a
rejection.  Every coefficient, constant and numpy expression is the one
``solve_ivp`` evaluates, so for the same options a run gives the same
samples bit for bit and the same evaluation count (``tests/test_rk.py``
checks this against SciPy).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailed

EPS = np.finfo(float).eps

SAFETY = 0.9  # applied to the asymptotically optimal step
MIN_FACTOR = 0.2  # largest shrink of a step
MAX_FACTOR = 10  # largest growth of a step


def _dop853():
    """The coefficients: 12 stepping stages, the end slope and 3
    dense-output stages.

    Row ``i`` of the stage matrix lists its nonzero entries by column;
    row 12 holds the solution weights.  Returns the stepping tableau
    ``c, a, b``, the fifth- and third-order error weights ``e5, e3`` over
    the stages plus the end slope, the interpolant coefficients ``d`` and
    the extra stages' ``a`` rows and nodes.
    """
    c = np.array([
        0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
        0.118350341907227396726757197510, 0.281649658092772603273242802490,
        0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
        0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
        1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
    ])
    rows = {
        1: {0: 5.26001519587677318785587544488e-2},
        2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
        3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
        4: {
            0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
            3: 9.24834003261792003115737966543e-1,
        },
        5: {
            0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
            4: 1.25467687566822425016691814123e-1,
        },
        6: {
            0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
            4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2,
        },
        7: {
            0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
            4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
            6: 8.27378916381402288758473766002e-3,
        },
        8: {
            0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
            4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
            6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1,
        },
        9: {
            0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
            4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
            6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
            8: -2.03312017085086261358222928593e-2,
        },
        10: {
            0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
            4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
            6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
            8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022,
        },
        11: {
            0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
            4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
            6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
            8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
            10: 6.43392746015763530355970484046e-1,
        },
        12: {
            0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
            6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
            8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
            10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2,
        },
        13: {
            0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
            7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
            9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
            11: 7.56789766054569976138603589584e-3, 12: -8.298e-3,
        },
        14: {
            0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
            6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
            10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
            12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1,
        },
        15: {
            0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
            6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
            8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
            13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138,
        },
    }
    a = np.zeros((16, 16))
    for i, row in rows.items():
        for j, value in row.items():
            a[i, j] = value
    b = a[12, :12]

    # the fifth-order estimate, and the third-order one as b - bhh
    e5 = np.zeros(13)
    for j, value in {
        0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
        6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
        8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
        10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
    }.items():
        e5[j] = value
    e3 = np.zeros(13)
    e3[:-1] = b
    e3[0] -= 0.244094488188976377952755905512
    e3[8] -= 0.733846688281611857341361741547
    e3[11] -= 0.220588235294117647058823529412e-1

    # interpolant coefficients 4..7 over the 16 stages (1..3 are closed form)
    d = np.zeros((4, 16))
    for i, row in enumerate([
        {
            0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
            6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
            8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
            10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
            12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
            14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1,
        },
        {
            0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
            6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
            8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
            10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
            12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
            14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2,
        },
        {
            0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
            6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
            8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
            10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
            12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
            14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2,
        },
        {
            0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
            6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
            8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
            10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
            12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
            14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3,
        },
    ]):
        for j, value in row.items():
            d[i, j] = value
    return c[:12], a[:12, :12], b, e5, e3, d, a[13:], c[13:]


C, A, B, E5, E3, D, A_EXTRA, C_EXTRA = _dop853()
STAGES = len(B)
ERROR_ORDER = 7  # of the estimate that sizes the steps


@dataclass
class Solution:
    """Samples ``y[:, i]`` at times ``t[i]``; ``status`` 0 reached the end
    of the span, 1 halted at the event; ``nfev`` counts right-hand sides."""

    t: np.ndarray
    y: np.ndarray
    status: int
    nfev: int


def solve(fun, t_span, y0, t_eval, event, rtol, atol, max_step) -> Solution:
    """Integrate ``y' = fun(t, y)`` forward over ``t_span`` by DOP853.

    The solution is sampled from each step's dense output at the sorted
    times ``t_eval``, which start at ``t_span[0]`` and end within the
    span.  When ``event(t, y)`` reaches zero or changes sign over a step,
    the run halts at its root, found by bisection on the dense output,
    and keeps the samples up to it.  ``rtol`` is raised to ``100 eps``
    with a warning, as SciPy does.  Raises :class:`IntegrationFailed`
    when the step size falls below the spacing of floats at the current
    time.
    """
    t, t_bound = map(float, t_span)
    if not t_bound > t:
        raise ValueError("t_span must run forward")
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    if rtol < 100 * EPS:
        warnings.warn(f"rtol is too small, using {100 * EPS}", stacklevel=2)
        rtol = np.maximum(rtol, 100 * EPS)
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValueError("y0 must be a vector of finite numbers")
    atol = np.asarray(atol)
    if atol.ndim > 0 and atol.shape != y.shape:
        raise ValueError("atol has the wrong shape")
    if np.any(atol < 0):
        raise ValueError("atol must be non-negative")

    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    n = y.size
    # the stages, the end slope and the dense-output stages
    k = np.empty((STAGES + 1 + len(C_EXTRA), n))
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, t_bound, max_step, f, rtol, atol)
    exponent = -1 / (ERROR_ORDER + 1)
    t_eval = np.asarray(t_eval)
    g = event(t, y)
    kept, samples, status, i = [], [], None, 0
    while status is None:
        t_old, y_old = t, y
        # -- one accepted step, shrinking on rejection ---------------------
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailed(
                    f"integration failed at t = {t:.9g}: the required step size is "
                    "below the spacing of floats there (is the right-hand side finite?)"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _stages(rhs, k, t, y, f, h)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _error_norm(k[:STAGES + 1], h, scale)
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR, SAFETY * error ** exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** exponent)
            rejected = True
        t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0
        # -- event and samples from the dense output ----------------------
        dense = None
        g_new = event(t, y)
        if (g <= 0 and g_new >= 0) or (g >= 0 and g_new <= 0):
            dense = _dense_output(rhs, k, t_old, t, y_old, y, f)
            t = _bisect(lambda s: event(s, dense(np.array([s]))[:, 0]), t_old, t)
            status = 1
        g = g_new
        stop = np.searchsorted(t_eval, t, side="right")
        if stop > i:
            if dense is None:
                dense = _dense_output(rhs, k, t_old, t, y_old, y, f)
            kept.append(t_eval[i:stop])
            samples.append(dense(t_eval[i:stop]))
            i = stop
    return Solution(np.hstack(kept), np.hstack(samples), status, nfev)


def _initial_step(rhs, t0, y0, t_bound, max_step, f0, rtol, atol):
    """Starting step size, Hairer, Norsett & Wanner Sec. II.4."""
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ORDER + 1))
    return min(100 * h0, h1, interval, max_step)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _stages(rhs, k, t, y, f, h):
    """One step of the pair: the stages into ``k``, the new state and slope."""
    k[0] = f
    for s in range(1, STAGES):
        dy = np.dot(k[:s].T, A[s, :s]) * h
        k[s] = rhs(t + C[s] * h, y + dy)
    y_new = y + h * np.dot(k[:STAGES].T, B)
    f_new = rhs(t + h, y_new)
    k[STAGES] = f_new
    return y_new, f_new


def _error_norm(k, h, scale):
    """Scaled RMS norm of the local error estimate, blending the fifth-
    and third-order estimates (Hairer et al.); below 1 accepts."""
    err5 = np.linalg.norm(np.dot(k.T, E5) / scale) ** 2
    err3 = np.linalg.norm(np.dot(k.T, E3) / scale) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))


def _dense_output(rhs, k, t_old, t, y_old, y, f):
    """The step's interpolant: ``dense(times)`` gives a ``(n, len(times))`` array."""
    h = t - t_old
    for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=STAGES + 1):
        dy = np.dot(k[:s].T, a[:s]) * h
        k[s] = rhs(t_old + c * h, y_old + dy)
    f_old, delta = k[0], y - y_old
    coeffs = np.empty((7, len(y)))
    coeffs[0] = delta
    coeffs[1] = h * f_old - delta
    coeffs[2] = 2 * delta - h * (f + f_old)
    coeffs[3:] = h * np.dot(D, k)

    def dense(times):
        x = ((times - t_old) / h)[:, None]
        out = np.zeros((len(x), len(y_old)))
        # nested form in x and 1 - x, innermost coefficient first
        for j, row in enumerate(reversed(coeffs)):
            out += row
            out *= x if j % 2 == 0 else 1 - x
        out += y_old
        return out.T

    return dense


def _bisect(g, lo, hi):
    """A root of ``g`` in ``[lo, hi]``, whose ends differ in sign or vanish.

    Returns the end of the final bracket on the side of ``lo``, once the
    bracket is within ``4 eps`` relative, as SciPy's event tolerance.
    """
    g_lo = g(lo)
    if g_lo == 0:
        return lo
    while hi - lo > 4 * EPS * (1 + abs(hi)):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    return lo
