"""An independent reference integrator for the transport tests: DOP853.

Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett and Wanner, Solving Ordinary
Differential Equations I, sec. II.10): the nodes C and the rows A of its 12
stages, the 8th-order weights B, and the weights E5 and E3 of its 5th- and
3rd-order error estimates; the 13th (FSAL) stage of the published pair weighs
nothing in either estimate and is not computed.  The literals are copied from
SciPy's scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause license;
Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers), and E3 is
formed the same way as there, as B minus three corrections.  Each row of A and
each weight vector is a (1, s) matrix, for the stage sums over the (s,
fiber*cols) stack of stage derivatives.
"""

import numpy as np

from tractor_forge import transport as tp

C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0
])
A = [np.array([row]) for row in (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)]
B = np.array([[
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2
]])
E3 = B - np.array([[
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1
]])
E5 = np.array([[
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1
]])


def _segment(oracle, seg, v, tol):
    """DOP853 on one segment; each step's twelve connection matrices come
    from one `omega_nodes` call, since Omega depends only on t."""
    t, h, min_h = 0.0, 0.1, 1e-10
    scale_ref = max(1.0, float(np.max(np.abs(v))))
    stages = len(C)
    while t < 1.0:
        h = min(h, 1.0 - t)
        omegas = oracle.omega_nodes(*seg.nodes([t + c * h for c in C]))
        ks = np.empty((stages,) + v.shape)
        flat = ks.reshape(stages, -1)
        for stage in range(stages):
            y = v + h * (A[stage - 1] @ flat[:stage]).reshape(v.shape) if stage else v
            ks[stage] = -(omegas[stage] @ y)
        v8 = v + h * (B @ flat).reshape(v.shape)
        e5 = float(np.max(np.abs(E5 @ flat))) / scale_ref
        e3 = float(np.max(np.abs(E3 @ flat))) / scale_ref
        denom = e5 * e5 + 0.01 * e3 * e3
        err = h * e5 * e5 / denom ** 0.5 if denom > 0 else 0.0
        if err <= tol or h <= min_h:
            if h <= min_h and err > tol:
                raise tp.TransportError(f"step underflow at t={t:.6f}")
            t += h
            v = v8
            scale_ref = max(scale_ref, float(np.max(np.abs(v))))
        factor = 0.9 * (tol / err) ** 0.125 if err > 0 else 5.0
        h = max(min_h, h * min(5.0, max(0.2, factor)))
    return v


def transport(oracle, path, v0, tol):
    """The transport of v0 along `path`, segment by segment."""
    v = np.asarray(v0, dtype=float).copy()
    for seg in path.segments:
        v = _segment(oracle, seg, v, tol)
    return v
