"""Reference implementation of the product-model E_p integral, kept as a
test oracle.

This is the dense form of what ``energy._product_ep`` computes from 1-D
factor moments: for every tensor term c * m1 (x) m2 of the measure it
sums m1_i m2_j max(-u_i - v_j, 0)^p over all pairs of grid nodes and
atoms, in blocks of rows.  Only the measures come from the package; the
integral shares no code with ``energy``.
"""

import numpy as np

from ma_lab import ma

BLOCK = 5_000_000  # entries per block of the dense weight matrix


def _pieces(m, off):
    ll, lr = off.limit_values()
    out = [(m.density, -off.offset)]
    for tag, mass in m.atoms:
        lim = ll if tag == ma.FIXED_POINT else lr
        out.append((np.array([mass]), np.array([-lim])))
    return out


def tensor_weighted(m1, m2, u, v, p):
    """sum over (i, j) of m1_i m2_j (-u_i - v_j)^p, atoms included."""
    total = 0.0
    for mass1, w1 in _pieces(m1, u):
        for mass2, w2 in _pieces(m2, v):
            if np.isinf(w1).any() or np.isinf(w2).any():
                rel = (np.isinf(w1) & (mass1 > 0)).any() or \
                      (np.isinf(w2) & (mass2 > 0)).any()
                if rel:
                    return float(np.inf)
            chunk = max(1, BLOCK // max(1, w2.size))
            for a in range(0, w1.size, chunk):
                b = min(w1.size, a + chunk)
                w = np.maximum(w1[a:b, None] + w2[None, :], 0.0) ** p
                total += float(mass1[a:b] @ w @ mass2)
    return total


def reference_product_ep(model, phi, p, j):
    """Integral of (-u-v)^p against omega^{2-j} ^ omega_phi^j, densely."""
    u, v = phi
    meas = (ma.ma_measure(model, None), ma.mixed_measure(model, phi, None),
            ma.ma_measure(model, phi))[j]
    return sum(c * tensor_weighted(m1, m2, u, v, p) for c, m1, m2 in meas.factors)
