import numpy as np
import pytest

from matchfrontier.prefs import BOTTOM, parse_profile

# 3x3 market used throughout: w1: f2,f3,f1; w2: f2,f1,f3; w3: f1,f3,f2;
# f1: w1,w2,w3; f2: w2,w3,w1; f3: w3,w1,w2 (everyone acceptable)
EXAMPLE1_TEXT = ("f2,f3,f1,_;f2,f1,f3,_;f1,f3,f2,_"
                 "|w1,w2,w3,_;w2,w3,w1,_;w3,w1,w2,_")

# exact RSD marginals for that market, averaged over all 720 priority orders
RSD_EXPECTED = np.array([[11 / 24, 1 / 4, 7 / 24],
                         [1 / 6, 3 / 4, 1 / 12],
                         [3 / 8, 0.0, 5 / 8]])


@pytest.fixture
def example1():
    return parse_profile(EXAMPLE1_TEXT)


@pytest.fixture
def rsd_expected():
    return RSD_EXPECTED.copy()


# The per-element encoder and per-pair mask loops the vectorized encoder
# replaced, kept as the reference it must reproduce bit for bit.

def reference_encode_order(order, size):
    order.validate(size)
    u = len(order.unacceptable())
    row = np.empty(size, dtype=np.float64)
    t = 0
    for x in order.ranking:
        if x == BOTTOM:
            continue
        if order.is_acceptable(x):
            row[x] = (size - t - u) / size
        else:
            row[x] = (size - 1 - t - u) / size
        t += 1
    return row


def reference_encode(profile):
    n, m = profile.n, profile.m
    p = np.empty((n, m), dtype=np.float64)
    q = np.empty((n, m), dtype=np.float64)
    for w, order in enumerate(profile.workers):
        p[w, :] = reference_encode_order(order, m)
    for f, order in enumerate(profile.firms):
        q[:, f] = reference_encode_order(order, n)
    return p, q


def reference_build_mask(profile):
    n, m = profile.n, profile.m
    beta = np.ones((n + 1, m + 1))
    for w in range(n):
        for f in range(m):
            if not (profile.workers[w].is_acceptable(f)
                    and profile.firms[f].is_acceptable(w)):
                beta[w, f] = 0.0
    return beta


def reference_stv_pair(r, enc, w, f):
    """Stability violation of one (worker, firm) pair of marginals r (a
    RandomizedMatching) under encodings enc: the product of the firm-side
    and worker-side envy masses, the per-pair formula `metrics.stv_terms`
    vectorizes."""
    g_bot_f = 1.0 - r.r[:, f].sum()
    g_w_bot = 1.0 - r.r[w, :].sum()
    firm_side = (r.r[:, f] * np.maximum(enc.q[w, f] - enc.q[:, f], 0.0)).sum() \
        + g_bot_f * max(enc.q[w, f], 0.0)
    worker_side = (r.r[w, :] * np.maximum(enc.p[w, f] - enc.p[w, :], 0.0)).sum() \
        + g_w_bot * max(enc.p[w, f], 0.0)
    return firm_side * worker_side
