"""Independent oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own backward passes and data
structures: gradients come from central finite differences on the forward
pass alone, distributions are checked by brute-force counting, and the
geometry queries scan every segment.
"""

import math

import numpy as np

from racerl.geometry import RANGEFINDER_ANGLES, RANGEFINDER_COUNT, RANGEFINDER_MAX


def finite_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def max_relative_error(analytic, numeric, floor=1e-6):
    """max |a - n| / max(|a|, |n|, floor) over all entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_network_gradients(params, loss_fn, h=1e-5):
    """Compare d(loss)/d(param) against finite differences for every array.

    params: list of ndarrays mutated in place by the probe; loss_fn() re-runs
    the forward pass and returns (scalar loss, analytic grads list).
    Returns the max relative error across all parameters.
    """
    _, analytic = loss_fn()
    worst = 0.0
    for p, g in zip(params, analytic):
        def probe(arr, _p=p):
            _p[...] = arr
            return loss_fn()[0]

        base = p.copy()
        numeric = finite_difference_grad(probe, base.copy(), h=h)
        p[...] = base
        worst = max(worst, max_relative_error(g, numeric))
    return worst


def empirical_frequencies(draws, n_bins):
    counts = np.bincount(np.asarray(draws), minlength=n_bins).astype(float)
    return counts / counts.sum()


def _segments(points):
    seg = np.roll(points, -1, axis=0) - points
    return seg, np.hypot(seg[:, 0], seg[:, 1])


def brute_project(polyline, point):
    """Polyline.project by a scan of every segment, as the index-free code did it."""
    seg, seg_len = _segments(polyline.points)
    seg_dir = seg / seg_len[:, None]
    p = np.asarray(point, dtype=np.float64)
    ap = p - polyline.points
    t = np.clip(np.einsum("ij,ij->i", ap, seg) / seg_len**2, 0.0, 1.0)
    proj = polyline.points + t[:, None] * seg
    d = p - proj
    j = int(np.argmin(np.einsum("ij,ij->i", d, d)))
    s = float(polyline.vertex_arclength[j] + t[j] * seg_len[j])
    dir_j = seg_dir[j]
    lateral = float(dir_j[0] * d[j][1] - dir_j[1] * d[j][0])
    return s, lateral, math.atan2(dir_j[1], dir_j[0])


def brute_rangefinders(track, position, heading):
    """Track.rangefinders by casting every ray against every border segment."""
    _, lateral, _ = brute_project(track.centerline, position)
    if abs(lateral / (track.width / 2.0)) > 1.0:
        return np.zeros(RANGEFINDER_COUNT)
    o = np.asarray(position, dtype=np.float64)
    angles = heading + RANGEFINDER_ANGLES
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    borders = (track.left_border.points, track.right_border.points)
    a = np.concatenate(borders)
    d = np.concatenate([_segments(b)[0] for b in borders])
    ao = a - o                                     # (M, 2)
    # o + t*dir = a + u*d ; cross() solves the 2x2 system
    denom = dirs[:, 0][:, None] * d[:, 1] - dirs[:, 1][:, None] * d[:, 0]   # (R, M)
    c_t = ao[:, 0] * d[:, 1] - ao[:, 1] * d[:, 0]                           # (M,)
    c_u = ao[:, 0] * dirs[:, 1][:, None] - ao[:, 1] * dirs[:, 0][:, None]   # (R, M)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = c_t / denom
        u = c_u / denom
    valid = (np.abs(denom) > 1e-12) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
    t = np.where(valid, t, np.inf)
    return np.minimum(t.min(axis=1), RANGEFINDER_MAX)
