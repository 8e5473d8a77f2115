"""Independent brute-force implementations used as oracles, and the
finite-difference tools of the gradient checks.

Every oracle except ``dense_seg`` is written as plain loops over
voxels/windows/points, or as brute-force numpy, sharing no code with the
package's vectorized paths; ``dense_seg`` is plain numpy and shares only
the trilinear sampler (``sample_volume_with_gradient``) with the package.
``mask_from_channels`` and ``dense_channels`` convert between dense
(K, nx, ny, nz) channels and the package's crop-backed ``OneHotMask``.
"""

import math

import numpy as np

from protoreg.grids import ChannelCrop, OneHotMask
from protoreg.warp import DisplacementField, sample_volume_with_gradient


def trilinear(data, point):
    """Direct 8-neighbor weighted sum with border clamping."""
    nx, ny, nz = data.shape
    x = min(max(point[0], 0.0), nx - 1.0)
    y = min(max(point[1], 0.0), ny - 1.0)
    z = min(max(point[2], 0.0), nz - 1.0)
    x0 = min(int(math.floor(x)), max(nx - 2, 0))
    y0 = min(int(math.floor(y)), max(ny - 2, 0))
    z0 = min(int(math.floor(z)), max(nz - 2, 0))
    fx, fy, fz = x - x0, y - y0, z - z0
    total = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = ((fx if dx else 1 - fx)
                     * (fy if dy else 1 - fy)
                     * (fz if dz else 1 - fz))
                xi = min(x0 + dx, nx - 1)
                yi = min(y0 + dy, ny - 1)
                zi = min(z0 + dz, nz - 1)
                total += w * data[xi, yi, zi]
    return total


def trilinear_gradient(data, point):
    """d/d(point) of ``trilinear``, from the derivatives of its corner
    weights; 0 on an axis where the point lies outside the grid."""
    dims = data.shape
    c = [min(max(point[a], 0.0), n - 1.0) for a, n in enumerate(dims)]
    lo = [min(int(math.floor(c[a])), max(n - 2, 0)) for a, n in enumerate(dims)]
    f = [c[a] - lo[a] for a in range(3)]
    grad = [0.0, 0.0, 0.0]
    for corner in np.ndindex(2, 2, 2):
        value = data[tuple(min(lo[a] + corner[a], dims[a] - 1) for a in range(3))]
        weights = [f[a] if corner[a] else 1 - f[a] for a in range(3)]
        for a in range(3):
            slope = 1.0 if corner[a] else -1.0
            others = math.prod(weights[b] for b in range(3) if b != a)
            grad[a] += slope * others * value
    return np.array([0.0 if not 0.0 <= point[a] <= n - 1.0 else grad[a]
                     for a, n in enumerate(dims)])


def warp(data, u):
    out = np.zeros_like(data)
    nx, ny, nz = data.shape
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                p = (i + u[0, i, j, k], j + u[1, i, j, k], k + u[2, i, j, k])
                out[i, j, k] = trilinear(data, p)
    return out


def lncc(fixed, moved, window, var_eps=1e-5):
    """Literal per-window evaluation of the squared-correlation similarity."""
    r = window // 2
    w3 = window ** 3
    n = fixed.shape
    total = 0.0
    count = 0
    for cx in range(r, n[0] - r):
        for cy in range(r, n[1] - r):
            for cz in range(r, n[2] - r):
                fw = fixed[cx - r:cx + r + 1, cy - r:cy + r + 1, cz - r:cz + r + 1].ravel()
                jw = moved[cx - r:cx + r + 1, cy - r:cy + r + 1, cz - r:cz + r + 1].ravel()
                count += 1
                fd = fw - fw.mean()
                jd = jw - jw.mean()
                b = (fd * fd).sum()
                c = (jd * jd).sum()
                if b / w3 < var_eps or c / w3 < var_eps:
                    continue
                a = (fd * jd).sum()
                total += a * a / (b * c)
    return -total / count


def smoothness(u):
    nx, ny, nz = u.shape[1:]
    total = 0.0
    for comp in range(3):
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    if i + 1 < nx:
                        total += (u[comp, i + 1, j, k] - u[comp, i, j, k]) ** 2
                    if j + 1 < ny:
                        total += (u[comp, i, j + 1, k] - u[comp, i, j, k]) ** 2
                    if k + 1 < nz:
                        total += (u[comp, i, j, k + 1] - u[comp, i, j, k]) ** 2
    return total / (nx * ny * nz)


def dice_loss(fixed_ch, moved_ch, eps=1e-7, presence=1e-7):
    dices = []
    for k in range(fixed_ch.shape[0]):
        sf = fixed_ch[k].sum()
        sm = moved_ch[k].sum()
        if sf <= presence and sm <= presence:
            continue
        inter = (fixed_ch[k] * moved_ch[k]).sum()
        dices.append(2.0 * inter / (sf + sm + eps))
    if not dices:
        return 0.0
    return 1.0 - sum(dices) / len(dices)


def prototypes(features, mask_ch, eps=1e-7):
    k = mask_ch.shape[0]
    c = features.shape[0]
    out = np.zeros((k, c))
    present = np.zeros(k, dtype=bool)
    for kk in range(k):
        denom = mask_ch[kk].sum()
        if denom < eps:
            continue
        present[kk] = True
        for cc in range(c):
            out[kk, cc] = (features[cc] * mask_ch[kk]).sum() / denom
    return out, present


def contrast(features, assign, protos, present, temperature, norm_eps=1e-8):
    rows = [k for k in range(len(present)) if present[k]]
    if len(rows) < 2:
        return 0.0
    total = 0.0
    count = 0
    nx, ny, nz = assign.shape
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                a = assign[i, j, k]
                if a == 0 or not present[a - 1]:
                    continue
                f = features[:, i, j, k]
                nf = max(np.linalg.norm(f), norm_eps)
                sims = []
                for r in rows:
                    p = protos[r]
                    npn = max(np.linalg.norm(p), norm_eps)
                    sims.append(float(f @ p) / (nf * npn) / temperature)
                sims = np.array(sims)
                pos = rows.index(a - 1)
                m = sims.max()
                log_prob = sims[pos] - m - math.log(np.exp(sims - m).sum())
                total += -log_prob
                count += 1
    return total / count if count else 0.0


def align(protos_f, present_f, protos_m, present_m, norm_eps=1e-8):
    total = 0.0
    for k in range(len(present_f)):
        if not (present_f[k] and present_m[k]):
            continue
        a, b = protos_f[k], protos_m[k]
        na = max(np.linalg.norm(a), norm_eps)
        nb = max(np.linalg.norm(b), norm_eps)
        total += 1.0 - float(a @ b) / (na * nb)
    return total


def signed_distance(channel):
    """Brute-force signed Euclidean distance map of the hard mask
    ``channel >= 0.5``, positive outside: each voxel's distance to the
    nearest voxel on the other side, with a layer of background around the
    grid standing for everything beyond it."""
    fg = np.pad(channel >= 0.5, 1)
    coords = np.indices(fg.shape).reshape(3, -1).T
    inside, outside = coords[fg.ravel()], coords[~fg.ravel()]
    out = np.empty(channel.shape)
    for p in np.ndindex(*channel.shape):
        q = np.array(p) + 1
        other = outside if fg[tuple(q)] else inside
        d = np.sqrt(((other - q) ** 2).sum(axis=1).min())
        out[p] = -d if fg[tuple(q)] else d
    return out


def contour(fixed_ch, moving_ch, u, points=None, band=3.0):
    """Value and gradient wrt u of the contour term on whole-grid maps,
    sampled by ``trilinear``: per class with a hard mask on both sides, the
    mean over its points p of (S_m(p + u(p)) - S_f(p))**2, then the class
    mean.  ``points`` gives each such class's voxels, (n, 3); by default
    every voxel with |S_f| <= ``band``."""
    classes = [k for k in range(len(fixed_ch))
               if (fixed_ch[k] >= 0.5).any() and (moving_ch[k] >= 0.5).any()]
    value, grad = 0.0, np.zeros(u.shape)
    for i, k in enumerate(classes):
        s_f, s_m = signed_distance(fixed_ch[k]), signed_distance(moving_ch[k])
        pts = np.argwhere(np.abs(s_f) <= band) if points is None else points[i]
        for p in pts:
            at = (slice(None),) + tuple(p)
            q = p + u[at]
            r = trilinear(s_m, q) - s_f[tuple(p)]
            value += r * r / (len(pts) * len(classes))
            grad[at] += 2.0 * r * trilinear_gradient(s_m, q) / (len(pts) * len(classes))
    return value, grad


def jacobian_dets(u):
    """Second differencing implementation via np.gradient."""
    grads = [np.gradient(u[c], axis=(0, 1, 2)) for c in range(3)]
    jac = np.zeros(u.shape[1:] + (3, 3))
    for c in range(3):
        for a in range(3):
            jac[..., c, a] = grads[c][a]
        jac[..., c, c] += 1.0
    return np.linalg.det(jac)


def dense_seg(fixed_ch, moving_ch, u, eps=1e-7, presence=1e-7):
    """Soft-Dice value and gradient wrt u with every moving channel sampled
    over the whole grid: the reference for the support-block mask sampling
    of ``evaluate_objective``.  Per present class the Dice gradient wrt the
    moved channel is -(2 f / b - 2 inter / b**2) / n_present with
    b = sum f + sum m + eps, chained through each sample's spatial
    derivative."""
    pts = np.indices(u.shape[1:], dtype=np.float64) + u
    samples = [sample_volume_with_gradient(ch, pts) for ch in moving_ch]
    k = len(samples)
    moved = np.clip(np.stack([value for value, _ in samples]), 0.0, 1.0)
    sum_f = fixed_ch.reshape(k, -1).sum(axis=1)
    sum_m = moved.reshape(k, -1).sum(axis=1)
    inter = (fixed_ch * moved).reshape(k, -1).sum(axis=1)
    present = (sum_f > presence) | (sum_m > presence)
    denom = sum_f + sum_m + eps
    value = float(1.0 - (2.0 * inter / denom)[present].mean()) if present.any() else 0.0
    grad = np.zeros(u.shape)
    n_present = int(present.sum())
    for i in np.flatnonzero(present):
        b = denom[i]
        d_moved = -(2.0 * fixed_ch[i] / b - 2.0 * inter[i] / (b * b)) / n_present
        grad += d_moved * samples[i][1]
    return value, grad


# ------------------------------------------------------------- dense masks

def mask_from_channels(dims, spacing, channels) -> OneHotMask:
    """The mask of dense (K, nx, ny, nz) ``channels``, each cropped to its
    non-zero index range, or None when it is all zero."""
    dims = tuple(int(d) for d in dims)
    channels = np.asarray(channels, dtype=np.float64)
    assert channels.ndim == 4 and channels.shape[1:] == dims, (channels.shape, dims)
    crops = []
    for channel in channels:
        nonzero = np.argwhere(channel)
        if len(nonzero) == 0:
            crops.append(None)
            continue
        lo, hi = nonzero.min(axis=0), nonzero.max(axis=0) + 1
        crops.append(ChannelCrop(tuple(lo.tolist()), channel[tuple(map(slice, lo, hi))].copy()))
    return OneHotMask(dims, tuple(float(s) for s in spacing), tuple(crops))


def dense_channels(mask: OneHotMask) -> np.ndarray:
    """The dense (K, nx, ny, nz) channels of ``mask``."""
    out = np.zeros((mask.num_classes,) + mask.dims)
    for channel, crop in zip(out, mask.crops):
        if crop is not None:
            channel[crop.box] = crop.values
    return out


# --------------------------------------------------------- FD verification

def finite_diff_check(evaluator, field: DisplacementField, probe_count: int = 64,
                      eps: float = 1e-3, seed: int = 0):
    """Central-difference probe of ``evaluator(field, with_grad) -> (value, grad)``.

    Probes ``probe_count`` random (component, voxel) entries and reports the
    worst absolute and relative disagreement; the relative denominator is
    max(|analytic|, |numeric|, 1e-8).  The evaluator must be deterministic,
    with any subsampling seeds held fixed across probes.
    """
    _, grad = evaluator(field, True)
    flat_grad = grad.ravel()
    rng = np.random.default_rng(seed)
    idx = rng.choice(flat_grad.size, size=min(probe_count, flat_grad.size), replace=False)

    def value_at(i, delta):
        u = field.u.copy()
        u.ravel()[i] += delta
        return evaluator(DisplacementField(field.dims, field.spacing, u), False)[0]

    max_abs = 0.0
    max_rel = 0.0
    for i in idx:
        numeric = (value_at(i, eps) - value_at(i, -eps)) / (2.0 * eps)
        analytic = flat_grad[i]
        abs_err = abs(numeric - analytic)
        rel_err = abs_err / max(abs(numeric), abs(analytic), 1e-8)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
    return max_abs, max_rel
