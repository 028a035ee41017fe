"""Digital-twin stand-in: a Gaussian-mixture scenario density model plus an
analytic throughput world that labels induced scenarios and generates
telemetry-like datasets.

Synthetic feature schema (F = 19)
---------------------------------
 0  pos_x          position x in meters
 1  pos_y          position y in meters
 2  speed          m/s, mode-dependent
 3  mode           0 = walking, 1 = driving
 4  compass_deg    facing direction, degrees in [0, 360), math convention
 5  trajectory_deg movement heading, degrees in [0, 360)
 6  dist_bs0       measured distance to base station 0 (meters, noisy)
 7  dist_bs1
 8  dist_bs2
 9  rss_bs0        signal-strength proxy -20*log10(1+d) (noisy)
10  rss_bs1
11  rss_bs2
12  serving_bs     index of the nearest base station
13  blockage_obs   blockage-zone indicator plus observation noise
14  center_dist    distance from the loop centroid
15  sin_compass
16  cos_compass
17  sin_traj
18  cos_traj

Positions are drawn along a closed 400 m x 250 m rectangular loop
(perimeter 1300 m) centered at the origin, with Gaussian jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .dataset import new_corpus

VARIANCE_FLOOR = 1e-6

LOOP_WIDTH = 400.0
LOOP_HEIGHT = 250.0
LOOP_PERIMETER = 2.0 * (LOOP_WIDTH + LOOP_HEIGHT)
POSITION_JITTER = 8.0

MODE_WALKING = 0
MODE_DRIVING = 1

FEATURE_NAMES = [
    "pos_x", "pos_y", "speed", "mode", "compass_deg", "trajectory_deg",
    "dist_bs0", "dist_bs1", "dist_bs2", "rss_bs0", "rss_bs1", "rss_bs2",
    "serving_bs", "blockage_obs", "center_dist",
    "sin_compass", "cos_compass", "sin_traj", "cos_traj",
]
N_FEATURES = len(FEATURE_NAMES)
TARGET_NAME = "throughput"
MODE_VALUE_NAMES = {MODE_WALKING: "walking", MODE_DRIVING: "driving"}


# ---------------------------------------------------------------------------
# Gaussian mixture density model
# ---------------------------------------------------------------------------


@dataclass
class GaussianMixture:
    """Diagonal-covariance mixture; weights sum to 1, variances floored."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        k = self.weights.shape[0]
        if self.means.shape[0] != k or self.variances.shape != self.means.shape:
            raise ValueError("component count mismatch between weights/means/variances")
        if np.any(self.weights < 0.0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(self.variances < VARIANCE_FLOOR):
            raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


def _log_component_probs(gmm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Per-sample, per-component joint log density log(w_k * N(x; mu_k, v_k))."""
    diff = x[:, None, :] - gmm.means[None, :, :]
    quad = (diff * diff / gmm.variances[None, :, :]).sum(axis=-1)
    norm = (np.log(2.0 * np.pi * gmm.variances)).sum(axis=-1)
    with np.errstate(divide="ignore"):
        log_w = np.where(gmm.weights > 0.0, np.log(gmm.weights), -np.inf)
    return log_w[None, :] - 0.5 * (norm[None, :] + quad)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def gmm_log_likelihood(gmm: GaussianMixture, x: np.ndarray) -> float:
    return float(_logsumexp(_log_component_probs(gmm, np.asarray(x, dtype=float)), axis=1).sum())


def _kmeanspp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [x[rng.integers(x.shape[0])]]
    for _ in range(k - 1):
        d2 = np.min(
            ((x[:, None, :] - np.stack(centers)[None, :, :]) ** 2).sum(axis=-1), axis=1
        )
        total = d2.sum()
        probs = d2 / total if total > 0.0 else np.full(x.shape[0], 1.0 / x.shape[0])
        centers.append(x[rng.choice(x.shape[0], p=probs)])
    return np.stack(centers)


def _init_gmm(x: np.ndarray, k: int, rng: np.random.Generator) -> GaussianMixture:
    """Seeded k-means++ centers, hard assignment, per-cluster moments."""
    n, f = x.shape
    centers = _kmeanspp_centers(x, k, rng)
    assign = np.argmin(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1), axis=1)
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    weights = np.zeros(k)
    means = np.zeros((k, f))
    variances = np.tile(global_var, (k, 1))
    for c in range(k):
        members = x[assign == c]
        weights[c] = len(members) / n
        if len(members) >= 1:
            means[c] = members.mean(axis=0)
        else:
            means[c] = centers[c]
        if len(members) >= 2:
            variances[c] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
    return GaussianMixture(weights=weights, means=means, variances=variances)


def fit_gmm(features: np.ndarray, k: int, em_iters: int, rng_seed: int) -> GaussianMixture:
    """Fit a diagonal-covariance mixture with EM.

    Initialization is k-means++ style seeding with hard moment estimates;
    EM then runs for em_iters iterations or until the log-likelihood
    improves by less than 1e-6.  The per-iteration log-likelihood trace is
    attached to the returned mixture.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.shape[0] < k:
        raise ValueError(f"need at least {k} points to fit {k} components, got {x.shape[0]}")
    if em_iters < 0:
        raise ValueError("em_iters must be >= 0")
    rng = np.random.default_rng(rng_seed)
    gmm = _init_gmm(x, k, rng)
    trace: list[float] = []
    n = x.shape[0]
    for _ in range(em_iters):
        log_joint = _log_component_probs(gmm, x)
        log_norm = _logsumexp(log_joint, axis=1)
        ll = float(log_norm.sum())
        if trace and ll - trace[-1] < 1e-6:
            trace.append(ll)
            break
        trace.append(ll)
        resp = np.exp(log_joint - log_norm[:, None])
        nk = resp.sum(axis=0)
        safe_nk = np.where(nk > 0.0, nk, 1.0)
        new_means = (resp.T @ x) / safe_nk[:, None]
        diff = x[:, None, :] - new_means[None, :, :]
        new_vars = np.einsum("nk,nkf->kf", resp, diff * diff) / safe_nk[:, None]
        keep = nk <= 0.0  # frozen degenerate components
        gmm = GaussianMixture(
            weights=nk / n,
            means=np.where(keep[:, None], gmm.means, new_means),
            variances=np.maximum(
                np.where(keep[:, None], gmm.variances, new_vars), VARIANCE_FLOOR
            ),
        )
    gmm.log_likelihood_trace = trace
    return gmm


def sample_gmm(gmm: GaussianMixture, n: int, rng_seed: int) -> np.ndarray:
    """Draw n points: component by weight, then a diagonal Gaussian draw."""
    if n < 0:
        raise ValueError("n must be >= 0")
    f = gmm.means.shape[1]
    if n == 0:
        return np.zeros((0, f))
    rng = np.random.default_rng(rng_seed)
    comps = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    z = rng.standard_normal((n, f))
    return gmm.means[comps] + np.sqrt(gmm.variances[comps]) * z


# ---------------------------------------------------------------------------
# Analytic twin world
# ---------------------------------------------------------------------------


@dataclass
class BlockageZone:
    """Axis-aligned rectangle that attenuates throughput inside it."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    attenuation: float

    def contains(self, x, y):
        """Whether each point (x, y) lies in the zone; elementwise on arrays."""
        return (self.x_min <= x) & (x <= self.x_max) & (self.y_min <= y) & (y <= self.y_max)


def _default_base_stations() -> np.ndarray:
    return np.array([[-150.0, 90.0], [160.0, -60.0], [-40.0, -120.0]])


def default_blockage_zones() -> list[BlockageZone]:
    return [
        BlockageZone(-200.0, 105.0, -60.0, 145.0, attenuation=0.5),
        BlockageZone(175.0, -125.0, 225.0, 10.0, attenuation=0.6),
    ]


@dataclass
class TwinWorld:
    """Deterministic ground-truth throughput surface over the loop area."""

    base_stations: np.ndarray = field(default_factory=_default_base_stations)
    blockage_zones: list[BlockageZone] = field(default_factory=default_blockage_zones)
    mode_factors: dict[int, float] = field(
        default_factory=lambda: {MODE_WALKING: 1.0, MODE_DRIVING: 0.8}
    )
    peak_rate: float = 2000.0
    range_scale: float = 300.0
    noise_std: float = 50.0
    # beam response: misalignment between the facing direction and the
    # serving-station bearing swings the rate by up to orientation_gain,
    # scaled per mode (a vehicle-mounted directional antenna suffers from
    # misalignment, a handheld does not). Driving traffic is the rare,
    # hard-to-predict minority of the loop population.
    orientation_gain: float = 1.0
    orientation_lobes: int = 1
    mode_orientation_weights: dict[int, float] = field(
        default_factory=lambda: {MODE_WALKING: 0.0, MODE_DRIVING: 1.0}
    )
    walking_fraction: float = 0.8

    def __post_init__(self):
        self.base_stations = np.asarray(self.base_stations, dtype=float)
        if self.base_stations.ndim != 2 or self.base_stations.shape[1] != 2:
            raise ValueError("base_stations must be an (n, 2) array")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative")


# The kernels below work on whole batches of rows.  Bit-exactness with a
# per-row evaluation rests on three rules: elementwise arithmetic,
# comparisons, np.sqrt, np.radians, np.log10, % and argmin run in batch;
# sin, cos, acos, exp and hypot run per element through `math` (numpy's
# SIMD versions need not match libm), one call per element mapped straight
# into a float column by _map; and the length-2 heading . bearing product
# stays a BLAS dot per row (np.vecdot), which may fuse.  A random draw
# rng.normal(loc, scale) is computed as loc + scale * z, with loc kept even
# when it is 0.0.


def _map(fn, *columns: np.ndarray) -> np.ndarray:
    """fn of each element (of each tuple of elements) of the columns, as a float column."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, count=len(columns[0]))


def _station_geometry(world: TwinWorld, points: np.ndarray):
    """Offsets (n, k, 2) from each point (n, 2) to each base station, and their lengths."""
    deltas = world.base_stations[None, :, :] - points[:, None, :]
    return deltas, np.sqrt((deltas * deltas).sum(axis=2))


def _mode_terms(world: TwinWorld, mode: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mode factor and orientation weight; unknown mode codes raise."""
    factor = np.empty(mode.shape[0])
    weight = np.empty(mode.shape[0])
    known = np.zeros(mode.shape[0], dtype=bool)
    for code, value in world.mode_factors.items():
        rows = mode == code
        factor[rows] = value
        weight[rows] = world.mode_orientation_weights.get(code, 1.0)
        known |= rows
    if not known.all():
        raise ValueError(f"unknown mode code {mode[~known][0]!r}")
    return factor, weight


def _label_noise(world: TwinWorld, noise_seeds) -> np.ndarray:
    """The Gaussian label noise each of `noise_seeds` draws: default_rng(seed).normal(0,
    noise_std), computed for all seeds in one batch (zeros in a noise-free world)."""
    if world.noise_std > 0.0:
        return seeding.seeded_normals(noise_seeds, world.noise_std)
    return np.zeros(len(noise_seeds))


def _throughput(world: TwinWorld, features: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Ground-truth throughput of each feature row (Mbps, clamped at 0).

    Reads position, mode and compass from the schema; the rate is
    peak * exp(-d/range) scaled by mode, blockage and orientation factors,
    plus each row's `noise` when noise_std > 0."""
    x, y, mode, compass = features[:, 0], features[:, 1], features[:, 3], features[:, 4]
    mode_factor, weight = _mode_terms(world, mode)
    deltas, dists = _station_geometry(world, features[:, 0:2])
    rows = np.arange(features.shape[0])
    nearest = np.argmin(dists, axis=1)
    d = dists[rows, nearest]

    orientation = np.ones(features.shape[0])
    far = ~(d < 1e-9)
    if far.any():
        radians = np.radians(compass[far])
        heading = np.empty((radians.shape[0], 2))
        heading[:, 0] = _map(math.cos, radians)
        heading[:, 1] = _map(math.sin, radians)
        to_bs = deltas[rows[far], nearest[far]] / d[far, None]
        cos_angle = np.clip(np.vecdot(heading, to_bs), -1.0, 1.0)
        lobes = world.orientation_lobes
        lobe = (1.0 - _map(lambda c: math.cos(lobes * math.acos(c)), cos_angle)) / 2.0
        orientation[far] = 1.0 - world.orientation_gain * weight[far] * lobe

    attenuation = np.ones(features.shape[0])
    for zone in world.blockage_zones:
        attenuation = np.where(zone.contains(x, y), attenuation * zone.attenuation, attenuation)

    rate = world.peak_rate * _map(math.exp, -d / world.range_scale)
    rate = rate * (mode_factor * attenuation * orientation)
    if world.noise_std > 0.0:
        rate = rate + noise
    return np.where(rate < 0.0, 0.0, rate)


def twin_labels(world: TwinWorld, features: np.ndarray, noise_seeds) -> np.ndarray:
    """Ground-truth throughput of each (n, F) feature row with its noise seed
    (Mbps, clamped at 0), in one batch; row k equals
    twin_label(world, features[k], noise_seeds[k]) bit for bit."""
    return _throughput(world, features, _label_noise(world, noise_seeds))


def twin_label(world: TwinWorld, features: np.ndarray, noise_seed: int) -> float:
    """Ground-truth throughput for a feature vector (Mbps, clamped at 0).

    Deterministic per (features, noise_seed); see `_throughput`."""
    f = np.asarray(features, dtype=float)
    if f.shape[0] < 5:
        raise ValueError("feature vector too short for the synthetic schema")
    return float(twin_labels(world, f[None, :], [noise_seed])[0])


def _loop_points(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map perimeter positions t in [0, LOOP_PERIMETER) to (x, y, tangent_deg)."""
    half_w, half_h = LOOP_WIDTH / 2.0, LOOP_HEIGHT / 2.0
    t1 = t - LOOP_WIDTH
    t2 = t1 - LOOP_HEIGHT
    t3 = t2 - LOOP_WIDTH
    side = [t < LOOP_WIDTH, t1 < LOOP_HEIGHT, t2 < LOOP_WIDTH]
    flat = np.ones_like(t)
    x = np.select(side, [-half_w + t, half_w * flat, half_w - t2], -half_w)
    y = np.select(side, [-half_h * flat, -half_h + t1, half_h * flat], half_h - t3)
    return x, y, np.select(side, [0.0, 90.0, 180.0], 270.0)


def _observe(world: TwinWorld, core: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Feature rows: the core coordinates (n, 6) -- position, speed, mode,
    compass and trajectory -- plus noisy derived views.  `z` (n, 7) holds
    the standard normals of the distance, signal-strength and blockage
    observation noise."""
    x, y = core[:, 0], core[:, 1]
    _, true_d = _station_geometry(world, core[:, 0:2])
    blocked = np.zeros(core.shape[0], dtype=bool)
    for zone in world.blockage_zones:
        blocked |= zone.contains(x, y)
    features = np.empty((core.shape[0], N_FEATURES))
    features[:, 0:6] = core
    features[:, 6:9] = np.maximum(true_d + (0.0 + 5.0 * z[:, 0:3]), 0.0)
    features[:, 9:12] = -20.0 * np.log10(1.0 + true_d) + (0.0 + 2.0 * z[:, 3:6])
    features[:, 12] = np.argmin(true_d, axis=1)
    features[:, 13] = blocked + (0.0 + 0.1 * z[:, 6])
    features[:, 14] = _map(math.hypot, x, y)
    for col, degrees in ((15, core[:, 4]), (17, core[:, 5])):
        radians = np.radians(degrees)
        features[:, col] = _map(math.sin, radians)
        features[:, col + 1] = _map(math.cos, radians)
    return features


# Rows per generator block: bounds the batch temporaries, so building a
# corpus holds little beyond its feature matrix.
GENERATOR_BLOCK_ROWS = 4096


def _draw_block(world: TwinWorld, rng: np.random.Generator, n: int):
    """Feature rows and labels of the next n samples of `rng`'s corpus.

    Each sample's random draws, its label-noise seed last, are made in one
    fixed order before any math; then every row, and every seed's noise, is
    computed in batch."""
    uniform = np.empty((n, 2))  # perimeter position, mode
    jitter = np.empty((n, 2))
    z = np.empty((n, 10))  # speed, trajectory, compass, then the 7 observation normals
    noise_seeds = np.empty(n, dtype=np.int64)
    for i in range(n):
        uniform[i, 0] = rng.random()
        rng.standard_normal(out=jitter[i])
        uniform[i, 1] = rng.random()
        rng.standard_normal(out=z[i])
        noise_seeds[i] = rng.integers(0, 2**31)

    # rng.uniform(low, high) is low + (high - low) * rng.random()
    bx, by, tangent = _loop_points(0.0 + LOOP_PERIMETER * uniform[:, 0])
    walking = uniform[:, 1] < world.walking_fraction
    core = np.empty((n, 6))
    core[:, 0] = bx + (0.0 + POSITION_JITTER * jitter[:, 0])
    core[:, 1] = by + (0.0 + POSITION_JITTER * jitter[:, 1])
    core[:, 2] = np.abs(np.where(walking, 1.4 + 0.3 * z[:, 0], 8.0 + 2.0 * z[:, 0]))
    core[:, 3] = np.where(walking, MODE_WALKING, MODE_DRIVING)
    core[:, 5] = (tangent + (0.0 + 10.0 * z[:, 1])) % 360.0
    core[:, 4] = (core[:, 5] + (0.0 + 25.0 * z[:, 2])) % 360.0
    features = _observe(world, core, z[:, 3:])
    return features, twin_labels(world, features, noise_seeds)


def generate_synthetic_dataset(world: TwinWorld, n: int, rng_seed: int) -> np.recarray:
    """Draw a corpus (see dataset.new_corpus) of n labeled samples along the
    loop, deterministic per seed.  The draws are made per sample in a fixed
    order and the math runs in blocks, each written straight into the
    corpus's columns, so the first m samples are the corpus of size m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)
    corpus = new_corpus(n, N_FEATURES)
    for lo in range(0, n, GENERATOR_BLOCK_ROWS):
        hi = min(n, lo + GENERATOR_BLOCK_ROWS)
        corpus.features[lo:hi], corpus.label[lo:hi] = _draw_block(world, rng, hi - lo)
    return corpus


def project_to_schema(world: TwinWorld, features: np.ndarray) -> np.ndarray:
    """Snap a proposed feature vector onto the valid synthetic schema.

    Density-model proposals have continuous mode values and may carry
    negative speeds; the twin world only guarantees a ground truth for
    valid coordinates."""
    f = np.asarray(features, dtype=float).copy()
    codes = np.array(sorted(world.mode_factors))
    f[3] = codes[np.argmin(np.abs(codes - f[3]))]
    f[2] = max(f[2], 0.0)
    return f


def realize_scenario(
    world: TwinWorld, proposal: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Induce a proposed scenario and observe a full consistent record.

    Only the core coordinates (position, speed, mode, compass, trajectory)
    of a density-model proposal are inducible; the derived measurement
    features are re-observed from the world so the record lies on the
    telemetry manifold instead of carrying the proposal's inconsistent
    derived values."""
    core = project_to_schema(world, proposal)[:6]
    core[4:6] %= 360.0
    return _observe(world, core[None, :], rng.standard_normal((1, 7)))[0]


def write_synthetic_csv(corpus: np.recarray, path: str) -> None:
    """Emit a corpus as the ingestion-compatible CSV, mode as a category name."""
    mode = FEATURE_NAMES.index("mode")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(FEATURE_NAMES + [TARGET_NAME]) + "\n")
        for features, label in zip(corpus.features.tolist(), corpus.label.tolist()):
            cells = [repr(value) for value in features + [label]]
            cells[mode] = MODE_VALUE_NAMES[int(features[mode])]
            fh.write(",".join(cells) + "\n")


MODE_MAPPING = {name: float(code) for code, name in MODE_VALUE_NAMES.items()}
