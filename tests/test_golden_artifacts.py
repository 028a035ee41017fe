"""Byte-level behaviour fingerprint: the seed-0 artifacts of the three shipped
synthetic configs, of short coreset, hybrid and qbc runs of the benchmark
config, of a short qbc run with cold restarts, of a short hybrid run with
collection on (once with the default infinite budget, once under a finite
budget that binds), and of a short synthesis run fed from a CSV, must hash
to the values recorded in CHANGES.md.  So must the seed-0 decision log of
the shipped stream config, which no artifact holds: a last-bit change in an
arrival's score that flips no decision leaves every artifact as it was.

Performance work on the kernels promises bit-for-bit identical results; this
test checks that promise end to end through the CLI.  The hashes depend on
the BLAS build (OpenBLAS's blocking decides the last bit of a matrix
product), so the test runs only against the build they were recorded with,
with one BLAS thread.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_NAME, BLAS_VERSION = "scipy-openblas", "0.3.31"

GOLDEN = {
    "synthetic_benchmark": {
        "annotations_random_seed0.csv":
            "a9f8fcbc50ff9e4fc01bdf8f34e95cd96659e94849774b42aadcca5af207172b",
        "annotations_uncertainty_seed0.csv":
            "7a41fca0c547b62c658be9cc29cdc8dea9839b180d75720254f98ab3714a43ce",
        "curve_random_seed0.csv":
            "6a5a3230ccc16cf5eedd759e240cd4479535113764dc9640f30f4dd55c2d1d59",
        "curve_uncertainty_seed0.csv":
            "df428d9e652ac668f46c00a7374cea96f2d28d29c7e285126aebb375c950a4ab",
        "summary.csv": "c15cc433a41eefd9ff2d173da01c0a9362d5552dce2ca3e696867ddb94058bb5",
    },
    "synthetic_stream": {
        "annotations_uncertainty_seed0.csv":
            "3ac124c962b249169e31cf5b9789b63451898062135a5d503c3fc2d263cc5dbc",
        "curve_uncertainty_seed0.csv":
            "419df498b8816263d971082812408c8cd1cf6dd4ee2d287923d9e6b5a73c7cd7",
        "summary.csv": "9ec17df993690b8b1ae75b7c203c329ccfbb803b15492e79f9740c75ad44a2c9",
    },
    "synthetic_synthesis": {
        "annotations_uncertainty_seed0.csv":
            "eae920e57d7283065d6a4c78acce1f24beecdf0f1e4c8a32fa2c78717517f93f",
        "curve_uncertainty_seed0.csv":
            "06ff9cc20f7998d8c894112168fdc5fcd4a01bd6d6c70405b1e2437971d98040",
        "summary.csv": "0cbb9563079522be8f4e817ba80dd07f56d0b2f798c7e88d4cc7a85f6e42782e",
    },
    # No shipped config runs the distance-based strategies, qbc or collection.
    "synthetic_benchmark_coreset": {
        "annotations_coreset_seed0.csv":
            "09b502f0b2f578847cd694624f48a1ca884f0ae2988d25ea52f3ddc4243c0f26",
        "curve_coreset_seed0.csv":
            "fa705593a36a9f953099c477ba8242b13e2f4dd23dfd42e7cfc01c307426d701",
        "summary.csv": "ad0727402de03d010bc0a33406b78e684170007f925c899bb2b71f4b46d47d61",
    },
    "synthetic_benchmark_hybrid": {
        "annotations_hybrid_seed0.csv":
            "e65157955e7f9db5b0f732b3ac63eecb91c471151d947fe118adca16cb90af66",
        "curve_hybrid_seed0.csv":
            "0f5a82b787172f2412c38d46eb74b9533cfd1f60228dfaf33778e8a14af18136",
        "summary.csv": "06caa618f8fd8c6cf465efc8343d58f4dbc2f71ff258c6d60e83da67a19249cf",
    },
    "synthetic_benchmark_qbc": {
        "annotations_qbc_seed0.csv":
            "77643da2a06d9e078b5acf2bd26d6578d2d5962b5836038259728d7a578a6a93",
        "curve_qbc_seed0.csv":
            "db36f98676f79adc30cd2b88a7a74c43d2c80af579e9e14126da476a7ac686c9",
        "summary.csv": "720e6ba14dfe21d13a4c608dd34ecc5af0be17e928e8391d46d0c34f4c788935",
    },
    "synthetic_benchmark_collect": {
        "annotations_hybrid_seed0.csv":
            "1fcfb7c485c6475f156d040f2b10b450c4fc46b5def36e74039455bce3a13fd8",
        "curve_hybrid_seed0.csv":
            "ab23b6253e543eb19caa66474ea6c46c11a1c738ea958dd2fa0adf41245c072c",
        "summary.csv": "04cbad881778ba4a69632ca481dc776d41ce29590a750cab314fa4f3e28a0462",
    },
    # hybrid with collection under a finite budget that binds in cycle 3: the
    # cycle affords 4 annotations and 2 collections.
    "synthetic_benchmark_budget": {
        "annotations_hybrid_seed0.csv":
            "a0ee5787889e10fd411c9890b2c30314b5bc50f840f0263bf9d7497175729448",
        "curve_hybrid_seed0.csv":
            "4c08fb7e52a2828a73244160fa09435d59a7140648692444ea80fb3a74dad77e",
        "summary.csv": "d8a66c649a12fc348fd1224809268954de4c351ae1d0ee5d399aa89a5bb724a3",
    },
    # qbc with cold restarts: the model and every member retrain from fresh
    # initializations after each acquisition, each for the full initial_epochs
    # schedule.
    "synthetic_benchmark_qbc_cold": {
        "annotations_qbc_seed0.csv":
            "d9f5c2c0880b1b3d9db7cd2e8e2368b18c0a07f1189e18ee0a72dcd63fdcd893",
        "curve_qbc_seed0.csv":
            "bb2ce32a9b4a998adc2f21d00d6f2dafd71c6201fde72c91bdbdab8e352cf53e",
        "summary.csv": "76c8ce8d3ed4a4d7cd3cd278e4b0b45bb213a3c95e7d47c3777c31b40a7c4e5d",
    },
    # The synthesis loop fed from a CSV: no twin world, so a plain pool
    # oracle snaps each proposal to its nearest unlabeled sample.
    "synthetic_synthesis_csv": {
        "annotations_uncertainty_seed0.csv":
            "bd659f1699a91809a18f4c7cd703387ddc740b95d4fef82714ca9453ee04d8d7",
        "curve_uncertainty_seed0.csv":
            "8a8ea32d514c420f62863c0c9ffee9219b1fd00c5df678502e5a0be7fcc8b145",
        "summary.csv": "244a70c4c388e92b835b600e750a423e29b31faaaa1edc9ed8a8e15f6802a6c0",
    },
}

# case -> the hash of the CSV that `netactive synth --n 1500` writes for it;
# no run artifact holds these bytes
SYNTH_CSV = {
    "synthetic_synthesis_csv":
        "dfa4710751c5a849be9a3ae14b8c5966ce3150d3b3bda075a45badfa5158974f",
}

# sha256 of the seed-0 run_stream_loop decision log of the shipped
# synthetic_stream.cfg, one "index,repr(score),repr(threshold),queried" line
# per arrival
STREAM_DECISION_LOG = "92b48f5409089dd6f06bd93fff8f71adf86118470be19e430e01622cb99c5fe2"
DECISION_LOG_SCRIPT = """
import hashlib
from netactive import runner, seeding
from netactive.config import parse_config
from netactive.loop import StreamPolicy, run_stream_loop

config = parse_config("configs/synthetic_stream.cfg")
corpus, world = runner.load_corpus(config)
pool = runner.split_pool(corpus, config.test_fraction, config.seed_labeled_fraction, rng_seed=0)
pool.normalizer = runner.fit_normalizer(pool)
arrivals = runner.extract_stream_arrivals(
    pool, config.stream_arrivals, seeding.derive_seed(0, seeding.STREAM_ARRIVALS))
policy = StreamPolicy(config.stream_quantile, config.stream_window, config.stream_max_queries)
_, log = run_stream_loop(runner.make_loop_config(config, "uncertainty", pool.n_features),
                         arrivals, pool, runner.make_oracle(config, world, pool, 0), policy, 0)
lines = "".join(f"{d.arrival_index},{d.score!r},{d.threshold!r},{d.queried}\\n" for d in log)
print(hashlib.sha256(lines.encode()).hexdigest())
"""

# case -> (config, CLI overrides); any other case runs its shipped config as is
OVERRIDES = {
    f"synthetic_benchmark_{strategy}":
        ("synthetic_benchmark", ["--strategy", strategy, "--iterations", "3"])
    for strategy in ("coreset", "hybrid", "qbc")
}
OVERRIDES["synthetic_benchmark_collect"] = OVERRIDES["synthetic_benchmark_hybrid"]
OVERRIDES["synthetic_benchmark_budget"] = OVERRIDES["synthetic_benchmark_hybrid"]
OVERRIDES["synthetic_benchmark_qbc_cold"] = (
    "synthetic_benchmark", ["--strategy", "qbc", "--iterations", "2"])
OVERRIDES["synthetic_synthesis_csv"] = ("synthetic_synthesis", ["--iterations", "3"])
# case -> keys set in a copy of its config written next to the output; "{csv}"
# names a CSV that `netactive synth --n 1500` writes there from the same config
EXTRA_KEYS = {
    "synthetic_benchmark_collect": ["collect_enabled = true"],
    "synthetic_benchmark_budget": ["collect_enabled = true", "budget_total = 40.6"],
    "synthetic_benchmark_qbc_cold": ["warm_start = false", "initial_epochs = 200"],
    "synthetic_synthesis_csv": ["data_source = csv", "csv_path = {csv}",
                                "categorical_column = mode",
                                "categorical_map_path = configs/lumos5g_mode_map.txt"],
}


def _blas() -> tuple[str, str]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("name", "unknown"), blas.get("version", "unknown")


def _recorded_blas_env() -> dict:
    """The environment a recorded hash is checked in: one BLAS thread and the
    source tree first on the path.  Skips on another BLAS build."""
    name, version = _blas()
    if name != BLAS_NAME or not version.startswith(BLAS_VERSION):
        pytest.skip(f"hashes were recorded with {BLAS_NAME} {BLAS_VERSION}, numpy uses "
                    f"{name} {version}")
    src = os.path.join(ROOT, "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_seed0_stream_decision_log_matches_recorded_hash():
    env = _recorded_blas_env()
    run = subprocess.run([sys.executable, "-c", DECISION_LOG_SCRIPT],
                         env=env, cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == STREAM_DECISION_LOG


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seed0_artifacts_match_recorded_hashes(case, tmp_path):
    env = _recorded_blas_env()
    config, overrides = OVERRIDES.get(case, (case, []))
    config_path = os.path.join(ROOT, "configs", f"{config}.cfg")

    def cli(*args):
        run = subprocess.run([sys.executable, "-m", "netactive.cli", *args],
                             env=env, cwd=ROOT, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    if case in EXTRA_KEYS:
        csv_path = tmp_path / "telemetry.csv"
        extra = [line.format(csv=csv_path) for line in EXTRA_KEYS[case]]
        if any("{csv}" in line for line in EXTRA_KEYS[case]):
            cli("synth", "--config", config_path, "--n", "1500", "--out", str(csv_path))
            assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == SYNTH_CSV[case]
        keys = {line.split("=", 1)[0].strip() for line in extra}
        with open(config_path, encoding="utf-8") as fh:
            kept = [line for line in fh.read().splitlines()
                    if line.split("=", 1)[0].strip() not in keys]
        config_path = tmp_path / f"{case}.cfg"
        config_path.write_text("\n".join(kept + extra) + "\n", encoding="utf-8")
    out = tmp_path / case
    cli("run", "--config", str(config_path), "--seed", "0", "--output", str(out), *overrides)
    # config_resolved.txt embeds the output directory, so it is not hashed
    written = sorted(set(os.listdir(out)) - {"config_resolved.txt"})
    assert written == sorted(GOLDEN[case])
    hashes = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in written}
    assert hashes == GOLDEN[case]
