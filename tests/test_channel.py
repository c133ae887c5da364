import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detsums import channel
from detsums.channel import (ChannelConfig, coding_scheme, diversity_slope,
                             fixed_code, naive_lattice_decode,
                             normalize_energy, simulate, sphere_cvp,
                             union_bound, union_bounds, wilson_halfwidth,
                             SimResult)
from detsums.codes import gaussian_diagonal
from detsums.errors import (BudgetExceeded, CodeTooLarge, DimensionMismatch,
                            InsufficientStatistics, RadiusOverflow)
from detsums.lattice import DEFAULT_BUDGET

from conftest import box_scan_coeffs, cvp_box_oracle


# ---------------------------------------------------------------------------
# code construction and normalization
# ---------------------------------------------------------------------------

def test_scheme_zero_multiplexing(golden_lattice):
    code = coding_scheme(golden_lattice, 0.0, 100.0)
    assert code.radius == pytest.approx(1.0)
    assert code.scale == pytest.approx(1.0)
    assert code.size == 16


def test_scheme_radius_exponent(golden_lattice):
    # rT/k = 2/8, so rho = 16 gives radius 16^(1/4) = 2 and scale 1/2.
    code = coding_scheme(golden_lattice, 1.0, 16.0)
    assert code.radius == pytest.approx(2.0)
    assert code.scale == pytest.approx(0.5)


def test_scheme_radius_homogeneity(golden_lattice):
    r = 1.0
    base = coding_scheme(golden_lattice, r, 16.0)
    # multiplying rho by 2^(k/(rT)) doubles the radius
    boosted = coding_scheme(golden_lattice, r, 16.0 * 2 ** (8 / 2))
    assert boosted.radius == pytest.approx(2.0 * base.radius)


def test_normalize_energy_unit_code():
    mats = np.ones((4, 1, 1), dtype=complex)
    assert normalize_energy(mats, 1) == pytest.approx(1.0)


def test_normalize_energy_two_scalars():
    mats = np.array([[[1.0 + 0j]], [[2.0 + 0j]]])
    assert normalize_energy(mats, 1) ** 2 == pytest.approx(0.4, rel=1e-12)


def test_normalize_energy_scaling():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    theta = normalize_energy(mats, 2)
    assert normalize_energy(3.0 * mats, 2) == pytest.approx(theta / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# union bound
# ---------------------------------------------------------------------------

def test_union_bound_direct_value(zi_lattice):
    # Unit code in the Gaussian integers: theta = 1, difference ball of
    # radius 2 holds 12 points with |x|^2 in {1, 2, 4}.
    code = fixed_code(zi_lattice, 1.0)
    rho = 100.0
    expected = math.fsum([4 / 101.0 ** 2, 4 / 201.0 ** 2, 4 / 401.0 ** 2])
    got = union_bound(code, 2, rho, chernoff_scaling=False)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(5.157e-4, rel=1e-3)


@pytest.mark.parametrize("chernoff", [True, False])
def test_union_bounds_equal_the_pointwise_bounds(golden_lattice, chernoff):
    # Every SNR point walks the same 2R ball, so the blocks, the terms and
    # the fsum are the same as one call per point: equal bit for bit.
    code = fixed_code(golden_lattice, 1.0)
    rhos = [10.0 ** (db / 10.0) for db in (5.0, 7.5, 10.0, 15.0, 25.0)]
    grid = union_bounds(code, 2, rhos, chernoff_scaling=chernoff)
    assert grid == [union_bound(code, 2, rho, chernoff_scaling=chernoff) for rho in rhos]
    assert all(b < a for a, b in zip(grid, grid[1:]))
    assert union_bounds(code, 2, []) == []


def test_union_bound_chernoff_scaling_is_larger(zi_lattice):
    code = fixed_code(zi_lattice, 1.0)
    loose = union_bound(code, 2, 100.0, chernoff_scaling=True)
    tight = union_bound(code, 2, 100.0, chernoff_scaling=False)
    assert loose > tight     # smaller shift, larger terms


def test_union_bound_monotone_in_rho(zi_lattice):
    code = fixed_code(zi_lattice, 1.0)
    vals = [union_bound(code, 2, rho) for rho in (1.0, 10.0, 100.0, 1000.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_union_bound_vacuous_at_low_snr(zi_lattice):
    code = fixed_code(zi_lattice, 1.0)
    assert union_bound(code, 2, 1e-9) > 1.0
    # at zero shift every term is one, so the bound counts points
    assert union_bound(code, 2, 1e-12) == pytest.approx(12.0, rel=1e-3)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _small_cfg(**kw):
    base = dict(n_t=2, n_r=2, T=2, snr_grid_db=(10.0, 15.0),
                trials_per_point=300, seed=3, fixed_radius=1.0)
    base.update(kw)
    return ChannelConfig(**base)


def test_noiseless_simulation_is_error_free(golden_lattice):
    cfg = _small_cfg(noise_scale=0.0, trials_per_point=100)
    res = simulate(golden_lattice, cfg)
    assert res.error_rate == (0.0, 0.0)


def test_simulation_reproducible(golden_lattice):
    cfg = _small_cfg()
    assert simulate(golden_lattice, cfg) == simulate(golden_lattice, cfg)


def test_simulation_seed_changes_stream(golden_lattice):
    a = simulate(golden_lattice, _small_cfg(seed=3))
    b = simulate(golden_lattice, _small_cfg(seed=4))
    assert a.error_count != b.error_count or a.error_rate != b.error_rate


# Sizes past 2^31 reject up to half of the 32-bit draws, so their indices
# take the second half of a word and further words; 2^32 + 5 falls back.
@pytest.mark.parametrize("code_size", [1, 2, 3, 16, 576, 4097, 3 << 30, (1 << 31) + 1,
                                       (1 << 32) - 1, 1 << 32, (1 << 32) + 5])
def test_codeword_index_matches_generator_integers(code_size):
    streams = channel._TrialStreams(0)
    for trial in range(40):
        rng = np.random.Generator(np.random.Philox(key=9, counter=[0, trial, 0, 0]))
        streams._bitgen.state = rng.bit_generator.state
        assert streams._index(code_size) == rng.integers(code_size)
        # both leave the stream at the same place
        assert streams._rng.standard_normal() == rng.standard_normal()


def test_trial_streams_share_one_generator_per_thread(golden_lattice):
    code = fixed_code(golden_lattice, 1.0)
    points, trials = np.array([0, 2, 1, 0]), np.array([5, 0, 3, 1])
    amp = np.ones(4)
    seed = -7                                 # keyed mod 2^128
    streams = channel._TrialStreams(seed)
    j, H, y = streams.draw(code, points, trials, amp, 2, 1.0)
    channel._TrialStreams(seed + 1).draw(code, points, trials, amp, 2, 1.0)
    again = streams.draw(code, points, trials, amp, 2, 1.0)
    assert all(np.array_equal(a, b) for a, b in zip((j, H, y), again))
    for row, (point, trial) in enumerate(zip(points, trials)):
        rng = np.random.Generator(np.random.Philox(
            counter=[0, trial, point, 0], key=seed & ((1 << 128) - 1)))
        assert j[row] == rng.integers(code.size)
        assert np.array_equal(H[row], _reference_complex_gaussian(rng, (2, 2)))


def test_simulation_code_too_large(golden_lattice):
    # L(2.5) holds 6,864 codewords, above the ML cap of 4,096.
    cfg = _small_cfg(fixed_radius=2.5)
    with pytest.raises(CodeTooLarge):
        simulate(golden_lattice, cfg)


def test_simulation_dimension_check(golden_lattice):
    cfg = ChannelConfig(n_t=3, n_r=2, T=2, snr_grid_db=(10.0,),
                        trials_per_point=10, seed=0, fixed_radius=1.0)
    with pytest.raises(DimensionMismatch):
        simulate(golden_lattice, cfg)


def test_naive_decoder_needs_enough_receive_dimensions(golden_lattice, monkeypatch):
    # One receive antenna gives 2 * n_r * T = 4 real equations for the
    # golden code's 8 coefficients; simulate says so before building a code.
    def no_build(*args, **kwargs):
        raise AssertionError("built a code")
    monkeypatch.setattr(channel, "_collect_code", no_build)
    cfg = _small_cfg(n_r=1, decoder="naive-lattice")
    with pytest.raises(DimensionMismatch, match="2\\*n_r\\*T"):
        simulate(golden_lattice, cfg)


def test_fixed_code_is_built_once_per_value(golden_lattice, monkeypatch):
    from detsums.codes import golden_code
    monkeypatch.setattr(channel, "_CODE_CACHE", type(channel._CODE_CACHE)())
    walks = []
    real_blocks = channel.coefficient_blocks

    def counting_blocks(*args, **kwargs):
        walks.append(args[1])
        return real_blocks(*args, **kwargs)
    monkeypatch.setattr(channel, "coefficient_blocks", counting_blocks)
    first = fixed_code(golden_lattice, 1.0)
    assert walks == [1.0]
    # An equal lattice built anew hits the cache by value, and its code
    # refers to it; the arrays are the cached read-only ones.
    twin = golden_code()
    again = fixed_code(twin, 1.0)
    assert walks == [1.0]
    assert again.lattice is twin
    assert again.coeffs is first.coeffs and not again.coeffs.flags.writeable
    assert np.array_equal(again.matrices, first.matrices)
    simulate(golden_lattice, _small_cfg(trials_per_point=5))
    assert walks == [1.0]
    # Radius, scale and budget are part of the key.
    fixed_code(golden_lattice, 1.5)
    coding_scheme(golden_lattice, 0.5, 10.0)
    fixed_code(golden_lattice, 1.0, budget=10 ** 6)
    assert walks == [1.0, 1.5, 10.0 ** (0.5 * 2 / 8), 1.0]


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_golden_fixed_code_is_sorted_ball(golden_lattice, monkeypatch, radius):
    # The code is the whole ball in lexicographic coefficient order, however
    # the walk picks its orbit representatives.
    import hashlib
    from detsums.lattice import realize_block
    monkeypatch.setattr(channel, "_CODE_CACHE", type(channel._CODE_CACHE)())
    code = fixed_code(golden_lattice, radius)
    ball = np.array(sorted(box_scan_coeffs(golden_lattice, radius)), dtype=np.int64)
    assert code.coeffs.tobytes() == ball.tobytes()
    assert code.matrices.tobytes() == realize_block(golden_lattice, ball).tobytes()
    if radius == 1.0:
        # The bytes of the sorted ball, pinned.
        assert hashlib.sha256(code.coeffs.tobytes()).hexdigest() == (
            "4c6253fa409c6d40d722d6cc74db2b7770cfd5940211795647a2ce8fc28609cb")
        assert hashlib.sha256(code.matrices.tobytes()).hexdigest() == (
            "519b7a7776cb507b5597ad6042f29a3c0c4166a8c870e2cebf02fc346aef12ab")


def test_failed_code_build_is_not_cached(golden_lattice, monkeypatch):
    monkeypatch.setattr(channel, "_CODE_CACHE", type(channel._CODE_CACHE)())
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            fixed_code(golden_lattice, 1.0, budget=100)
    assert len(channel._CODE_CACHE) == 0
    assert fixed_code(golden_lattice, 1.0, budget=2000).size == 16
    assert len(channel._CODE_CACHE) == 1


def test_code_cache_is_bounded(zi_lattice, monkeypatch):
    monkeypatch.setattr(channel, "_CODE_CACHE", type(channel._CODE_CACHE)())
    for radius in range(1, 3 * channel._CODE_CACHE_SIZE):
        fixed_code(zi_lattice, float(radius))
    assert len(channel._CODE_CACHE) == channel._CODE_CACHE_SIZE
    # A code above the row cap is built but not kept.
    monkeypatch.setattr(channel, "_CODE_CACHE_ROWS", 10)
    kept = list(channel._CODE_CACHE)
    assert fixed_code(zi_lattice, 3.0 * channel._CODE_CACHE_SIZE).size > 10
    assert list(channel._CODE_CACHE) == kept


def test_config_round_trip_keeps_budget():
    cfg = _small_cfg(decoder="naive-lattice", noise_scale=0.5)
    assert ChannelConfig.from_dict(cfg.to_dict()) == cfg
    # An integer grid is given back as integers, type for type.
    doc = dict(cfg.to_dict(), snrGridDb=[5, 10])
    assert json.dumps(ChannelConfig.from_dict(doc).to_dict()) == json.dumps(doc)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(n_t=2, n_r=2, T=2, snr_grid_db=(10.0, 10.0),
                      trials_per_point=10, seed=0, fixed_radius=1.0)
    with pytest.raises(ValueError):
        ChannelConfig(n_t=2, n_r=2, T=2, snr_grid_db=(10.0,),
                      trials_per_point=10, seed=0)
    with pytest.raises(ValueError):
        ChannelConfig(n_t=2, n_r=2, T=2, snr_grid_db=(10.0,),
                      trials_per_point=10, seed=0, fixed_radius=1.0,
                      multiplexing_r=0.5)


@pytest.mark.parametrize("field,value,message", [
    ("trials_per_point", 0, "trials_per_point must be an integer >= 1"),
    ("trials_per_point", -2, "trials_per_point must be an integer >= 1"),
    ("trials_per_point", 1.5, "trials_per_point must be an integer >= 1"),
    ("trials_per_point", True, "trials_per_point must be an integer >= 1"),
    ("n_r", 0, "n_r must be an integer >= 1"),
    ("n_r", "2", "n_r must be an integer >= 1"),
    ("noise_scale", -0.5, "noise_scale must be a finite number >= 0"),
    ("noise_scale", math.nan, "noise_scale must be a finite number >= 0"),
    ("noise_scale", math.inf, "noise_scale must be a finite number >= 0"),
    ("noise_scale", "1", "noise_scale must be a finite number >= 0"),
    ("chernoff_scaling", "false", "chernoff_scaling must be a boolean"),
    ("snr_grid_db", (math.nan,), "snr_grid_db must be finite"),
    ("snr_grid_db", (5.0, math.inf), "snr_grid_db must be finite"),
    ("snr_grid_db", (), "snrGridDb must hold at least one SNR point"),
])
def test_config_rejects_bad_trial_receiver_and_noise_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        _small_cfg(**{field: value})
    assert _small_cfg(trials_per_point=1, n_r=1, noise_scale=0).trials_per_point == 1


def test_scheme_mode_simulation(golden_lattice):
    # multiplexing mode rebuilds the code per SNR point: the codebook grows
    # with rho while the codewords shrink back into a fixed ball
    cfg = ChannelConfig(n_t=2, n_r=2, T=2, snr_grid_db=(12.0, 16.0),
                        trials_per_point=100, seed=2, multiplexing_r=0.5)
    res = simulate(golden_lattice, cfg)
    assert len(res.error_rate) == 2
    assert res.code_size == len(
        [p for p in _ball_sizes(golden_lattice, 10 ** (16.0 / 10.0), 0.5)])
    assert simulate(golden_lattice, cfg) == res


def _ball_sizes(lat, rho, r):
    from detsums.channel import coding_scheme
    return coding_scheme(lat, r, rho).coeffs


def test_sim_result_csv(golden_lattice):
    res = simulate(golden_lattice, _small_cfg(trials_per_point=50))
    text = res.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "snr_db,error_rate,errors,trials,ci_halfwidth,overflows"
    assert len(lines) == 3
    assert "," in lines[1] and "." in lines[1]


def test_ml_beats_naive_on_matched_seeds(golden_lattice):
    cfg_ml = _small_cfg(trials_per_point=400, snr_grid_db=(12.0,))
    cfg_naive = _small_cfg(trials_per_point=400, snr_grid_db=(12.0,),
                           decoder="naive-lattice")
    ml = simulate(golden_lattice, cfg_ml)
    naive = simulate(golden_lattice, cfg_naive)
    sigma = math.sqrt(ml.wilson_halfwidth[0] ** 2 + naive.wilson_halfwidth[0] ** 2)
    assert ml.error_rate[0] <= naive.error_rate[0] + 3.0 * sigma


# ---------------------------------------------------------------------------
# naive lattice decoding
# ---------------------------------------------------------------------------

def test_naive_decode_zero_noise_identity(golden_lattice):
    rng = np.random.default_rng(11)
    H = np.eye(2, dtype=complex)
    z_true = rng.integers(-2, 3, 8)
    amp = 0.7
    y = amp * (H @ golden_lattice.realize(z_true))
    z_hat = naive_lattice_decode(golden_lattice, H, y, amp)
    assert np.array_equal(z_hat, z_true)


def test_naive_decode_scalar_rounding(zi_lattice):
    # lattice Z[i] in one dimension, channel gain 2: y/2 = 1 + 0.4i rounds to 1
    H = np.array([[2.0 + 0j]])
    y = np.array([[2.0 * (1.0 + 0.4j)]])
    z_hat = naive_lattice_decode(zi_lattice, H, y, 1.0)
    assert tuple(z_hat) == (1, 0)


def test_sphere_cvp_matches_box_oracle_small():
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        d = k + int(rng.integers(0, 3))
        A = rng.standard_normal((d, k))
        if np.linalg.matrix_rank(A) < k:
            continue
        z = rng.integers(-4, 5, k)
        y = A @ z + 0.3 * rng.standard_normal(d)
        assert np.array_equal(sphere_cvp(A, y), cvp_box_oracle(A, y))


# ---------------------------------------------------------------------------
# batched simulator against the per-trial reference
# ---------------------------------------------------------------------------

def _reference_sphere_cvp(A, y, node_budget=2_000_000):
    """Recursive Schnorr-Euchner search on numpy arrays; the iterative
    ``sphere_cvp`` must visit the same nodes and return the same point."""
    d, k = A.shape
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    R = R * signs[:, None]
    Q = Q * signs[None, :]
    if np.min(np.abs(np.diag(R))) <= 0:
        raise ValueError("generator matrix is rank deficient")
    yp = Q.T @ y
    z_babai = np.zeros(k, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        t = yp[i] - R[i, i + 1:] @ z_babai[i + 1:]
        z_babai[i] = round(t / R[i, i])
    resid = R @ z_babai - yp
    best_dist = float(resid @ resid)
    best_z = z_babai.copy()
    radius = best_dist * (1.0 + 1e-9) + 1e-12 * (1.0 + float(yp @ yp))
    z = np.zeros(k, dtype=np.int64)
    nodes = 0

    def search(level, acc, partial):
        nonlocal nodes, best_dist, best_z, radius
        t = yp[level] - acc[level]
        dcoef = R[level, level]
        center = t / dcoef
        zi = round(center)
        step = 1 if center - zi >= 0 else -1
        while True:
            nodes += 1
            if nodes > node_budget:
                raise RadiusOverflow(f"sphere search exceeded {node_budget} nodes")
            seg = t - dcoef * zi
            cand = partial + seg * seg
            if cand > radius:
                break
            z[level] = zi
            if level == 0:
                if cand < best_dist:
                    best_dist = cand
                    best_z = z.copy()
                    radius = cand * (1.0 + 1e-9) + 1e-12 * (1.0 + float(yp @ yp))
            else:
                search(level - 1, acc + R[:, level] * zi, cand)
            zi = zi + step
            step = -step - (1 if step > 0 else -1)

    search(k - 1, np.zeros(k), 0.0)
    return best_z


def _reference_complex_gaussian(rng, shape):
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def _reference_simulate(lat, cfg, *, budget=DEFAULT_BUDGET):
    """Per-trial simulator: a fresh Philox per (SNR point, trial), one
    einsum metric per ML trial, one recursive sphere search per naive
    trial."""
    fixed = None
    if cfg.fixed_radius is not None:
        fixed = fixed_code(lat, cfg.fixed_radius, budget=budget)
    rates, counts, halfwidths, overflows = [], [], [], []
    for snr_index, snr_db in enumerate(cfg.snr_grid_db):
        rho = 10.0 ** (snr_db / 10.0)
        code = fixed if fixed is not None else coding_scheme(
            lat, cfg.multiplexing_r, rho, budget=budget)
        theta = normalize_energy(code.matrices, lat.T)
        amp = math.sqrt(rho / lat.n) * theta
        candidates = amp * code.matrices
        gen = ((amp * code.scale) * lat.basis.reshape(lat.k, -1)).reshape(
            lat.k, lat.n, lat.T)
        errors = overflow = 0
        for trial in range(cfg.trials_per_point):
            rng = np.random.Generator(np.random.Philox(
                counter=[0, trial, snr_index, 0], key=cfg.seed & ((1 << 128) - 1)))
            j = int(rng.integers(code.size))
            H = _reference_complex_gaussian(rng, (cfg.n_r, lat.n))
            noise = cfg.noise_scale * _reference_complex_gaussian(rng, (cfg.n_r, lat.T))
            y = H @ candidates[j] + noise
            if cfg.decoder == "ml-exhaustive":
                diff = y[None, :, :] - np.einsum("ri,nit->nrt", H, candidates)
                metrics = np.sum(np.abs(diff) ** 2, axis=(1, 2))
                ok = int(np.argmin(metrics)) == j
            else:
                imgs = (H @ gen).reshape(lat.k, -1)
                A = np.empty((2 * imgs.shape[1], lat.k))
                A[0::2, :] = imgs.real.T
                A[1::2, :] = imgs.imag.T
                target = np.empty(2 * y.size)
                target[0::2] = y.reshape(-1).real
                target[1::2] = y.reshape(-1).imag
                try:
                    ok = np.array_equal(_reference_sphere_cvp(A, target), code.coeffs[j])
                except RadiusOverflow:
                    overflow += 1
                    ok = False
            errors += not ok
        n = cfg.trials_per_point
        rates.append(errors / n)
        counts.append(errors)
        halfwidths.append(wilson_halfwidth(errors, n))
        overflows.append(overflow)
    return SimResult(snr_db=cfg.snr_grid_db, error_rate=tuple(rates),
                     error_count=tuple(counts), trials=(n,) * len(counts),
                     wilson_halfwidth=tuple(halfwidths), code_size=code.size,
                     theta=theta, decoder=cfg.decoder, seed=cfg.seed,
                     overflow_count=tuple(overflows))


# The naive decoder needs 2 n_r T >= k, so one receive antenna runs on Z[i].
@pytest.mark.parametrize("lattice, n_r", [("golden_lattice", 2),
                                          ("zi_lattice", 1)])
@pytest.mark.parametrize("noise_scale", [1.0, 0.0])
# At r = 1 the golden code grows from 16 codewords at 6 dB to 576 at 12 dB.
@pytest.mark.parametrize("mode", [{"fixed_radius": 1.0},
                                  {"multiplexing_r": 1.0}])
@pytest.mark.parametrize("decoder", ["ml-exhaustive", "naive-lattice"])
def test_simulate_matches_per_trial_reference(request, lattice, n_r, decoder,
                                              mode, noise_scale):
    lat = request.getfixturevalue(lattice)
    cfg = ChannelConfig(n_t=lat.n, n_r=n_r, T=lat.T, snr_grid_db=(6.0, 12.0),
                        trials_per_point=60, seed=8 + n_r, decoder=decoder,
                        noise_scale=noise_scale, **mode)
    assert simulate(lat, cfg) == _reference_simulate(lat, cfg)


@pytest.mark.parametrize("decoder", ["ml-exhaustive", "naive-lattice"])
def test_simulate_independent_of_chunking(golden_lattice, monkeypatch, decoder):
    # 200 entries make chunks of 3 ML trials (16 codewords x 4 entries each)
    # or 6 naive trials (rank 8 x 4); 37 trials end in a partial chunk.
    cfg = _small_cfg(trials_per_point=37, snr_grid_db=(4.0, 10.0), seed=21,
                     decoder=decoder)
    whole = simulate(golden_lattice, cfg)
    monkeypatch.setattr(channel, "_CHUNK_ENTRIES", 200)
    chunked = simulate(golden_lattice, cfg)
    assert chunked == whole == _reference_simulate(golden_lattice, cfg)


@pytest.mark.parametrize("decoder", ["ml-exhaustive", "naive-lattice"])
def test_simulate_benchmark_shape_matches_reference(golden_lattice, decoder):
    # A fixed code with 9 SNR points of 2 trials each: one chunk holds every
    # point's rows, each amplified by its own SNR.
    for seed in (5, 77, 2 ** 31 + 3):
        cfg = _small_cfg(snr_grid_db=tuple(5.0 + 2.5 * j for j in range(9)),
                         trials_per_point=2, seed=seed, decoder=decoder)
        assert simulate(golden_lattice, cfg) == _reference_simulate(golden_lattice, cfg)


@pytest.mark.parametrize("decoder", ["ml-exhaustive", "naive-lattice"])
def test_multiplexing_chunks_stay_inside_a_point(golden_lattice, monkeypatch, decoder):
    # The code changes with the SNR, so each point is chunked on its own:
    # 16 codewords at 6 dB, 576 at 12 dB.
    monkeypatch.setattr(channel, "_CHUNK_ENTRIES", 300)
    cfg = ChannelConfig(n_t=2, n_r=2, T=2, snr_grid_db=(6.0, 9.0, 12.0),
                        trials_per_point=11, seed=31, decoder=decoder,
                        multiplexing_r=1.0)
    assert simulate(golden_lattice, cfg) == _reference_simulate(golden_lattice, cfg)


def test_simulate_calls_sphere_cvp_once_per_naive_trial(golden_lattice, monkeypatch):
    monkeypatch.setattr(channel, "_CHUNK_ENTRIES", 200)
    calls = []
    real = channel.sphere_cvp

    def counting(A, y, **kw):
        calls.append(kw["front"])
        return real(A, y, **kw)
    monkeypatch.setattr(channel, "sphere_cvp", counting)
    cfg = _small_cfg(trials_per_point=13, snr_grid_db=(5.0, 10.0, 15.0),
                     decoder="naive-lattice")
    simulate(golden_lattice, cfg)
    assert len(calls) == 3 * 13
    simulate(golden_lattice, replace(cfg, decoder="ml-exhaustive"))
    assert len(calls) == 3 * 13


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6),
       extra=st.integers(0, 2), rows=st.integers(1, 12),
       spread=st.sampled_from([0.3, 3.0]))
def test_stacked_front_end_matches_one_matrix_calls(seed, k, extra, rows, spread):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, k + extra, k))
    assume(all(np.linalg.matrix_rank(a) == k for a in A))
    y = (A @ rng.integers(-3, 4, (rows, k, 1)))[:, :, 0] + spread * rng.standard_normal(
        (rows, k + extra))
    fronts = channel._front_ends(A, y)
    assert len(fronts) == rows
    for b, front in enumerate(fronts):
        assert front == channel._front_ends(A[b][None], y[b][None])[0]
        want = sphere_cvp(A[b], y[b])
        assert np.array_equal(sphere_cvp(A[b], y[b], front=front), want)
        assert np.array_equal(want, _reference_sphere_cvp(A[b], y[b]))


# At 12 dB and r = 1 the golden scheme code has 576 codewords.
@pytest.mark.parametrize("multiplexing_r, size", [(None, 16), (1.0, 576)])
def test_expanded_ml_metric_matches_the_direct_metric(golden_lattice, multiplexing_r, size):
    rho = 10.0 ** 1.2
    code = (fixed_code(golden_lattice, 1.0) if multiplexing_r is None
            else coding_scheme(golden_lattice, multiplexing_r, rho))
    assert code.size == size
    rng = np.random.default_rng(size)
    rows = 25
    H = _reference_complex_gaussian(rng, (rows, 2, 2))
    amp = math.sqrt(rho / 2) * code.theta * rng.uniform(0.5, 2.0, rows)
    j = rng.integers(code.size, size=rows)
    y = H @ (amp[:, None, None] * code.matrices[j]) + _reference_complex_gaussian(
        rng, (rows, 2, 2))
    expanded = channel._ml_metrics(code, H, y, amp)
    diff = y[:, None] - np.einsum("bri,bnit->bnrt", H,
                                  amp[:, None, None, None] * code.matrices)
    energy = (np.abs(y) ** 2).sum(axis=(1, 2))[:, None]
    direct = (np.abs(diff) ** 2).sum(axis=(2, 3)) - energy
    # Metrics near zero carry the rounding of terms of size ||y||^2, so the
    # relative bound is taken against the larger of the two.
    assert np.all(np.abs(expanded - direct) <= 1e-12 * np.maximum(np.abs(direct), energy))
    assert np.array_equal(expanded.argmin(axis=1), direct.argmin(axis=1))


def test_front_end_rejects_bad_generators():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 4, 3))
    y = rng.standard_normal((3, 4))
    A[1, :, 2] = 0.0                           # rank deficient
    with pytest.raises(ValueError, match="rank deficient"):
        channel._front_ends(A, y)
    with pytest.raises(ValueError, match="rank deficient"):
        sphere_cvp(A[1], y[1])
    with pytest.raises(ValueError, match="target dimension"):
        channel._front_ends(A[:, :2], y[:, :2])
    with pytest.raises(ValueError, match="target dimension"):
        sphere_cvp(A[0, :2], y[0, :2])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6),
       extra=st.integers(0, 2), spread=st.sampled_from([0.3, 3.0]),
       node_budget=st.integers(1, 80))
def test_sphere_cvp_matches_recursive_reference(seed, k, extra, spread,
                                                node_budget):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k + extra, k))
    assume(np.linalg.matrix_rank(A) == k)
    y = A @ rng.integers(-3, 4, k) + spread * rng.standard_normal(k + extra)
    assert np.array_equal(sphere_cvp(A, y), _reference_sphere_cvp(A, y))
    try:
        want = _reference_sphere_cvp(A, y, node_budget)
    except RadiusOverflow:
        with pytest.raises(RadiusOverflow):
            sphere_cvp(A, y, node_budget=node_budget)
    else:
        assert np.array_equal(sphere_cvp(A, y, node_budget=node_budget), want)


# ---------------------------------------------------------------------------
# slope estimation and intervals
# ---------------------------------------------------------------------------

def _fake_result(snr_db, rates, counts=None):
    n = 10 ** 6
    counts = counts or [max(1, int(r * n)) for r in rates]
    return SimResult(snr_db=tuple(snr_db), error_rate=tuple(rates),
                     error_count=tuple(counts), trials=tuple([n] * len(rates)),
                     wilson_halfwidth=tuple([1e-4] * len(rates)),
                     code_size=16, theta=1.0, decoder="ml-exhaustive", seed=0)


def test_diversity_slope_exact_power_law():
    snr = [10.0, 12.5, 15.0, 17.5, 20.0]
    rates = [(10 ** (db / 10.0)) ** -4 for db in snr]
    res = _fake_result(snr, rates, counts=[1000] * 5)
    assert diversity_slope(res, window=3) == pytest.approx(4.0, abs=1e-9)


def test_diversity_slope_scale_invariant():
    snr = [10.0, 15.0, 20.0]
    for K in (1.0, 37.5):
        rates = [K * (10 ** (db / 10.0)) ** -2 for db in snr]
        res = _fake_result(snr, rates, counts=[1000] * 3)
        assert diversity_slope(res, window=3) == pytest.approx(2.0, abs=1e-9)


def test_diversity_slope_needs_statistics():
    res = _fake_result([10.0, 15.0, 20.0], [1e-3, 1e-4, 1e-5],
                       counts=[100, 30, 5])
    with pytest.raises(InsufficientStatistics):
        diversity_slope(res, window=3)


def test_diversity_slope_uses_qualified_window():
    # the 25 dB point lacks statistics, so the window shifts down
    snr = [10.0, 15.0, 20.0, 25.0]
    rates = [1e-1, 1e-2, 1e-3, 1e-6]
    res = _fake_result(snr, rates, counts=[100000, 10000, 1000, 1])
    slope = diversity_slope(res, window=3)
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_wilson_halfwidth_positive_at_zero():
    assert wilson_halfwidth(0, 1000) > 0
    assert wilson_halfwidth(500, 1000) > wilson_halfwidth(0, 1000)
    with pytest.raises(ValueError):
        wilson_halfwidth(1, 0)
