"""Per-unit link bundles: block draws, channel statistics, sampled kernels."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    BlockKernel,
    Deployment,
    LayoutConfig,
    LisFrame,
    SystemConfig,
    build_unit_geometry,
    draw_unit_block,
    los_probability,
    make_unit_stats,
    panel_view,
    place_devices,
    placement_rng,
    quarter_solid_angle,
    rician_factor,
    rician_mixing,
    sample_unit_channels,
    transmit_snrs,
)
from lis_uplink.channel import cgauss, half_angle_phasor
from lis_uplink.links import (
    DOMAIN_BLOCK,
    exact_sinr,
    slice_stats,
    stream,
    stream_words,
    substreams,
)

import reference
from conftest import assert_close


def _random_unit(N, K, side, P, seed, n, k, interference="rician"):
    """(deployment, config), pool-shaped draw and statistics of unit (n, k)
    on a random placement of K devices per panel."""
    cfg = SystemConfig(M=side * side, K=K, N=N, P=P, seed=seed)
    dep = place_devices(cfg, LayoutConfig(d_x=0.5), np.random.default_rng(seed))
    draw = draw_unit_block(np.random.default_rng(seed + 1), N, K, P, cfg.M)
    geom = build_unit_geometry(panel_view(dep, cfg, n), k)
    return (dep, cfg), draw, make_unit_stats(geom, draw, cfg, interference)


class TestStreams:
    def test_addressed_streams_are_reproducible(self):
        a = stream(7, 1, 2, 3).random(4)
        b = stream(7, 1, 2, 3).random(4)
        assert np.array_equal(a, b)

    def test_distinct_addresses_decorrelate(self):
        a = stream(7, 1, 2, 3).random(4)
        b = stream(7, 1, 2, 4).random(4)
        c = stream(8, 1, 2, 3).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_domain_separation(self):
        p = placement_rng(0, 0).random(4)
        b = stream(0, DOMAIN_BLOCK, 0, 0, 0, 0).random(4)
        assert not np.array_equal(p, b)


# seeds of one, two and three entropy words, and past the four-word pool
_SEEDS = (st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3]) | st.integers(0, 2**96)
          | st.integers(2**128, 2**200))
_KEY_WORDS = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)


class TestBatchedStreams:
    """``stream_words`` hashes a batch of stream addresses in one pass as
    SeedSequence hashes each, and ``substreams`` opens one generator per
    row in the state ``stream`` builds for it."""

    @given(seed=_SEEDS, head=st.lists(_KEY_WORDS, max_size=3),
           varying=st.lists(_KEY_WORDS, min_size=1, max_size=8),
           tail=st.lists(_KEY_WORDS, max_size=3), cut=st.integers(0, 8))
    def test_streams_equal_numpy_state_by_state(self, seed, head, varying, tail, cut):
        words = stream_words(seed, *head, np.array(varying), *tail)
        assert words.shape == (len(varying), 4) and words.dtype == np.uint64
        keys = [(*head, word, *tail) for word in varying]
        seqs = [np.random.SeedSequence(seed, spawn_key=key) for key in keys]
        assert np.array_equal(words, [seq.generate_state(4, np.uint64) for seq in seqs])
        assert np.array_equal(stream_words(seed, *keys[0]), words[0])
        for seq, gen in zip(seqs, substreams(words)):
            want = np.random.PCG64(seq)
            assert gen.bit_generator.state == want.state
            assert np.array_equal(gen.standard_normal(5), np.random.Generator(want).standard_normal(5))
        # drawn rows, whole and from the streams of a slice of the words
        g, w = cgauss(substreams(words), (2, 3), (4,))
        for r, key in enumerate(keys):
            g_r, w_r = cgauss(stream(seed, *key), (2, 3), (4,))
            assert np.array_equal(g[r].view(np.uint64), g_r.view(np.uint64))
            assert np.array_equal(w[r].view(np.uint64), w_r.view(np.uint64))
        tail_rows = cgauss(substreams(words[cut:]), (3,))
        assert np.array_equal(tail_rows.view(np.uint64),
                              cgauss(substreams(words), (3,))[cut:].view(np.uint64))

    @given(seed=_SEEDS, keys=st.lists(_KEY_WORDS, min_size=2, max_size=6, unique=True),
           pick=st.integers(0, 5))
    def test_opened_streams_are_independent(self, seed, keys, pick):
        gens = substreams(stream_words(seed, 1, np.array(keys), 0))
        assert len(gens) == len(keys) and len({id(gen) for gen in gens}) == len(keys)
        opened = [gen.bit_generator.state for gen in gens]
        assert opened == [stream(seed, 1, key, 0).bit_generator.state for key in keys]
        # drawing from one stream moves it alone
        r = pick % len(keys)
        gens[r].standard_normal(3)
        states = [gen.bit_generator.state for gen in gens]
        assert [s for i, s in enumerate(states) if i != r] == opened[:r] + opened[r + 1:]
        assert states[r] != opened[r]

    def test_rows_reach_pcg64_as_four_contiguous_words(self):
        # PCG64 reads four words off a row's buffer: a strided row must not
        # seed it, and a row of another length is refused
        words = np.asfortranarray(stream_words(5, 1, np.arange(3), 0))
        states = [gen.bit_generator.state for gen in substreams(words)]
        assert states == [stream(5, 1, key, 0).bit_generator.state for key in range(3)]
        for bad in (words[:, :3], words[0], np.zeros((2, 5), np.uint64)):
            with pytest.raises(ValueError):
                substreams(bad)

    @given(seed=st.integers(0, 2**63 - 1))
    def test_numpy_integer_seed_hashes_as_int(self, seed):
        key = (1, np.arange(3), 0)
        assert np.array_equal(stream_words(np.int64(seed), *key), stream_words(seed, *key))
        assert np.array_equal(stream_words(np.uint64(seed), *key), stream_words(seed, *key))

    @pytest.mark.parametrize("word", [-1, 2**32, 2**64])
    def test_key_word_of_more_than_one_entropy_word_rejected(self, word):
        with pytest.raises(ValueError, match="key words"):
            stream_words(0, 1, np.array([0, word]))
        with pytest.raises(ValueError, match="key words"):
            stream_words(0, word, np.arange(3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            stream_words(-1, 1, np.arange(3))


class TestBlockDraw:
    def test_shapes(self):
        draw = draw_unit_block(np.random.default_rng(0), N=2, K=3, P=4, M=16)
        assert draw.coins.shape == (2, 3)
        assert draw.angles.shape == (2, 3, 4, 2)
        assert draw.g.shape == (2, 3, 4)
        assert draw.w.shape == (16,)

    def test_m_independent_prefix_keeps_sweeps_paired(self):
        # only the noise vector depends on M; gates, angles, and fading are
        # identical draws across an M sweep at the same address
        a = draw_unit_block(np.random.default_rng(5), N=2, K=2, P=3, M=16)
        b = draw_unit_block(np.random.default_rng(5), N=2, K=2, P=3, M=400)
        assert np.array_equal(a.coins, b.coins)
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.g, b.g)
        assert a.w.shape != b.w.shape


class TestUnitStats:
    def test_serving_link_is_pure_los(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 1)
        draw = draw_unit_block(np.random.default_rng(1), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        assert stats.kappa[0, 1] == np.inf
        assert stats.nlos_scale[0, 1] == 0.0
        assert np.array_equal(stats.hbar[0, 1], geom.hlos[0, 1])

    def test_gating_applies_candidate_kappa(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        draw = draw_unit_block(np.random.default_rng(2), cfg.N, cfg.K, cfg.P, cfg.M)
        forced = dataclasses.replace(draw, coins=np.zeros((cfg.N, cfg.K)))
        stats = make_unit_stats(geom, forced, cfg)
        expect = geom.kappa_cand.copy()
        expect[0, 0] = np.inf
        assert np.array_equal(stats.kappa, expect)
        blocked = dataclasses.replace(draw, coins=np.ones((cfg.N, cfg.K)))
        stats0 = make_unit_stats(geom, blocked, cfg)
        off = stats0.kappa.copy()
        off[0, 0] = 0.0
        assert np.all(off == 0.0)

    def test_nlos_inter_regime_zeroes_other_panels_only(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        draw = draw_unit_block(np.random.default_rng(3), cfg.N, cfg.K, cfg.P, cfg.M)
        forced = dataclasses.replace(draw, coins=np.zeros((cfg.N, cfg.K)))
        stats = make_unit_stats(geom, forced, cfg, interference="nlos_inter")
        assert np.all(stats.kappa[1] == 0.0)
        assert stats.kappa[0, 1] == geom.kappa_cand[0, 1]
        assert stats.kappa[0, 0] == np.inf
        with pytest.raises(ValueError, match="regime"):
            make_unit_stats(geom, draw, cfg, interference="bogus")

    @pytest.mark.parametrize("regime", ["rician", "nlos_inter"])
    def test_los_mean_only_on_gated_links(self, regime):
        # a quad pool at the default gaps (d_x = 4, d_z = 6), where about a
        # quarter of the links lie past d_C: an ungated link's mean is +0.0
        # exactly, and a gated one is its LOS scale times its LOS vector
        cfg = SystemConfig(M=36, K=8, N=4, T=50, P=4, seed=13)
        dep = place_devices(cfg, LayoutConfig(name="quad"), placement_rng(13, 0))
        shut = gated = 0
        for n in range(cfg.N):
            view = panel_view(dep, cfg, n)
            for k in range(cfg.K):
                geom = build_unit_geometry(view, k)
                draw = draw_unit_block(np.random.default_rng(8 * n + k), cfg.N, cfg.K, cfg.P,
                                       cfg.M)
                stats = make_unit_stats(geom, draw, cfg, regime)
                los_scale = rician_mixing(stats.kappa)[0]
                for link in np.ndindex(los_scale.shape):
                    row = stats.hbar[link].view(float)
                    if los_scale[link] == 0.0:
                        assert not np.any(row) and not np.any(np.signbit(row)), link
                        shut += 1
                    else:
                        want = (los_scale[link] * geom.hlos[link]).view(float)
                        assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), link
                        gated += 1
                if regime == "nlos_inter":
                    assert not np.any(np.delete(stats.hbar, n, axis=0))
        assert shut and gated

    def test_los_vectors_only_on_selected_links(self, quad_world):
        """``build_unit_geometry``'s mask picks the links whose LOS vectors
        it forms, the serving link always among them: those rows equal an
        all-links geometry's bit for bit, the others are zero, and every
        link keeps its distances."""
        dep, cfg = quad_world
        view = panel_view(dep, cfg, 2)
        whole = build_unit_geometry(view, 1)
        los = np.zeros((cfg.N, cfg.K), dtype=bool)
        los[0, 0] = los[3, 1] = True
        geom = build_unit_geometry(view, 1, los)
        formed = los.copy()
        formed[2, 1] = True
        assert np.array_equal(geom.distances, whole.distances)
        assert np.array_equal(geom.hlos[formed], whole.hlos[formed])
        assert not np.any(geom.hlos[~formed])
        assert geom.own_power == whole.own_power
        assert not los[2, 1]  # the caller's mask is left as it was

    def test_gated_link_without_los_vector_raises(self, quad_world):
        """A block that gates a link whose LOS vector was not formed is
        refused; one that gates only formed links builds."""
        dep, cfg = quad_world
        view = panel_view(dep, cfg, 0)
        geom = build_unit_geometry(view, 0, np.zeros((cfg.N, cfg.K), dtype=bool))
        draw = draw_unit_block(np.random.default_rng(6), cfg.N, cfg.K, cfg.P, cfg.M)
        assert np.any(view.p_los[0] > 0.0)
        every = dataclasses.replace(draw, coins=np.zeros((cfg.N, cfg.K)))
        with pytest.raises(ValueError, match="not formed"):
            make_unit_stats(geom, every, cfg)
        none = dataclasses.replace(draw, coins=np.ones((cfg.N, cfg.K)))
        stats = make_unit_stats(geom, none, cfg)
        assert np.array_equal(stats.hbar[0, 0], geom.hlos[0, 0])

    def test_sampling_respects_mixing(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        draw = draw_unit_block(np.random.default_rng(4), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        ch = sample_unit_channels(stats, draw.g)
        assert np.array_equal(ch[0, 0], geom.hlos[0, 0])  # serving slot exact
        # the separable product sums in another order than the dense einsum
        assert_close(ch, reference.dense_channels(stats, draw.g), rtol=1e-12)


class TestFactoredRoots:
    """The statistics keep each root as its Kronecker factors: the separable
    sample, the factor slices and the memory held agree with dense roots."""

    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 4),
        side=st.integers(1, 6),
        P=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_separable_sample_equals_dense_product(self, N, K, side, P, seed):
        _, draw, stats = _random_unit(N, K, side, P, seed, 0, 0)
        # zero means and unit mixing leave the scattered part R g alone
        bare = dataclasses.replace(
            stats, hbar=np.zeros_like(stats.hbar), nlos_scale=np.ones_like(stats.nlos_scale)
        )
        got = sample_unit_channels(bare, draw.g)
        want = (stats.roots.dense() @ draw.g[..., np.newaxis])[..., 0]
        # the absolute floor only covers entries whose path sum cancels
        assert_close(got, want, rtol=1e-12, atol=1e-13 * np.max(np.abs(want)))

    @given(
        N=st.sampled_from([1, 2, 4]),
        pool=st.integers(1, 5),
        side=st.integers(1, 6),
        P=st.integers(1, 5),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_slice_then_dense_equals_dense_then_slice(self, N, pool, side, P, seed, data):
        kept = data.draw(st.integers(1, N), label="kept")
        _, _, stats = _random_unit(N, pool, side, P, seed, 0, 0)
        assert np.array_equal(slice_stats(stats, kept).roots.dense(),
                              stats.roots.dense()[:kept])

    def test_unit_stats_hold_no_dense_root(self):
        N, K, M, P = 4, 4, 400, 20
        cfg = SystemConfig(M=M, K=K, N=N, P=P)
        dep = place_devices(cfg, LayoutConfig(), placement_rng(0, 0))
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        draw = draw_unit_block(np.random.default_rng(0), N, K, P, M)
        tracemalloc.start()
        try:
            stats = make_unit_stats(geom, draw, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = N * K * M * P * 16
        held = [getattr(obj, f.name) for obj in (stats, stats.roots)
                for f in dataclasses.fields(obj)]
        assert not any(isinstance(a, np.ndarray) and a.shape[-2:] == (M, P) for a in held)
        assert stats.roots.nbytes <= dense / 4
        # nor is a dense root built on the way: every allocation of the
        # build together stays below a quarter of one
        assert peak <= dense / 4


def _los_phasor(d, lam, gain=1.0, den=1.0):
    """``half_angle_phasor`` on the LOS half angles -pi d / lam, formed as
    ``build_unit_geometry`` forms them."""
    h = np.multiply(d, -np.pi)
    h *= 1.0 / lam
    return half_angle_phasor(h, gain, den)


class TestUnitGeometryOracle:
    """Every link of the vectorized unit geometry against the per-link LOS
    channel of ``reference.los_link``, and the tangent phasor of its LOS
    phase against the complex form."""

    @pytest.mark.parametrize("M", [16, 900])
    def test_every_link_matches_los_channel(self, M):
        cfg = SystemConfig(M=M, K=3, N=4, P=4, seed=21)
        dep = place_devices(cfg, LayoutConfig(name="quad"), placement_rng(cfg.seed, 0))
        for n, k in ((0, 0), (2, 1), (3, 2)):
            geom = build_unit_geometry(panel_view(dep, cfg, n), k)
            antennas = np.array([reference.antenna_position(dep, cfg, n, k, m) for m in range(M)])
            assert_close(reference.unit_antenna_grid(dep, cfg, n, k), antennas, rtol=0, atol=1e-12)
            for l in range(cfg.N):
                for j in range(cfg.K):
                    d, h, power = reference.los_link(dep.devices[l, j], antennas, dep.frames[n], cfg.lam)
                    assert_close(geom.distances[l, j], d, rtol=1e-14)
                    assert_close(geom.hlos[l, j], h, rtol=1e-12)
                    assert_close(np.sum(np.abs(geom.hlos[l, j]) ** 2), power, rtol=1e-12)
                    if (l, j) == (n, k):
                        assert_close(geom.own_power, power, rtol=1e-12)

    @pytest.mark.parametrize("M", [16, 900])
    def test_phase_matches_complex_form(self, M):
        cfg = SystemConfig(M=M, K=3, N=4, seed=22)
        dep = place_devices(cfg, LayoutConfig(name="quad"), placement_rng(cfg.seed, 0))
        d = build_unit_geometry(panel_view(dep, cfg, 1), 0).distances
        assert_close(_los_phasor(d, cfg.lam), reference.los_phase(d, cfg.lam), rtol=0, atol=1e-15)

    @given(
        d=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=64),
        lam=st.floats(1e-3, 10.0),
    )
    def test_phase_matches_complex_form_for_any_distance(self, d, lam):
        d = np.asarray(d)
        assert_close(_los_phasor(d, lam), reference.los_phase(d, lam), rtol=0, atol=1e-15)
        # gain / den e^{2jh} against the complex form on the same half angles
        gain, den = np.linspace(0.5, 2.0, d.size), np.linspace(2.0, 1.0, d.size)
        h = np.multiply(d, -np.pi)
        h *= 1.0 / lam
        want = gain / den * np.exp(2j * h)
        assert_close(half_angle_phasor(h, gain, den), want, rtol=0, atol=2e-15)

    def test_phase_near_the_tangent_poles(self):
        # argument -2 pi d / lam near 0, pi/2 and pi (where the half-angle
        # tangent grows without bound), and near whole turns
        ulp = np.spacing(1.0)
        d = np.array([0.0, 1e-300, 1e-17, 1e-9, 0.25, 0.25 - ulp, 0.25 + ulp,
                      0.5, 0.5 - ulp, 0.5 + ulp, 0.5 - 1e-9, 1.0, 1.5, 2.5, 1e3 + 0.5])
        gain = np.linspace(0.5, 2.0, d.size)
        want = gain * reference.los_phase(d, 1.0)
        got = _los_phasor(d, 1.0, gain)
        assert np.all(np.isfinite(got))
        assert_close(got, want, rtol=0, atol=2e-15)
        assert got[0] == gain[0]

    def test_phase_of_a_slice_is_the_slice_of_the_phase(self):
        # bit for bit, wherever an element falls in a SIMD body or tail
        cfg = SystemConfig(M=900, K=5, N=4, seed=23)
        dep = place_devices(cfg, LayoutConfig(name="quad"), placement_rng(cfg.seed, 0))
        d = build_unit_geometry(panel_view(dep, cfg, 2), 1).distances
        gain = 1.0 / d
        full = _los_phasor(d, cfg.lam, gain)
        cuts = [np.s_[..., 1:], np.s_[..., :-3], np.s_[:, :, ::3], np.s_[1:, 2:5, 7:],
                np.s_[..., ::-1], np.s_[3, 4, 5:12], np.s_[0, 0, :1]]
        cuts += [np.s_[0, 0, start:start + 37] for start in range(9)]
        for cut in cuts:
            assert np.array_equal(_los_phasor(d[cut], cfg.lam, gain[cut]), full[cut]), cut

    @pytest.mark.parametrize("M", [1, 16, 900])
    @pytest.mark.parametrize("layout, N", [("quad", 4), ("line", 3)])
    def test_distances_equal_three_axis_sum(self, layout, N, M):
        cfg = SystemConfig(M=M, K=4, N=N, seed=24)
        dep = place_devices(cfg, LayoutConfig(name=layout), placement_rng(cfg.seed, 0))
        for n in range(N):  # panel 3 of the quad faces the others
            for k in (0, 3):
                assert np.array_equal(build_unit_geometry(panel_view(dep, cfg, n), k).distances,
                                      reference.unit_distances(dep, cfg, n, k)), (n, k)

    def test_distances_under_any_signed_axis_permutation(self):
        cfg = SystemConfig(M=16, K=3, N=1, seed=25)
        dep = place_devices(cfg, LayoutConfig(name="line"), placement_rng(cfg.seed, 0))
        # a quarter turn about the normal: local x runs along global y
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        turned = dataclasses.replace(dep, frames=(LisFrame(dep.frames[0].origin, quarter),))
        assert np.array_equal(build_unit_geometry(panel_view(turned, cfg, 0), 1).distances,
                              reference.unit_distances(turned, cfg, 0, 1))

    def test_frame_tilted_about_its_normal(self):
        # off the global axes: the lattice rows run along the panel's own
        # x and y, so the distances are the per-antenna Euclidean ones
        cfg = SystemConfig(M=16, K=3, N=1, seed=25)
        dep = place_devices(cfg, LayoutConfig(name="line"), placement_rng(cfg.seed, 0))
        c, s = math.cos(0.3), math.sin(0.3)
        frame = LisFrame(np.array([0.4, -0.2, 0.1]),
                         np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))
        dep = Deployment((frame,), dep.devices_local, frame.to_global(dep.devices_local))
        for k in range(cfg.K):
            geom = build_unit_geometry(panel_view(dep, cfg, 0), k)
            antennas = reference.unit_antenna_grid(dep, cfg, 0, k)
            for j in range(cfg.K):
                d, _, power = reference.los_link(dep.devices[0, j], antennas, frame, cfg.lam)
                assert_close(geom.distances[0, j], d, rtol=1e-12)
                assert_close(np.sum(np.abs(geom.hlos[0, j]) ** 2), power, rtol=1e-12)
                if j == k:
                    assert_close(geom.own_power, power, rtol=1e-12)

    @pytest.mark.parametrize("layout, N", [("quad", 4), ("line", 3)])
    def test_center_distance_laws_equal_global_axis_sum(self, layout, N):
        # identity and facing frames only: in a quarter-turn frame the
        # einsum adds the same squares in another order
        cfg = SystemConfig(M=16, K=4, N=N, seed=26)
        dep = place_devices(cfg, LayoutConfig(name=layout), placement_rng(cfg.seed, 0))
        for n in range(N):
            for k in range(cfg.K):
                geom = build_unit_geometry(panel_view(dep, cfg, n), k)
                cdist = reference.center_distances(dep, n, k)
                assert np.array_equal(geom.kappa_cand, rician_factor(cdist)), (n, k)
                assert np.array_equal(geom.p_los, los_probability(cdist, cfg.d_C)), (n, k)


class TestSliceStats:
    """The panel cut ``slice_stats`` and the first-K-devices cut
    ``reference.prefix_stats``: the statistics of the admitted prefix of a
    pool, which the device-count sampler builds on ``Deployment.prefix``."""

    def test_prefix_views_match_smaller_world(self, tiny_cfg, tiny_world):
        dep, cfg = tiny_world
        geom4 = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        draw = draw_unit_block(np.random.default_rng(6), cfg.N, cfg.K, cfg.P, cfg.M)
        stats4 = make_unit_stats(geom4, draw, cfg)
        sliced = reference.prefix_stats(stats4, 1)

        small = reference.subset(dep, 1)
        geom1 = build_unit_geometry(panel_view(small, cfg, 0), 0)
        draw1 = dataclasses.replace(
            draw, coins=draw.coins[:, :1], angles=draw.angles[:, :1], g=draw.g[:, :1]
        )
        stats1 = make_unit_stats(geom1, draw1, cfg)

        assert np.allclose(sliced.hbar, stats1.hbar, rtol=1e-15, atol=0)
        assert np.allclose(sliced.roots.dense(), stats1.roots.dense(), rtol=1e-15, atol=0)
        assert np.array_equal(sliced.kappa, stats1.kappa)
        t1 = BlockKernel(sliced, sample_unit_channels(sliced, draw1.g), draw1.w).terms(2)
        t2 = BlockKernel(stats1, sample_unit_channels(stats1, draw1.g), draw1.w).terms(2)
        assert_close(t1.I, t2.I, rtol=1e-12)
        assert_close(t1.gamma, t2.gamma, rtol=1e-12)

    def test_inactive_pilot_index_rejected(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 1)
        draw = draw_unit_block(np.random.default_rng(7), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        kernel = BlockKernel(stats, sample_unit_channels(stats, draw.g), draw.w)
        # a unit outside the admitted prefix has no SINR at that count
        with pytest.raises(ValueError, match="pilot index"):
            kernel.terms(cfg.K, 1)

    @given(
        N=st.sampled_from([1, 2, 4]),
        pool=st.integers(2, 6),
        side=st.integers(2, 5),
        P=st.integers(1, 4),
        interference=st.sampled_from(["rician", "nlos_inter"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_first_k_build_equals_sliced_pool_build(
        self, N, pool, side, P, interference, seed, data
    ):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, pool - 1), label="k")
        K = data.draw(st.integers(k + 1, pool), label="K")
        (dep, cfg), draw, pooled = _random_unit(N, pool, side, P, seed, n, k, interference)
        sliced = reference.prefix_stats(pooled, K)

        # geometry of a K-device placement, and the first-K draw
        view_k = panel_view(reference.subset(dep, K), dataclasses.replace(cfg, K=K), n)
        geom_k = build_unit_geometry(view_k, k)
        geom_sliced = sliced.geom
        for field in ("distances", "hlos", "own_power", "kappa_cand", "p_los",
                      "rho_p", "rho_d", "p_bar"):
            assert np.array_equal(getattr(geom_k, field), getattr(geom_sliced, field)), field
        draw_k = dataclasses.replace(
            draw, coins=draw.coins[:, :K], angles=draw.angles[:, :K], g=draw.g[:, :K]
        )
        fresh = make_unit_stats(geom_k, draw_k, cfg, interference)
        for field in ("kappa", "nlos_scale", "hbar"):
            assert np.array_equal(getattr(fresh, field), getattr(sliced, field)), field
        assert np.array_equal(fresh.roots.dense(), sliced.roots.dense())

        ch_a, ch_b = (sample_unit_channels(s, draw_k.g) for s in (sliced, fresh))
        a, b = BlockKernel(sliced, ch_a, draw.w), BlockKernel(fresh, ch_b, draw.w)
        assert_close(b.gamma(K), a.gamma(K), rtol=1e-12)
        assert_close(exact_sinr(fresh, ch_b), exact_sinr(sliced, ch_a), rtol=1e-12)


def _pilot_block_terms(stats, g, w, rho_p, rho_d, t):
    """Matched-filter terms of unit (n, k) from the full M x t pilot block:
    every device of every panel sends its DFT pilot with amplitude
    sqrt(t rho_p), the noise block is w psi_k^T (so LS despreading turns it
    into exactly w / sqrt(t rho_p[n, k])), and the filter is the LS
    estimate. Returns the reference decomposition plus gamma."""
    n, k = stats.geom.n, stats.geom.k
    channels = sample_unit_channels(stats, g)
    book = reference.pilot_book(t, channels.shape[1])
    psi = book[:, k]
    Y = reference.received_block(channels, book, rho_p, np.outer(w, psi))
    h_hat = reference.ls_despread(Y, psi, t, rho_p[n, k])
    terms = reference.interference_terms(h_hat, stats.geom.hlos[n, k], channels, rho_d, n, k)
    terms["gamma"] = rho_d[n, k] * terms["S"] / terms["I"]
    return terms


class TestBlockKernel:
    @pytest.mark.parametrize("t", [2, 8, 100])
    def test_kernel_matches_direct_evaluation(self, tiny_world, t):
        dep, cfg = tiny_world
        n, k = 0, 0
        geom = build_unit_geometry(panel_view(dep, cfg, n), k)
        draw = draw_unit_block(np.random.default_rng(8), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        channels = sample_unit_channels(stats, draw.g)
        kernel = BlockKernel(stats, channels, draw.w)
        terms = kernel.terms(t)

        # the estimation error drawn from its definition: ratio-weighted
        # same-pilot channels of the other panels plus the shrunk noise
        rho_p, rho_d = transmit_snrs(dep, cfg)
        ratios = rho_p[:, k] / rho_p[n, k]
        contams = np.delete(channels[:, k], n, axis=0)
        e = np.sqrt(np.delete(ratios, n)) @ contams + draw.w / math.sqrt(t * rho_p[n, k])
        bd = reference.interference_terms(
            geom.hlos[n, k] + e, geom.hlos[n, k], channels, rho_d, n, k
        )

        assert_close(terms.X, bd["X"], rtol=1e-10)
        assert_close(terms.Z, bd["Z"], rtol=1e-10)
        assert_close(terms.I, bd["I"], rtol=1e-10)
        assert_close(kernel.signal, bd["S"], rtol=1e-12)
        assert_close(terms.gamma, rho_d[n, k] * bd["S"] / bd["I"], rtol=1e-10)
        # leakage grid: serving slot zeroed, rest matches the breakdown
        assert terms.Y[n, k] == 0.0
        assert_close(terms.Y, bd["Y"], rtol=1e-10)

    @pytest.mark.parametrize("interference", ["rician", "nlos_inter"])
    @pytest.mark.parametrize("t_over_K", [1, 2, 5])
    def test_kernel_matches_full_pilot_block(self, quad_world, interference, t_over_K):
        # every same-panel pilot must cancel in the despread block, which
        # the kernel's shortcut assumes without forming the block
        dep, cfg = quad_world
        K, t = cfg.K, t_over_K * cfg.K
        for n, k in ((0, 1), (3, 1), (2, 0)):
            draw = draw_unit_block(np.random.default_rng(40 + n), cfg.N, K, cfg.P, cfg.M)
            geom = build_unit_geometry(panel_view(dep, cfg, n), k)
            stats = make_unit_stats(geom, draw, cfg, interference)
            terms = BlockKernel(stats, sample_unit_channels(stats, draw.g), draw.w).terms(t)
            ref = _pilot_block_terms(stats, draw.g, draw.w, *transmit_snrs(dep, cfg), t)
            for name in ("X", "Y", "Z", "I", "gamma"):
                assert_close(getattr(terms, name), ref[name], rtol=1e-10)

    def test_perfect_csi_terms(self, tiny_world):
        dep, cfg = tiny_world
        n, k = 1, 0
        geom = build_unit_geometry(panel_view(dep, cfg, n), k)
        draw = draw_unit_block(np.random.default_rng(10), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        channels = sample_unit_channels(stats, draw.g)
        kernel = BlockKernel(stats, channels, draw.w)

        _, rho_d = transmit_snrs(dep, cfg)
        bd = reference.interference_terms(
            geom.hlos[n, k], geom.hlos[n, k], channels, rho_d, n, k
        )
        assert_close(kernel.signal, bd["S"], rtol=1e-12)
        assert_close(exact_sinr(stats, channels), rho_d[n, k] * bd["S"] / bd["I"], rtol=1e-10)

    def test_kernel_reuse_across_pilot_lengths(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        draw = draw_unit_block(np.random.default_rng(11), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        channels = sample_unit_channels(stats, draw.g)
        kernel = BlockKernel(stats, channels, draw.w)
        for t in (2, 16, 64):
            fresh = BlockKernel(stats, channels, draw.w).terms(t)
            reused = kernel.terms(t)
            assert reused.I == fresh.I
            assert reused.gamma == fresh.gamma

    def test_noise_term_shrinks_with_t(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        draw = draw_unit_block(np.random.default_rng(12), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        kernel = BlockKernel(stats, sample_unit_channels(stats, draw.g), draw.w)
        z = [kernel.terms(t).Z for t in (2, 8, 32, 128, 10**9)]
        # Z converges to the noise-free filter norm as training energy grows
        assert_close(z[-1], kernel.u_norm2, rtol=1e-4)
        gaps = np.abs(np.asarray(z) - kernel.u_norm2)
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    @pytest.mark.parametrize("k", [0, 1])
    def test_one_panel_sinr_converges_to_exact_filter(self, tiny_cfg, tiny_layout, k):
        # one panel has no contamination, so the estimate's error is noise
        # alone and the estimated-filter SINR reaches the exact filter's as
        # t grows; the error falls ~10x per 100x in t
        cfg = dataclasses.replace(tiny_cfg, N=1)
        dep = place_devices(cfg, tiny_layout, placement_rng(cfg.seed, 0))
        draw = draw_unit_block(stream(cfg.seed, DOMAIN_BLOCK, 0, 0, 0, k),
                               cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(panel_view(dep, cfg, 0), k), draw, cfg)
        ch = sample_unit_channels(stats, draw.g)
        kernel, exact = BlockKernel(stats, ch, draw.w), exact_sinr(stats, ch)
        errors = [abs(kernel.gamma(2 * 100**i) - exact) / exact for i in range(7)]
        assert all(a > b for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] < 1e-6, errors


class TestBlockKernelProperties:
    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 3),
        side=st.integers(2, 6),
        P=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_products_match_einsum_oracle(self, N, K, side, P, seed, data):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, K - 1), label="k")
        (dep, cfg), draw, stats = _random_unit(N, K, side, P, seed, n, k)
        channels = sample_unit_channels(stats, draw.g)
        kernel = BlockKernel(stats, channels, draw.w)
        rho_p, rho_d = transmit_snrs(dep, cfg)
        A, C, A_pure = reference.kernel_products(stats, draw.g, draw.w, rho_p)
        for got, want in ((kernel.A, A), (kernel.C, C)):
            assert_close(got, want, rtol=1e-12, atol=1e-13 * np.max(np.abs(want)))
        Y_pure = np.abs(A_pure) ** 2
        Y_pure[n, k] = 0.0
        I_perfect = float(np.sum(rho_d * Y_pure)) + stats.geom.own_power
        gamma_perfect = rho_d[n, k] * stats.geom.own_power**2 / I_perfect
        assert_close(exact_sinr(stats, channels), gamma_perfect, rtol=1e-12)

    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 3),
        side=st.integers(2, 5),
        P=st.integers(1, 4),
        t=st.integers(1, 500),
        factor=st.floats(1.0, 1e3),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_louder_interferer_never_raises_sinr(self, N, K, side, P, t, factor, seed, data):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, K - 1), label="k")
        others = [(l, j) for l in range(N) for j in range(K) if (l, j) != (n, k)]
        if not others:
            return
        l, j = data.draw(st.sampled_from(others), label="interferer")
        _, draw, stats = _random_unit(N, K, side, P, seed, n, k)
        louder = stats.geom.rho_d.copy()
        louder[l, j] *= factor
        loud_stats = reference.with_budget(stats, rho_d=louder)
        channels = sample_unit_channels(stats, draw.g)
        base, loud = (BlockKernel(s, channels, draw.w) for s in (stats, loud_stats))
        assert loud.gamma(t) <= base.gamma(t)
        assert exact_sinr(loud_stats, channels) <= exact_sinr(stats, channels)


class TestBatchedKernel:
    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 4),
        side=st.integers(2, 6),
        P=st.integers(1, 5),
        batch=st.integers(1, 7),
        ts=st.lists(st.integers(1, 500), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_batch_equals_loop_of_single_draws(self, N, K, side, P, batch, ts, seed, data):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, K - 1), label="k")
        _, _, stats = _random_unit(N, K, side, P, seed, n, k)
        rng = np.random.default_rng(seed + 2)
        g, w = cgauss(rng, (batch, N, K, P)), cgauss(rng, (batch, side * side))
        channels = sample_unit_channels(stats, g)
        assert channels.shape == (batch, N, K, side * side)
        single_channels = [sample_unit_channels(stats, g[r]) for r in range(batch)]
        for r in range(batch):
            assert_close(channels[r], single_channels[r])
        batched = BlockKernel(stats, channels, w)
        singles = [BlockKernel(stats, single_channels[r], w[r]) for r in range(batch)]
        exact = [exact_sinr(stats, ch) for ch in single_channels]
        assert_close(exact_sinr(stats, channels), exact)
        for t in ts:
            got = batched.terms(t)
            want = [one.terms(t) for one in singles]
            for name in ("X", "Y", "Z", "I", "gamma"):
                assert_close(getattr(got, name), [getattr(one, name) for one in want])
            assert got.Y.shape == (batch, N, K)
            assert np.all(got.Y[:, n, k] == 0.0)
            # a single draw has no leading axis: scalars and an (N, K) grid
            assert all(np.shape(getattr(one, name)) == ()
                       for one in want for name in ("X", "Z", "I", "gamma"))
            assert all(one.Y.shape == (N, K) for one in want)
        assert np.shape(exact[0]) == ()


class TestSingleLisTwin:
    """The single-LIS twin of a panel-0 unit is the panel-0 cut: its kernel
    and exact-filter SINR take ``slice_stats(stats, N=1)`` and the
    channels' panel-0 rows, and equal those of the single-LIS system built
    on its own (an N = 1 system over panel 0, fed that panel's slice of the
    draw and of the fading) bit for bit."""

    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 4),
        side=st.integers(2, 5),
        P=st.integers(1, 4),
        batch=st.sampled_from([None, 1, 3]),
        t=st.integers(1, 500),
        regime=st.sampled_from(["rician", "nlos_inter"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_twin_equals_single_panel_world_kernel(self, N, K, side, P, batch, t, regime,
                                                   seed, data):
        k = data.draw(st.integers(0, K - 1), label="k")
        (dep, cfg), draw, stats = _random_unit(N, K, side, P, seed, 0, k, regime)
        g, w = draw.g, draw.w
        if batch is not None:  # fresh draws on the same statistics
            rng = np.random.default_rng(seed + 2)
            g, w = cgauss(rng, (batch, N, K, P)), cgauss(rng, (batch, side * side))
        twin, ch = slice_stats(stats, N=1), sample_unit_channels(stats, g)
        got = BlockKernel(twin, ch[..., :1, :, :], w)
        solo_dep, solo_cfg = reference.panel(dep, 0), dataclasses.replace(cfg, N=1)
        cut = dataclasses.replace(draw, coins=draw.coins[:1], angles=draw.angles[:1],
                                  g=draw.g[:1])
        solo_stats = make_unit_stats(build_unit_geometry(panel_view(solo_dep, solo_cfg, 0), k), cut,
                                     solo_cfg, regime)
        solo_ch = sample_unit_channels(solo_stats, g[..., :1, :, :])
        want = BlockKernel(solo_stats, solo_ch, w)
        for name in ("X", "Y", "Z", "I", "gamma"):
            assert np.array_equal(getattr(got.terms(t), name), getattr(want.terms(t), name)), name
        assert np.array_equal(exact_sinr(twin, ch[..., :1, :, :]), exact_sinr(solo_stats, solo_ch))

    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 4),
        side=st.integers(2, 5),
        P=st.integers(1, 4),
        batch=st.sampled_from([None, 1, 3]),
        regime=st.sampled_from(["rician", "nlos_inter"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_one_panel_filter_is_the_los_vector(self, N, K, side, P, batch, regime, seed, data):
        """On one panel no device contaminates the estimate, so the filter
        is u = h_los: the cut kernel's A is the per-link dot ch . conj(h_los)
        that ``exact_sinr`` forms, bit for bit."""
        k = data.draw(st.integers(0, K - 1), label="k")
        _, draw, stats = _random_unit(N, K, side, P, seed, 0, k, regime)
        g, w = draw.g, draw.w
        if batch is not None:
            rng = np.random.default_rng(seed + 2)
            g, w = cgauss(rng, (batch, N, K, P)), cgauss(rng, (batch, side * side))
        ch = sample_unit_channels(stats, g)[..., :1, :, :]
        kernel = BlockKernel(slice_stats(stats, N=1), ch, w)
        want = (ch[..., np.newaxis, :] @ np.conj(stats.geom.hlos[0, k])[:, np.newaxis])[..., 0, 0]
        assert kernel.A.shape == want.shape
        assert np.array_equal(kernel.A, want)


class TestAdmittedCount:
    """One kernel on the statistics of K_max devices per panel serves every
    admitted count K > k: ``terms(t, K)`` equals a kernel built on the
    statistics and fading of the first K devices, bit for bit, K = 1
    included: every link's products are BLAS dots of their own, whatever
    the number of links batched with them."""

    @given(
        N=st.sampled_from([1, 2, 4]),
        K_max=st.integers(1, 6),
        side=st.integers(2, 6),
        P=st.integers(1, 5),
        batch=st.sampled_from([None, 1, 3]),
        t=st.integers(1, 500),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_prefix_terms_equal_kernel_on_sliced_stats(self, N, K_max, side, P, batch, t,
                                                       seed, data):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, K_max - 1), label="k")
        _, draw, stats = _random_unit(N, K_max, side, P, seed, n, k)
        g, w = draw.g, draw.w
        if batch is not None:  # fresh draws on the same statistics
            rng = np.random.default_rng(seed + 2)
            g, w = cgauss(rng, (batch, N, K_max, P)), cgauss(rng, (batch, side * side))
        kernel = BlockKernel(stats, sample_unit_channels(stats, g), w)
        for K in range(k + 1, K_max + 1):
            cut = reference.prefix_stats(stats, K)
            want = BlockKernel(cut, sample_unit_channels(cut, g[..., :K, :]), w).terms(t)
            got = kernel.terms(t, K)
            for name in ("X", "Y", "Z", "I", "gamma"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (name, K)
            assert np.array_equal(kernel.gamma(t, K), got.gamma)
        # no K admits every device the kernel was built on
        assert np.array_equal(kernel.gamma(t), kernel.gamma(t, K_max))
        with pytest.raises(ValueError, match="pilot index"):
            kernel.terms(t, k)


class TestUnitGeometry:
    def test_unit_rebuilds_equal_geometry(self, tiny_world):
        # each call builds the unit again, with equal arrays
        a, b = (build_unit_geometry(panel_view(*tiny_world, 0), 1) for _ in range(2))
        assert a is not b
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name

    def test_power_control_grids(self, tiny_world):
        # every unit carries the deployment's power control and its own
        # deterministic serving power
        dep, cfg = tiny_world
        for n, k in ((0, 0), (1, 1)):
            geom = build_unit_geometry(panel_view(dep, cfg, n), k)
            assert geom.rho_p.shape == (2, 2)
            assert np.all(geom.rho_p > 0)
            assert all(map(np.array_equal, (geom.rho_p, geom.rho_d), transmit_snrs(dep, cfg)))
            assert_close(geom.rho_d / geom.rho_p, np.full((2, 2), 10**0.3))
            p = quarter_solid_angle(cfg.L, dep.devices_local[n, k, 2])
            assert_close(geom.p_bar, cfg.M**2 * p**2 / (16.0 * math.pi**2 * cfg.L**4))

    def test_own_power_matches_geometry(self, tiny_world):
        # the serving link's power, from its own LOS vector
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 1), 1)
        antennas = reference.unit_antenna_grid(dep, cfg, 1, 1)
        power = reference.los_link(dep.devices[1, 1], antennas, dep.frames[1], cfg.lam)[2]
        assert_close(geom.own_power, power, rtol=1e-12)
        assert_close(geom.own_power, np.sum(np.abs(geom.hlos[1, 1]) ** 2), rtol=1e-15)
        assert geom.own_power > 0
