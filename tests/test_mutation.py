import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smd.mutation as mutation
import smd.network as network
from smd.errors import ConfigurationError, ShapeError
from smd.mutation import (
    _COMPLEMENT_NS,
    SUBSPACE_MODES,
    MutationParams,
    child_patches,
    child_supports,
    derive_seed,
    sample_mask,
    sample_noise,
    spawn_mutations,
)
from smd.evolution import average_weights
from smd.network import NetworkSpec, ParamVector, predict

from oracles import (
    child_genome,
    float32_logits,
    mask_to_rle,
    partition_masks,
    rle_to_mask,
    seed_record_genome,
)


def f32_genome(rng, w):
    """Random float32-valued genome, as produced by checkpoint loading."""
    return ParamVector(rng.normal(0, 0.2, w).astype(np.float32).astype(np.float64))


def on_support(noise, mask, role):
    """A dense noise vector restricted to `role`'s support, in index order."""
    support = 1 - mask if role.endswith("'") else mask
    return noise[support == 1]


def quad(theta, noise, mask):
    """The four anti-random mirrored children of one (noise, mask) draw."""
    return tuple(
        child_genome(theta, on_support(noise, mask, r), mask, r) for r in ("+M", "+M'", "-M", "-M'")
    )


def working_genomes(theta, params, children):
    """Each child's whole float64 genome, written from `child_patches` into
    one working copy of theta the way `network.predict` writes its float32
    buffer: the previous support is restored from theta unless the next
    patch has the same index object. A yielded genome is valid until the
    next is written."""
    genome, written = ParamVector(theta.values.copy()), None
    for index, values in child_patches(theta, params, children):
        if written is not None and written is not index:
            genome.values[written] = theta.values[written]
        genome.values[index] = values
        written = index
        yield genome


def genomes(theta, params, children):
    """A copy of each child's genome, to keep."""
    return [ParamVector(g.values.copy()) for g in working_genomes(theta, params, children)]


class TestSampleMask:
    def test_rho_zero_all_ones(self):
        assert np.all(sample_mask(1000, 0.0, seed=1) == 1)

    def test_popcount_binomial_bounds_rho_09(self):
        # Bin(1e4, 0.1): mean 1000, sigma 30, 6-sigma interval
        for seed in range(10):
            pop = int(sample_mask(10_000, 0.9, seed).sum())
            assert 820 <= pop <= 1180

    def test_popcount_near_one_limit(self):
        pop = int(sample_mask(1_000_000, 0.999, seed=3).sum())
        assert 600 <= pop <= 1400

    def test_deterministic(self):
        assert np.array_equal(sample_mask(500, 0.5, 7), sample_mask(500, 0.5, 7))

    def test_rejects_rho_one(self, config_error):
        # `config.check` owns the rho range; a mask is never drawn at rho 1.
        mutation = {"sigma": 0.1, "rho": 1.0}
        assert config_error("evolve", mutation=mutation).startswith("mutation 'rho' must be")


class TestBlockedMaskDraw:
    """`sample_mask` draws its uniforms in fixed blocks; the one-shot
    comparison of a single w-length draw is the oracle for its bytes."""

    @pytest.mark.parametrize("w", [1, 5, 8_642, 65_536, 65_537, 527_874, 1_000_003])
    def test_matches_one_shot_draw(self, w):
        for rho in (0.0, 0.5, 0.9, 0.99):
            for seed in (0, 7, 2**63 + 11):
                oracle = (np.random.default_rng(seed).random(w) >= rho).astype(np.uint8)
                mask = sample_mask(w, rho, seed)
                assert mask.dtype == np.uint8
                assert mask.tobytes() == oracle.tobytes(), (w, rho, seed)

    def test_peak_memory_below_two_bytes_per_coordinate(self):
        w = 1_000_003
        tracemalloc.start()
        try:
            sample_mask(w, 0.9, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * w, peak / w


class TestPartitionMasks:
    def test_single_part_all_ones(self):
        (m,) = partition_masks(64, 1, seed=0)
        assert np.all(m == 1)

    def test_two_parts_are_complements(self):
        a, b = partition_masks(100, 2, seed=1)
        assert np.array_equal(b, 1 - a)

    def test_disjoint_exhaustive(self):
        masks = partition_masks(100, 4, seed=2)
        stacked = np.stack(masks)
        assert np.all(stacked.sum(axis=0) == 1)  # exactly one part per index
        assert sum(int(m.sum()) for m in masks) == 100

    def test_rejects_more_parts_than_params(self):
        with pytest.raises(ConfigurationError):
            partition_masks(3, 4, seed=0)


class TestSampleNoise:
    def test_mean_concentration(self):
        noise = sample_noise(1_000_000, 0.0, 0.01, seed=4)
        assert abs(noise.mean()) <= 6 * 0.01 / 1000

    def test_std_within_one_percent(self):
        noise = sample_noise(1_000_000, 0.0, 0.01, seed=5)
        assert abs(noise.std() - 0.01) <= 0.0001

    def test_deterministic(self):
        assert np.array_equal(sample_noise(100, 0.0, 1.0, 6), sample_noise(100, 0.0, 1.0, 6))

    def test_values_are_float32_representable(self):
        noise = sample_noise(1000, 0.0, 0.5, seed=7)
        assert np.array_equal(noise, noise.astype(np.float32).astype(np.float64))

    def test_nonzero_mu(self):
        noise = sample_noise(100_000, 3.0, 0.1, seed=8)
        assert noise.mean() == pytest.approx(3.0, abs=0.01)

    def test_rejects_nonpositive_sigma(self, config_error):
        # `config.check` owns the sigma range; noise is never drawn at sigma 0.
        mutation = {"sigma": 0.0, "rho": 0.5}
        assert config_error("evolve", mutation=mutation).startswith("mutation 'sigma' must be")

    def test_empty_support_draws_nothing(self):
        assert sample_noise(0, 0.0, 0.1, 0).shape == (0,)

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1e39), (1e39, 0.1), (-1e39, 0.1)])
    def test_draw_beyond_float32_names_mu_and_sigma(self, mu, sigma):
        # float32 tops out near 3.4e38: the quantized draw would be infinite.
        with pytest.raises(ConfigurationError, match="'mu' .* and 'sigma' .*float32 range"):
            sample_noise(10, mu, sigma, 0)

    def test_largest_finite_draws_pass(self):
        noise = sample_noise(1000, 0.0, 1e37, 0)
        assert np.isfinite(noise).all() and np.abs(noise).max() > 1e37


class TestChildGenomeOracle:
    """The genome builder: theta + sign * (noise * support)."""

    def test_compose_definitional(self):
        theta = ParamVector(np.zeros(3))
        mask = np.array([1, 0, 1], dtype=np.uint8)
        g = child_genome(theta, np.array([0.3, -0.2, 0.5])[mask == 1], mask, "+")
        assert np.array_equal(g.values, [0.3, 0.0, 0.5])

    def test_compose_zero_mask(self):
        zero, mask = ParamVector(np.zeros(2)), np.zeros(2, dtype=np.uint8)
        g = child_genome(zero, np.array([1.0, 2.0])[mask == 1], mask, "+")
        assert np.all(g.values == 0.0)

    def test_compose_ones_mask_is_identity(self, rng):
        noise = rng.normal(size=50)
        g = child_genome(ParamVector(np.zeros(50)), noise, np.ones(50, dtype=np.uint8), "+")
        assert np.array_equal(g.values, noise)

    def test_compose_length_mismatch(self):
        with pytest.raises(ShapeError):
            child_genome(ParamVector(np.zeros(3)), np.zeros(3), np.zeros(4, dtype=np.uint8), "+")
        with pytest.raises(ShapeError):
            child_genome(ParamVector(np.zeros(3)), np.zeros(4), np.zeros(3, dtype=np.uint8), "+")

    def test_apply_mirrored_pair_averages_to_parent(self, rng):
        theta = f32_genome(rng, 512)
        noise, mask = sample_noise(512, 0.0, 0.3, 9), sample_mask(512, 0.5, 10)
        plus = child_genome(theta, noise[mask == 1], mask, "+")
        minus = child_genome(theta, noise[mask == 1], mask, "-")
        assert np.array_equal((plus.values + minus.values) / 2.0, theta.values)

    def test_apply_zero_gamma_is_parent(self, rng):
        theta = f32_genome(rng, 64)
        mask = np.zeros(64, dtype=np.uint8)
        g = child_genome(theta, np.zeros(64)[mask == 1], mask, "+")
        assert np.array_equal(g.values, theta.values)

    def test_apply_negative_sign_example(self):
        theta = ParamVector(np.array([1.0, 1.0]))
        mask = np.array([1, 0], dtype=np.uint8)
        g = child_genome(theta, np.array([0.5, 0.7])[mask == 1], mask, "-")
        assert np.array_equal(g.values, [0.5, 1.0])

    def test_apply_rejects_bad_sign(self):
        theta = ParamVector(np.zeros(2))
        with pytest.raises(ConfigurationError):
            child_genome(theta, np.zeros(2), np.zeros(2, dtype=np.uint8), "+2")


class TestBruteForceOracle:
    """Elementwise reference implementations of the whole algebra."""

    @pytest.mark.parametrize("seed", range(100))
    def test_all_operations_against_elementwise_loops(self, seed):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(8, 10_000))
        theta = f32_genome(rng, w)
        rho = float(rng.uniform(0.0, 0.99))
        sigma = float(rng.uniform(0.01, 0.5))
        mask = sample_mask(w, rho, seed)
        noise = sample_noise(w, 0.0, sigma, seed + 1)

        gamma = child_genome(ParamVector(np.zeros(w)), noise[mask == 1], mask, "+").values
        expect_gamma = np.array([noise[i] * mask[i] for i in range(w)])
        assert np.array_equal(gamma, expect_gamma)

        comp = 1 - mask

        child = child_genome(theta, noise[mask == 1], mask, "-")
        expect_child = np.array([theta.values[i] - gamma[i] for i in range(w)])
        assert np.array_equal(child.values, expect_child)

        c1, c2, c3, c4 = quad(theta, noise, mask)
        for got, sign, m in ((c1, +1, mask), (c2, +1, comp), (c3, -1, mask), (c4, -1, comp)):
            expect = np.array([theta.values[i] + sign * noise[i] * m[i] for i in range(w)])
            assert np.array_equal(got.values, expect)

        # frozen coordinates are bit-identical to the parent
        frozen = mask == 0
        for c in (c1, c3):
            assert np.array_equal(c.values[frozen], theta.values[frozen])
        for c in (c2, c4):
            assert np.array_equal(c.values[~frozen], theta.values[~frozen])

        # the quad mean recovers the parent exactly
        mean = (c1.values + c2.values + c3.values + c4.values) / 4.0
        assert np.array_equal(mean, theta.values)

        n_parts = int(rng.integers(1, 8))
        parts = partition_masks(w, n_parts, seed)
        assert np.all(np.stack(parts).sum(axis=0) == 1)


class TestMirroredPairs:
    def test_pair_sums_to_twice_parent(self, rng):
        theta = f32_genome(rng, 256)
        noise = sample_noise(256, 0.0, 0.2, 11)
        mask = sample_mask(256, 0.5, 12)
        c1, c2, c3, c4 = quad(theta, noise, mask)
        assert np.array_equal(c1.values + c3.values, 2.0 * theta.values)
        assert np.array_equal(c2.values + c4.values, 2.0 * theta.values)

    def test_masked_parts_recombine_to_full_noise(self, rng):
        theta = f32_genome(rng, 128)
        noise = sample_noise(128, 0.0, 0.2, 13)
        mask = sample_mask(128, 0.5, 14)
        c1, c2, _, _ = quad(theta, noise, mask)
        assert np.array_equal((c1.values - theta.values) + (c2.values - theta.values), noise)

    def test_norm_law(self):
        # E ||gamma||^2 = (1 - rho) * w * sigma^2 at mu = 0
        w, rho, sigma = 10_000, 0.5, 0.1
        norms = []
        zero = ParamVector(np.zeros(w))
        for seed in range(100):
            mask = sample_mask(w, rho, 1000 + seed)
            g = child_genome(zero, sample_noise(w, 0.0, sigma, seed)[mask == 1], mask, "+")
            norms.append(float((g.values**2).sum()))
        expected = (1 - rho) * w * sigma**2
        assert np.mean(norms) == pytest.approx(expected, rel=0.05)


class TestSpawnMutations:
    def params(self, **kw):
        base = dict(sigma=0.1, rho=0.5)
        base.update(kw)
        return MutationParams(**base)

    def test_quad_population_of_16(self, rng):
        theta = f32_genome(rng, 200)
        children = spawn_mutations(theta, self.params(anti_random=True), 16, master_seed=1)
        assert len(children) == 16
        assert sorted({c.group for c in children}) == [0, 1, 2, 3]
        built = genomes(theta, self.params(anti_random=True), children)
        distinct = {g.values.tobytes() for g in built}
        assert len(distinct) == 16  # all distinct

    def test_mirrored_pair(self, rng):
        theta = f32_genome(rng, 100)
        pair = spawn_mutations(theta, self.params(), 2, master_seed=2)
        assert [c.role for c in pair] == ["+", "-"]
        plus, minus = genomes(theta, self.params(), pair)
        assert np.array_equal((plus.values + minus.values) / 2.0, theta.values)

    def test_static_mode_shares_mask_support(self, rng):
        theta = f32_genome(rng, 400)
        params = self.params(subspace_mode="static", mirrored=True)
        children = spawn_mutations(theta, params, 8, master_seed=3)
        supports = {(g.values != theta.values).tobytes() for g in genomes(theta, params, children)}
        # one mask: every child touches exactly the same coordinates
        assert len({c.mask_seed for c in children}) == 1
        assert len(supports) <= 2  # +/- pairs share support; noise varies per pair

    def test_static_mode_uses_fresh_noise_per_group(self, rng):
        theta = f32_genome(rng, 400)
        params = self.params(subspace_mode="static")
        built = genomes(theta, params, spawn_mutations(theta, params, 4, master_seed=4))
        assert not np.array_equal(built[0].values, built[2].values)

    def test_dynamic_mode_draws_fresh_masks(self, rng):
        theta = f32_genome(rng, 400)
        children = spawn_mutations(theta, self.params(), 8, master_seed=5)
        assert len({c.mask_seed for c in children}) == 4  # one per pair

    def test_anti_random_only_pairs(self, rng):
        theta = f32_genome(rng, 300)
        params = self.params(mirrored=False, anti_random=True)
        children = spawn_mutations(theta, params, 4, master_seed=6)
        assert [c.role for c in children[:2]] == ["+M", "+M'"]
        # the pair's supports are disjoint and exhaustive
        first, second = genomes(theta, params, children[:2])
        a = first.values != theta.values
        b = second.values != theta.values
        assert not np.any(a & b)

    def test_plain_spawning_any_size(self, rng):
        theta = f32_genome(rng, 64)
        children = spawn_mutations(
            theta, self.params(mirrored=False, anti_random=False), 5, master_seed=7
        )
        assert len(children) == 5
        assert all(c.role == "solo" for c in children)

    @pytest.mark.parametrize(
        "mirrored,anti,pop",
        [(True, True, 6), (True, True, 15), (True, False, 3), (False, True, 5)],
    )
    def test_divisibility_violations(self, rng, mirrored, anti, pop):
        theta = f32_genome(rng, 32)
        with pytest.raises(ConfigurationError):
            spawn_mutations(
                theta, self.params(mirrored=mirrored, anti_random=anti), pop, master_seed=8
            )

    def test_deterministic_and_order_independent(self, rng):
        theta = f32_genome(rng, 128)
        params = self.params(anti_random=True)
        a = spawn_mutations(theta, params, 8, master_seed=9)
        b = spawn_mutations(theta, params, 8, master_seed=9)
        for x, y in zip(genomes(theta, params, a), genomes(theta, params, b[::-1])[::-1]):
            assert np.array_equal(x.values, y.values)
        for x, y in zip(a, b):
            assert (x.seed, x.mask_seed, x.group, x.role) == (y.seed, y.mask_seed, y.group, y.role)

    def test_frozen_coordinates_bit_identical(self, rng):
        theta = f32_genome(rng, 512)
        params = self.params(rho=0.9)
        children = spawn_mutations(theta, params, 4, master_seed=10)
        for child, genome in zip(children, genomes(theta, params, children)):
            mask = sample_mask(512, params.rho, child.mask_seed)
            support = mask == 0 if child.role in ("+M'", "-M'") else mask == 1
            assert np.array_equal(genome.values[~support], theta.values[~support])


class TestSupportDraw:
    """A child's noise is drawn on its support only, so building a sparse
    child holds no dense noise vector."""

    def test_pair_build_memory_is_o_support(self, rng):
        w = 200_000
        theta = f32_genome(rng, w)
        params = MutationParams(sigma=0.1, rho=0.99)
        children = spawn_mutations(theta, params, 2, master_seed=1)
        tracemalloc.start()
        try:
            for _ in child_patches(theta, params, children):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a patch takes O(support); one dense float64 draw alone adds w*8
        assert peak < 1.75 * w * 8
        plus, minus = genomes(theta, params, children)
        assert np.array_equal((plus.values + minus.values) / 2.0, theta.values)

    def test_rho_zero_keeps_the_dense_draw(self, rng):
        theta = f32_genome(rng, 1000)
        params = MutationParams(sigma=0.1, rho=0.0, anti_random=True)
        children = spawn_mutations(theta, params, 4, master_seed=2)
        noise = sample_noise(1000, 0.0, 0.1, children[0].seed)
        plus_m, plus_comp, minus_m, minus_comp = genomes(theta, params, children)
        assert np.array_equal(plus_m.values, theta.values + noise)
        assert np.array_equal(minus_m.values, theta.values - noise)
        assert plus_comp.values.tobytes() == theta.values.tobytes()
        assert minus_comp.values.tobytes() == theta.values.tobytes()


    def test_rho_zero_draws_no_mask_and_never_writes_theta(self, rng, monkeypatch):
        """At rho 0 a support is the full slice, whose gather is a view of
        theta: neither the patches nor their consumers may write through it."""
        theta = f32_genome(rng, NetworkSpec([3, 16, 2]).param_count())
        before = theta.values.tobytes()
        params = MutationParams(sigma=0.1, rho=0.0)
        children = spawn_mutations(theta, params, 4, master_seed=3)
        monkeypatch.setattr(mutation, "sample_mask", lambda *args: pytest.fail("a mask was drawn"))
        patches = []
        for patch in child_patches(theta, params, children):  # a mirrored pair would cancel
            assert theta.values.tobytes() == before
            patches.append(patch)
        assert [index for index, _ in patches] == [slice(None)] * 4
        assert patches[0][0] is patches[1][0]  # mirrored partners share one index object
        average_weights(theta, iter(patches))
        list(predict(NetworkSpec([3, 16, 2]), theta, iter(patches), np.ones((2, 3))))
        assert theta.values.tobytes() == before


class TestRoleTable:
    """Every spawning strategy against the meaning of the role names: a
    leading '-' negates the noise, a trailing "'" perturbs the complement,
    whose values come from their own stream. The k-th value of a stream
    goes to the k-th coordinate of its support. Every third coordinate of
    theta is -0.0, so a frozen coordinate that is written shows in its bits."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        mirrored=st.booleans(),
        anti_random=st.booleans(),
        subspace_mode=st.sampled_from(SUBSPACE_MODES),
        master_seed=st.integers(0, 2**32 - 1),
        theta_seed=st.integers(0, 2**32 - 1),
        w=st.integers(1, 300),
        rho=st.floats(0.0, 0.95),
    )
    def test_genomes_follow_roles(
        self, mirrored, anti_random, subspace_mode, master_seed, theta_seed, w, rho
    ):
        theta = f32_genome(np.random.default_rng(theta_seed), w)
        theta.values[::3] = -0.0
        params = MutationParams(
            sigma=0.1, rho=rho, subspace_mode=subspace_mode,
            mirrored=mirrored, anti_random=anti_random,
        )
        group = (2 if mirrored else 1) * (2 if anti_random else 1)
        children = spawn_mutations(theta, params, 3 * group, master_seed)
        built = genomes(theta, params, children)
        by_group = {}
        for child, genome in zip(children, built, strict=True):
            mask = sample_mask(w, rho, child.mask_seed)
            sign = -1.0 if child.role.startswith("-") else 1.0
            on_complement = child.role.endswith("'")
            support = (1 - mask) if on_complement else mask
            stream = derive_seed(child.seed, _COMPLEMENT_NS) if on_complement else child.seed
            noise = np.zeros(w)
            noise[support == 1] = sample_noise(int(support.sum()), 0.0, 0.1, stream)
            assert np.array_equal(genome.values, theta.values + sign * noise * support)
            frozen = support == 0
            assert genome.values[frozen].tobytes() == theta.values[frozen].tobytes()
            by_group.setdefault(child.group, []).append(genome.values)
        assert len(by_group) == 3
        if mirrored:
            for members in by_group.values():
                assert np.array_equal(np.mean(members, axis=0), theta.values)


# (mirrored, anti_random): every role, solo, +/-, +M/+M' and +M/+M'/-M/-M'.
STRATEGIES = [(False, False), (True, False), (False, True), (True, True)]


class TestWorkingGenome:
    """A scoring pass writes each child's patch onto one working copy of
    the parent; every child must equal the genome
    `oracles.seed_record_genome` rebuilds from its seed record, and the
    parent must never be written."""

    SPEC = NetworkSpec([3, 32, 32, 2], seed=1)

    def pass_setup(self, mirrored, anti_random, mode, rho):
        theta = f32_genome(np.random.default_rng(5), self.SPEC.param_count())
        theta.values[::7] = -0.0  # a written frozen coordinate would show in its bits
        params = MutationParams(
            sigma=0.1, rho=rho, subspace_mode=mode, mirrored=mirrored, anti_random=anti_random
        )
        group = (2 if mirrored else 1) * (2 if anti_random else 1)
        return theta, params, spawn_mutations(theta, params, 3 * group, master_seed=8)

    @pytest.mark.parametrize("rho", [0.0, 0.9])
    @pytest.mark.parametrize("mode", SUBSPACE_MODES)
    @pytest.mark.parametrize("mirrored, anti_random", STRATEGIES)
    def test_matches_owned_genomes(self, mirrored, anti_random, mode, rho):
        theta, params, children = self.pass_setup(mirrored, anti_random, mode, rho)
        before = theta.values.tobytes()
        owned = [seed_record_genome(theta, params, child) for child in children]
        working = [g.values.tobytes() for g in working_genomes(theta, params, children)]
        assert working == [g.values.tobytes() for g in owned]
        assert len(set(working)) > 1
        x = np.random.default_rng(6).normal(size=(20, 3))
        scored = predict(self.SPEC, theta, child_patches(theta, params, children), x)
        for genome, (_, got, _) in zip(owned, scored, strict=True):
            assert got.tobytes() == float32_logits(self.SPEC, genome, x).tobytes()
        assert theta.values.tobytes() == before

    @pytest.mark.parametrize("mirrored, anti_random", STRATEGIES)
    def test_pass_closed_midway_leaves_the_parent(self, mirrored, anti_random):
        theta, params, children = self.pass_setup(mirrored, anti_random, "dynamic", 0.5)
        before = theta.values.tobytes()
        patches = child_patches(theta, params, children)
        for index, values in itertools.islice(patches, len(children) // 2 + 1):
            assert values.tobytes() != theta.values[index].tobytes()
        patches.close()
        assert theta.values.tobytes() == before

    def test_huge_noise_on_a_huge_parent_is_an_error(self):
        theta = ParamVector(np.full(self.SPEC.param_count(), 1.7e308))
        x = np.zeros((4, 3))
        params = MutationParams(sigma=1e39, rho=0.5)
        children = spawn_mutations(theta, params, 2, master_seed=1)
        with pytest.raises(ConfigurationError):
            next(predict(self.SPEC, theta, child_patches(theta, params, children), x))

    def test_overflowing_write_is_an_error(self, monkeypatch):
        """Float32-range noise cannot overflow a finite float64 parent; the
        write checks what it writes all the same, and writes nothing bad."""
        theta = ParamVector(np.full(self.SPEC.param_count(), 1.7e308))
        params = MutationParams(sigma=0.1, rho=0.5)
        children = spawn_mutations(theta, params, 2, master_seed=1)
        monkeypatch.setattr(mutation, "sample_noise", lambda n, *args: np.full(n, 1e308))
        with pytest.raises(ConfigurationError, match="non-finite"):
            next(child_patches(theta, params, children))
        assert np.all(theta.values == 1.7e308)


class TestPatchPass:
    """The patch pass against whole genomes rebuilt from seed records, for
    every strategy and mode, at rho 0 (the dense baseline, where the rules
    allow it), 0.5 and 0.9, in a first generation and in a second one whose
    parent is a chained, float32-quantized average."""

    SPEC = NetworkSpec([3, 16, 2], seed=4)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        mirrored=st.booleans(),
        anti_random=st.booleans(),
        mode=st.sampled_from(SUBSPACE_MODES),
        rho=st.sampled_from([0.0, 0.5, 0.9]),
        generations=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_patches_are_the_seed_record_genomes(
        self, mirrored, anti_random, mode, rho, generations, seed
    ):
        assume(rho > 0 or not anti_random)  # at rho 0 the complement M' is empty
        params = MutationParams(
            sigma=0.1, rho=rho, subspace_mode=mode, mirrored=mirrored, anti_random=anti_random
        )
        group = (2 if mirrored else 1) * (2 if anti_random else 1)
        theta = f32_genome(np.random.default_rng(seed), self.SPEC.param_count())
        theta.values[::5] = -0.0  # a written frozen coordinate would show in its bits
        x = np.random.default_rng(seed + 1).normal(size=(8, 3))
        for gen in range(generations):
            before = theta.values.tobytes()
            children = spawn_mutations(theta, params, 2 * group, derive_seed(seed, gen))
            owned = [seed_record_genome(theta, params, c) for c in children]
            buffers, layers = [], network._layers

            def recording(spec, values, *args):
                buffers.append(values.copy())
                return layers(spec, values, *args)

            with mock.patch.object(network, "_layers", recording):
                scored = list(predict(self.SPEC, theta, child_patches(theta, params, children), x))
            for child, genome, buffer, (_, logits, _) in zip(
                children, owned, buffers, scored, strict=True
            ):
                assert logits.tobytes() == float32_logits(self.SPEC, genome, x).tobytes()
                assert buffer.tobytes() == genome.values.astype(np.float32).tobytes()
                mask = sample_mask(theta.w, rho, child.mask_seed)
                frozen = (mask == 1) if child.role.endswith("'") else (mask == 0)
                f32_theta = theta.values[frozen].astype(np.float32)
                assert buffer[frozen].tobytes() == f32_theta.tobytes()
            chosen = [children[0], children[-1]]
            average = average_weights(theta, child_patches(theta, params, chosen))
            total = owned[0].values.copy()
            total += owned[-1].values
            total /= 2
            assert average.values.tobytes() == total.tobytes()
            if mirrored:  # by value: a -0.0 on the support averages back to 0.0
                pair = children[: group : group // 2]  # + and - on one support
                pair = average_weights(theta, child_patches(theta, params, pair))
                assert np.array_equal(pair.values, theta.values)
            assert theta.values.tobytes() == before
            theta = ParamVector(average.values.astype(np.float32).astype(np.float64))


class TestMaskDraws:
    """A pass draws a mask once per run of children that share it: once per
    group in dynamic mode, once per pass in static mode."""

    @pytest.mark.parametrize(
        "builder",
        [
            pytest.param(lambda theta, *args: child_supports(theta.w, *args), id="child_supports"),
            working_genomes,
        ],
    )
    @pytest.mark.parametrize("mode, draws", [("static", 1), ("dynamic", 4)])
    @pytest.mark.parametrize("mirrored, anti_random", STRATEGIES)
    def test_mask_draws_per_pass(
        self, monkeypatch, builder, mode, draws, mirrored, anti_random
    ):
        rng = np.random.default_rng(9)
        theta = f32_genome(rng, 500)
        params = MutationParams(
            sigma=0.1, rho=0.5, subspace_mode=mode, mirrored=mirrored, anti_random=anti_random
        )
        group = (2 if mirrored else 1) * (2 if anti_random else 1)
        children = spawn_mutations(theta, params, 4 * group, master_seed=3)
        seeds = []

        def counting(w, rho, seed):
            seeds.append(seed)
            return sample_mask(w, rho, seed)

        monkeypatch.setattr(mutation, "sample_mask", counting)
        for _ in builder(theta, params, children):
            pass
        assert len(seeds) == draws
        assert len(set(seeds)) == draws


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(42, 0, 1)
        assert a == derive_seed(42, 0, 1)
        assert a != derive_seed(42, 0, 2)
        assert a != derive_seed(43, 0, 1)


class TestRle:
    def test_round_trip(self, rng):
        mask = sample_mask(257, 0.4, 15)
        assert np.array_equal(rle_to_mask(mask_to_rle(mask)), mask)

    def test_format(self):
        assert mask_to_rle(np.array([1, 1, 0, 0, 0, 1], dtype=np.uint8)) == "1x2 0x3 1x1"


class TestMutationParams:
    """`MutationParams` is a plain record: `config.check` checks each
    mutation value before one is built."""

    @pytest.mark.parametrize("kw", [{"sigma": 0.0}, {"rho": 1.0}, {"rho": -0.1}])
    def test_validation(self, kw, config_error):
        (key,) = kw
        mutation = dict({"sigma": 0.1, "rho": 0.5}, **kw)
        assert config_error("evolve", mutation=mutation).startswith(f"mutation '{key}' must be")

    def test_subspace_mode_validated(self, config_error):
        mutation = {"sigma": 0.1, "rho": 0.5, "subspace_mode": "chaotic"}
        message = config_error("evolve", mutation=mutation)
        assert message.startswith("mutation 'subspace_mode' must be")
