"""Masked Gaussian mutation algebra for flat parameter genomes.

Masks are 0/1 uint8 vectors (1 = parameter mutated, 0 = frozen). `rho` is
the expected FROZEN fraction throughout the package: a mask bit is 1 with
probability (1 - rho), so rho = 0.9 mutates roughly 10% of parameters.

A child's noise lives on its support only: its group's mask M, or the
complement M' for the anti-random roles. One Gaussian value is drawn per
support coordinate, and the k-th value goes to the k-th support index in
ascending order. M draws from the group's noise seed, M' from a seed
derived from it, so a draw costs O(support), not O(w). At rho 0 the
support is every coordinate, a full slice rather than an index array,
and the draw is the full dense vector. `child_supports` is the one
function that locates a child's support and draws its noise.

Noise values are quantized to float32-representable values. Parents
loaded from checkpoints are float32-valued too, so sums theta +- gamma of
two 24-bit significands are exact in float64 arithmetic: mirrored pairs
cancel exactly. Frozen coordinates are never written, so they stay
bit-identical (-0.0 included).

A child exists only as a patch: its support index and its values there,
theta[support] +- noise. `child_patches` yields each child's patch in
turn, so a child costs O(support) memory and work, and no pass builds a
w-length child genome. Mirrored partners share one index object, so a
consumer can tell that a child overwrites the support before it.
`network.predict` scores a patch stream on one float32 buffer, and
`evolution.average_weights` sums one into a weight average. This module
never runs a network.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .network import ParamVector

SUBSPACE_MODES = ("static", "dynamic")

# Spawn-key namespaces for per-purpose seed derivation.
_MASK_NS = 0
_NOISE_NS = 1
_COMPLEMENT_NS = 2  # the M' stream, derived from the group's noise seed

# Uniforms per block of a mask draw: 256 KiB of float64 scratch at any w.
_MASK_BLOCK = 32_768


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit seed for (master_seed, key...).

    Counter-based: every consumer derives its own stream, so results do
    not depend on evaluation order.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class MutationParams:
    """Child-generation distribution: N(mu, sigma^2) noise restricted to a
    Bernoulli(1 - rho) support, plus the subspace and sampling strategy."""

    sigma: float
    rho: float
    mu: float = 0.0
    subspace_mode: str = "dynamic"
    mirrored: bool = True
    anti_random: bool = False


def sample_mask(w: int, rho: float, seed: int) -> np.ndarray:
    """Bernoulli mask of length w; each bit is 1 with probability 1 - rho.

    Bit i is `u_i >= rho` for the i-th uniform of the seed's stream. The
    uniforms are drawn in blocks of `_MASK_BLOCK` into one reused buffer,
    which consumes the stream in the same order as one w-length draw.
    """
    rng = np.random.default_rng(seed)
    mask = np.empty(w, dtype=np.uint8)
    bits = mask.view(bool)  # the compare writes 0/1 bytes straight into the mask
    buf = np.empty(min(w, _MASK_BLOCK))
    for start in range(0, w, _MASK_BLOCK):
        u = buf[: min(_MASK_BLOCK, w - start)]
        rng.random(out=u)
        np.greater_equal(u, rho, out=bits[start : start + u.size])
    return mask


def sample_noise(n: int, mu: float, sigma: float, seed: int) -> np.ndarray:
    """n i.i.d. Gaussian values, quantized to float32 values; n = 0 gives
    an empty draw (an empty support).

    The quantization (relative error ~6e-8) keeps theta +- noise exact in
    float64 for float32-valued parents; see module docstring. A value
    beyond the float32 range is an error that names mu and sigma.
    """
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        noise = rng.normal(mu, sigma, size=n).astype(np.float32)
    if not np.isfinite(noise).all():
        raise ConfigurationError(
            f"mutation 'mu' {mu!r} and 'sigma' {sigma!r} draw noise beyond the float32 range"
        )
    return noise.astype(np.float64)


# Role table: each role's sign, and whether it perturbs its group's mask M
# (False) or the complement M' (True).
ROLES = {
    "solo": (+1, False),
    "+": (+1, False),
    "-": (-1, False),
    "+M": (+1, False),
    "+M'": (+1, True),
    "-M": (-1, False),
    "-M'": (-1, True),
}


# The roles of one spawning group, keyed on (mirrored, anti_random).
_GROUP_ROLES = {
    (True, True): ("+M", "+M'", "-M", "-M'"),
    (True, False): ("+", "-"),
    (False, True): ("+M", "+M'"),
    (False, False): ("solo",),
}


def group_roles(mirrored: bool, anti_random: bool, pop_size: int) -> tuple[str, ...]:
    """The roles of one spawning group of this strategy; a population of
    pop_size must split into whole groups."""
    roles = _GROUP_ROLES[mirrored, anti_random]
    if pop_size % len(roles) != 0:
        raise ConfigurationError(
            f"spawning in groups {roles} needs pop_size divisible by {len(roles)}, "
            f"got {pop_size}"
        )
    return roles


@dataclass(frozen=True)
class Child:
    """One child, stored as the seeds and role that rebuild its genome."""

    seed: int  # noise seed of this child's group
    mask_seed: int
    group: int  # quad/pair index, or child index for independent children
    role: str  # a key of ROLES


def spawn_mutations(
    theta: ParamVector,
    params: MutationParams,
    pop_size: int,
    master_seed: int,
) -> list[Child]:
    """Seed records for a population of pop_size children of theta.

    Static subspace mode reuses one mask (derived from master_seed alone)
    for every group with fresh noise per group; dynamic mode draws a fresh
    mask per group. All randomness derives from (master_seed, purpose,
    group), so the result is independent of evaluation order. No genome is
    built here: `child_patches` yields each child's patch while it is needed.
    """
    roles = group_roles(params.mirrored, params.anti_random, pop_size)
    static_mask_seed = derive_seed(master_seed, _MASK_NS)
    children: list[Child] = []
    for group in range(pop_size // len(roles)):
        if params.subspace_mode == "static":
            mask_seed = static_mask_seed
        else:
            mask_seed = derive_seed(master_seed, _MASK_NS, group)
        noise_seed = derive_seed(master_seed, _NOISE_NS, group)
        children.extend(Child(noise_seed, mask_seed, group, role) for role in roles)
    return children


def child_patches(
    theta: ParamVector, params: MutationParams, children: Iterable[Child]
) -> Iterator[tuple[np.ndarray | slice, np.ndarray]]:
    """Each child's patch, in order: its support index and its values
    there, theta[index] + sign * noise, as a new float64 array.

    A mirrored partner's index is the same object as its partner's. The
    values are checked finite; every other coordinate of the child is
    theta's, which was checked when theta was built. A value that is not
    finite (a float64 overflow) is an error. theta is never written.
    """
    for sign, index, noise in child_supports(theta.w, params, children):
        values = gather(theta.values, index)
        with np.errstate(over="ignore"):
            if sign > 0:
                values += noise
            else:
                values -= noise
        if not np.isfinite(values).all():
            raise ConfigurationError(
                "mutation noise added to the parent gives non-finite parameters"
            )
        noise = None  # so the next group's noise is not drawn while this one is held
        yield index, values


def gather(values: np.ndarray, index: np.ndarray | slice) -> np.ndarray:
    """`values[index]` as an array of its own, safe to write: an index
    array's gather is already a copy, and the full slice's view is copied."""
    picked = values[index]
    return picked.copy() if isinstance(index, slice) else picked


def child_supports(
    w: int, params: MutationParams, children: Iterable[Child]
) -> Iterator[tuple[int, np.ndarray | slice, np.ndarray]]:
    """Each child's sign, support indices and noise values, in order.

    This is the one place that maps a seed record to the coordinates its
    child perturbs: `child_patches` patches them, and an evolve report's
    `per_child` records with its `config.mutation` echo rebuild them. A
    mask is drawn once per run of consecutive children that share its
    seed: once per group in dynamic mode, once per pass in static mode.
    Each support of a mask (M, or M' for the anti-random roles) is located
    once, and the mask is released once every support the strategy uses is
    located. At rho 0 every mask bit is 1 whatever its seed, so no mask is
    drawn: M is `slice(None)`, every coordinate, and M' is empty. Noise is
    drawn once per support and group. Children on one support share one
    index object, so `written is index` tells a consumer of patches that a
    child overwrites the support before it.
    """
    supports_used = 2 if params.anti_random else 1
    mask_seed = drawn = None
    for child in children:
        sign, on_complement = ROLES[child.role]
        if child.mask_seed != mask_seed:
            mask = index = noise = None  # release the previous draws before sampling
            mask_seed, index = child.mask_seed, {}
        if on_complement not in index and params.rho == 0:
            index[on_complement] = np.empty(0, np.intp) if on_complement else slice(None)
        elif on_complement not in index:
            if mask is None:
                mask = sample_mask(w, params.rho, mask_seed)
            bits = mask.view(bool)
            index[on_complement] = np.flatnonzero(~bits if on_complement else bits)
            if len(index) >= supports_used:
                mask = bits = None  # the view holds the mask too
        if drawn != (child.seed, mask_seed):
            drawn, noise = (child.seed, mask_seed), {}
        if on_complement not in noise:
            seed = derive_seed(child.seed, _COMPLEMENT_NS) if on_complement else child.seed
            support = index[on_complement]
            size = w if isinstance(support, slice) else support.size
            noise[on_complement] = sample_noise(size, params.mu, params.sigma, seed)
        yield sign, index[on_complement], noise[on_complement]
