"""Multilevel random sampling schemes and sample-budget allocation.

Draws are per-level uniform without replacement via a partial Fisher-Yates
shuffle driven by the Philox counter-based generator, so a (seed, levels, m)
triple reproduces the same scheme on any platform.  Budget allocation
follows the per-level weights sum_l 2^(-|k-l|/2) s_l with largest-remainder
rounding; the constant in front is not knowable, so allocation is
calibrated to a user budget instead of claiming sufficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .wavelets import LevelStructure


@dataclass(frozen=True)
class SparsityProfile:
    """Per-level sparsity budget (s_1, ..., s_r)."""

    s: tuple

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(int(v) for v in self.s))
        if any(v < 0 for v in self.s) or not self.s:
            raise ValueError("sparsities must be non-negative and non-empty")

    @property
    def total(self):
        return sum(self.s)

    def validate(self, levels, require_min_total=True):
        if len(self.s) != levels.r:
            raise ValueError(f"profile has {len(self.s)} levels, structure has {levels.r}")
        m = levels.M
        for k, sk in enumerate(self.s, start=1):
            if sk > m[k] - m[k - 1]:
                raise ValueError(f"s_{k} = {sk} exceeds level capacity {m[k] - m[k-1]}")
        if require_min_total and self.total < 3:
            raise ValueError("total sparsity below 3 is outside the supported regime")


@dataclass
class SamplingScheme:
    """Union of per-level index draws Omega_1 ... Omega_r."""

    levels: LevelStructure
    m: tuple
    omegas: list = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        self.m = tuple(int(v) for v in self.m)
        if len(self.m) != self.levels.r or len(self.omegas) != self.levels.r:
            raise ValueError("per-level counts must match the level structure")
        n = self.levels.N
        omegas = []
        for k, om in enumerate(self.omegas, start=1):
            om = np.asarray(om, dtype=np.int64)
            if om.size != self.m[k - 1]:
                raise ValueError(f"level {k} holds {om.size} indices, expected {self.m[k-1]}")
            if om.size and (om.min() < n[k - 1] or om.max() >= n[k]):
                raise ValueError(f"level {k} indices leave the band [{n[k-1]}, {n[k]})")
            if np.unique(om).size != om.size:
                raise ValueError(f"level {k} indices repeat")
            omegas.append(np.sort(om))
        self.omegas = omegas

    @property
    def union(self):
        """All indices in canonical (increasing) order."""
        if not any(len(o) for o in self.omegas):
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.omegas)

    @property
    def total(self):
        return int(sum(self.m))


def _draw_without_replacement(gen, lo, hi, count):
    # partial Fisher-Yates on the band [lo, hi); only the positions a swap
    # has touched are stored, so memory is O(count) however wide the band
    moved = {}
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        j = i + int(gen.integers(0, hi - lo - i))
        out[i] = moved.get(j, j)
        moved[j] = moved.get(i, i)
    return out + lo


def draw_scheme(levels, m, seed):
    """Multilevel scheme with |Omega_k| = m_k drawn uniformly without
    replacement in each band, reproducible from the 64-bit seed."""
    m = tuple(int(v) for v in m)
    if len(m) != levels.r:
        raise ValueError(f"need {levels.r} per-level counts, got {len(m)}")
    n = levels.N
    for k, mk in enumerate(m, start=1):
        cap = int(n[k] - n[k - 1])
        if not 0 <= mk <= cap:
            raise ValueError(f"m_{k} = {mk} exceeds band capacity {cap}")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    omegas = [
        _draw_without_replacement(gen, int(n[k - 1]), int(n[k]), m[k - 1])
        for k in range(1, levels.r + 1)
    ]
    return SamplingScheme(levels=levels, m=m, omegas=omegas, seed=int(seed))


def flip_pattern(scheme):
    """Reverse the pattern by i -> N_r - 1 - i and rebin per level."""
    top = scheme.levels.N_r
    flipped = top - 1 - scheme.union
    n = scheme.levels.N
    omegas = []
    for k in range(1, scheme.levels.r + 1):
        band = flipped[(flipped >= n[k - 1]) & (flipped < n[k])]
        omegas.append(np.sort(band))
    return SamplingScheme(
        levels=scheme.levels,
        m=tuple(len(o) for o in omegas),
        omegas=omegas,
        seed=scheme.seed,
    )


def allocation_weights(profile, levels):
    """Per-level weights w_k = sum_l 2^(-|k-l|/2) s_l."""
    r = levels.r
    s = np.asarray(profile.s, dtype=float)
    k = np.arange(1, r + 1)
    return np.array([np.sum(2.0 ** (-np.abs(kk - k) / 2.0) * s) for kk in k])


def _largest_remainder(target, budget, caps, floors):
    """Integer apportionment of `budget` proportional to `target`, respecting
    per-level caps and floors; ties go to the lower level index."""
    target = np.asarray(target, dtype=float)
    caps = np.asarray(caps, dtype=np.int64)
    floors = np.asarray(floors, dtype=np.int64)
    if floors.sum() > budget:
        raise ValueError(f"budget {budget} cannot cover the per-level floors")
    alloc = floors.astype(np.int64).copy()
    remaining = budget - int(alloc.sum())
    # iterate because capping one level re-divides its share among the rest
    while remaining > 0:
        room = caps - alloc
        active = (room > 0) & (target > 0)
        if not active.any():
            active = room > 0
            if not active.any():
                raise ValueError("budget exceeds the total capacity of the levels")
        weights = np.where(active, np.maximum(target, 1e-300), 0.0)
        share = weights / weights.sum() * remaining
        give = np.minimum(np.floor(share).astype(np.int64), room)
        if give.sum() == 0:
            # distribute the leftovers by largest fractional remainder
            frac = np.where(active, share - np.floor(share), -1.0)
            order = np.lexsort((np.arange(len(frac)), -frac))
            for idx in order:
                if remaining == 0:
                    break
                if room[idx] > 0:
                    alloc[idx] += 1
                    remaining -= 1
            continue
        alloc += give
        remaining -= int(give.sum())
    return alloc


def allocate_budget(
    profile,
    levels,
    budget,
    policy="weights",
    full_first=False,
):
    """Split a sample budget over the levels.

    policy 'weights' makes m_k proportional to sum_l 2^(-|k-l|/2) s_l (the
    factor every level count shares, like log(1/epsilon), drops out of a
    proportional split); policy 'uniform' divides evenly.  full_first
    reserves the whole first band before splitting the rest, the
    configuration the experiments use.
    Largest-remainder rounding makes sum(m) == budget exact.
    """
    profile.validate(levels, require_min_total=False)
    n = levels.N
    caps = np.diff(n).astype(np.int64)
    if not 0 < budget <= int(n[-1]):
        raise ValueError(f"budget must lie in [1, N_r = {n[-1]}]")
    if policy not in ("weights", "uniform"):
        raise ValueError(f"unknown allocation policy {policy!r}")
    weights = (
        allocation_weights(profile, levels)
        if policy == "weights"
        else np.ones(levels.r)
    )
    floors = np.where(weights > 0, 1, 0).astype(np.int64)
    if full_first:
        if budget < caps[0]:
            raise ValueError(
                f"budget {budget} cannot sample the first level ({caps[0]}) fully"
            )
        floors[0] = caps[0]
        weights = weights.copy()
        weights[0] = 0.0
    m = _largest_remainder(weights, int(budget), caps, np.minimum(floors, caps))
    return tuple(int(v) for v in m)


def save_scheme(scheme, path):
    """Plain-text scheme: header with levels and seed, then one index per line."""
    lv = scheme.levels
    with open(path, "w") as fh:
        fh.write(
            f"# J0={lv.J0} r={lv.r} q={lv.q} seed={scheme.seed} "
            f"m={','.join(str(v) for v in scheme.m)}\n"
        )
        for idx in scheme.union:
            fh.write(f"{idx}\n")


def load_scheme(path):
    """Inverse of save_scheme; raises ValueError when the header lacks J0,
    r, q or m, an index leaves [0, N_r) or the per-level counts differ from
    the header's m."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("scheme file must start with a header line")
        fields = dict(
            part.split("=", 1) for part in header[1:].split() if "=" in part
        )
        indices = np.array([int(line) for line in fh if line.strip()], dtype=np.int64)
    missing = [key for key in ("J0", "r", "q", "m") if key not in fields]
    if missing:
        raise ValueError(f"scheme header lacks {', '.join(missing)}")
    levels = LevelStructure(int(fields["J0"]), int(fields["r"]), int(fields["q"]))
    seed = None if fields.get("seed") in (None, "None") else int(fields["seed"])
    if indices.size and (indices.min() < 0 or indices.max() >= levels.N_r):
        raise ValueError(f"scheme indices leave the sample range [0, {levels.N_r})")
    n = levels.N
    omegas = [
        indices[(indices >= n[k - 1]) & (indices < n[k])] for k in range(1, levels.r + 1)
    ]
    # the header's per-level counts are checked against the indices read
    m = tuple(int(v) for v in fields["m"].split(","))
    return SamplingScheme(levels=levels, m=m, omegas=omegas, seed=seed)
