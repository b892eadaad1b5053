"""Size-fair eviction beats uniform eviction (Section III-G), small scale.

A scaled-down copy of ``benchmarks/test_ablation_eviction.py``: hot
small extents and cold large ones share a pool.  Size-fair eviction
reclaims the cold large extents first, so it keeps a higher hit ratio
and reads fewer bytes than uniform eviction at the same capacity.
"""

import random

import pytest

from repro.buffer.vmcache import VmcachePool
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe

POOL_PAGES = 128
SMALL_EXTENT = 2
LARGE_EXTENT = 32
N_SMALL = 150
N_HOT = 16
N_LARGE = 12
OPS = 1000


def run_policy(policy: str, seed: int) -> dict:
    model = CostModel()
    device = SimulatedNVMe(model, capacity_pages=1 << 14)
    pool = VmcachePool(device, model, capacity_pages=POOL_PAGES,
                       eviction_seed=seed)
    pool.eviction_policy = policy
    smalls = [(100 + i * SMALL_EXTENT, SMALL_EXTENT) for i in range(N_SMALL)]
    larges = [(4000 + i * LARGE_EXTENT, LARGE_EXTENT)
              for i in range(N_LARGE)]
    rng = random.Random(8)
    for _ in range(OPS):
        if rng.random() < 0.9:
            extent = smalls[rng.randrange(N_HOT)]
        else:
            extent = larges[rng.randrange(N_LARGE)]
        pool.unpin(pool.fetch_extents([extent]))
    return dict(hit_ratio=pool.stats.hit_ratio,
                bytes_read=device.stats.bytes_read)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_fair_eviction_beats_uniform(seed):
    fair, uniform = run_policy("fair", seed), run_policy("uniform", seed)
    assert fair["hit_ratio"] > uniform["hit_ratio"]
    assert fair["bytes_read"] < uniform["bytes_read"]
