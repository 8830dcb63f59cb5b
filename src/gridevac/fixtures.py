"""Bundled synthetic feeders used by the test suite, docs, and CLI examples.

All fixtures are fully deterministic (seeded) and desk-scale. The "weak"
feeder is tuned so the grid-blind schedule causes under-voltage violations,
which exercises the constraint-generation loop; its base case (no EV load)
is violation-free by construction.
"""

from __future__ import annotations

from .netmodel import FeederSpec, generate_synthetic_feeder


def tiny_feeder(seed: int = 3):
    """Minimal single-phase scenario: 4 buses, 1 TAZ, strong grid."""
    spec = FeederSpec(
        n_buses=4, phases="a", n_tazs=1, evs_per_taz=2, seed=seed,
        T=12, beta=4, base_kva=500.0,
    )
    return generate_synthetic_feeder(spec)


def three_phase_feeder(seed: int = 11):
    """Small three-phase scenario with mutual coupling, strong grid."""
    spec = FeederSpec(
        n_buses=5, phases="abc", n_tazs=2, evs_per_taz=1, seed=seed,
        T=12, beta=3, base_kva=750.0,
    )
    return generate_synthetic_feeder(spec)


def weak_feeder(seed: int = 7):
    """Electrically weak single-phase feeder: simultaneous charging of all
    EVs sags below the lower voltage bound, staggering avoids it."""
    spec = FeederSpec(
        n_buses=6, phases="a", n_tazs=2, evs_per_taz=2, seed=seed,
        T=16, beta=4, base_kva=150.0, impedance_scale=6.0, load_scale=0.5,
    )
    return generate_synthetic_feeder(spec)


def mid_feeder(seed: int = 1):
    """20-bus three-phase feeder, 3 TAZs x 4 EVs, T=24: the shape of the
    benchmark's mid feeder, whose generator seed it takes."""
    spec = FeederSpec(
        n_buses=20, phases="abc", n_tazs=3, evs_per_taz=4, seed=seed,
        T=24, beta=4, impedance_scale=6.0, load_scale=0.5,
    )
    return generate_synthetic_feeder(spec)
