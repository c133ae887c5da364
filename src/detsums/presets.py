"""Embedded experiment presets.

``golden`` analyzes the rank-8 code in M_2(C) with four receive antennas:
inverse-determinant curves, the three-entry shift-bound envelope built on the
known growth exponents s(2) = s(4) = 4, the resulting DMT lines (8 - 5r and
6 - 3r, whose envelope meets the optimal trade-off at integer points), the
infinite-lattice decoding line 2(2 - r), and the SNR-threshold exponents.

``diagonal-nf-2`` runs the rank-4 diagonal code whose inverse-determinant
sums grow only polylogarithmically (growth exponents 0), giving the c^-3
convergent bound and the naive line 3(1 - r).

``gaussian-diagonal-2`` is the negative control: it contains singular points,
so only shifted sums are taken and the determinant scan reports the missing
determinant gap.
"""

from __future__ import annotations

import math

from .channel import ChannelConfig
from .codes import CodeSpec
from .pipeline import DmtJob, EnvelopeJob, ExperimentConfig, SumJob

__all__ = ["PRESETS", "build_preset", "preset_names"]

_SQRT2 = math.sqrt(2.0)


def _sim(seed: int, with_sim: bool, fixed_radius: float) -> ChannelConfig | None:
    """Every preset's simulation, when asked for: 2 x 2 codewords on two
    receive antennas, 5 to 25 dB in steps of 2.5, 2,000 trials per point."""
    if not with_sim:
        return None
    return ChannelConfig(n_t=2, n_r=2, T=2, snr_grid_db=tuple(5.0 + 2.5 * j for j in range(9)),
                         trials_per_point=2000, seed=seed, fixed_radius=fixed_radius)


def _golden(seed: int, with_sim: bool) -> ExperimentConfig:
    radii = (1.0, _SQRT2, 2.0, 2 * _SQRT2, 4.0)
    fit_radii = (2.0, 2 * _SQRT2, 4.0, 4 * _SQRT2)
    return ExperimentConfig(
        name="golden",
        code=CodeSpec(kind="golden"),
        sum_jobs=(
            SumJob(family="approximate", m=4, radii=fit_radii),
            SumJob(family="approximate", m=8, radii=fit_radii),
            SumJob(family="shifted", m=4, c=1.0, radii=radii),
        ),
        envelope=EnvelopeJob(m=4, indices=(0, 2, 4), s_table={2: 4.0, 4: 4.0}),
        dmt=DmtJob(naive_a=4.0),
        sim=_sim(seed, with_sim, fixed_radius=1.0),
        compare_c_values=(1.0, 10.0, 100.0),
        compare_radii=(2.0, 4.0),
        det_scan_radius=2.0,
    )


def _diagonal_nf(seed: int, with_sim: bool) -> ExperimentConfig:
    radii = (2.0, 4.0, 8.0, 16.0, 32.0)
    return ExperimentConfig(
        name="diagonal-nf-2",
        code=CodeSpec(kind="diagonal-nf", params={"n": 2}),
        sum_jobs=(
            SumJob(family="approximate", m=2, radii=radii),
            SumJob(family="approximate", m=4, radii=radii),
            SumJob(family="shifted", m=2, c=1.0, radii=radii),
        ),
        envelope=EnvelopeJob(m=2, indices=(0, 1, 2), s_table={1: 0.0, 2: 0.0}),
        dmt=DmtJob(naive_a=3.0),
        compare_c_values=(1.0, 10.0, 100.0),
        compare_radii=(4.0, 16.0),
        det_scan_radius=3.0,
        sim=_sim(seed, with_sim, fixed_radius=2.0),
    )


def _gaussian_diagonal(seed: int, with_sim: bool) -> ExperimentConfig:
    radii = (2.0, 4.0, 8.0, 16.0)
    return ExperimentConfig(
        name="gaussian-diagonal-2",
        code=CodeSpec(kind="gaussian-diagonal", params={"n": 2}),
        sum_jobs=(
            SumJob(family="shifted", m=2, c=1.0, radii=radii),
            SumJob(family="shifted", m=3, c=1.0, radii=radii),
        ),
        det_scan_radius=2.0,
        sim=_sim(seed, with_sim, fixed_radius=1.0),
    )


PRESETS = {
    "golden": _golden,
    "diagonal-nf-2": _diagonal_nf,
    "gaussian-diagonal-2": _gaussian_diagonal,
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def build_preset(name: str, *, seed: int = 0, with_sim: bool = False) -> ExperimentConfig:
    """The preset ``name``; ``seed`` is the simulation's seed, so it matters
    only ``with_sim``."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {preset_names()}")
    return PRESETS[name](seed, with_sim)
