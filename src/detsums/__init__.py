"""Determinant sums over matrix lattices.

Core pipeline: build a lattice code, enumerate its points inside Frobenius
balls, evaluate shifted / inverse determinant sums, fit growth exponents,
derive diversity-multiplexing lower bounds and SNR thresholds, and cross
check against Rayleigh fading Monte Carlo simulation.
"""

from .bounds import (DmtCurve, GrowthFit, dmt_envelope, dmt_ml_bound,
                     dmt_naive_bound, full_multiplexing_bound, growth_fit,
                     pe_upper_bound, shift_bound_envelope, snr_threshold,
                     snr_threshold_exponent)
from .channel import (ChannelConfig, SimResult, coding_scheme, diversity_slope,
                      fixed_code, naive_lattice_decode, normalize_energy,
                      simulate, sphere_cvp, union_bound,
                      union_bounds)
from .codes import (CodeSpec, diagonal_nf_code, gaussian_diagonal, golden_code,
                    normalize_unit_min_norm)
from .lattice import (MatrixLattice, build_lattice, lattice_from_json,
                      lattice_to_json, shell_counts)
from .pipeline import ExperimentConfig, ExperimentReport, run
from .presets import build_preset, preset_names
from .sums import (SumCurve, SumSpec, convergence_probe, dyadic_bound,
                   inverse_det_sum, norm_det_sum, shifted_det_sum,
                   shifted_vs_mixed_bound, sum_curve, sum_curves)

__version__ = "0.1.0"
