"""Memory bounds of the cell and matching layer.

`SupportPartition.group_cells` evaluates the kernel in blocks of at most
`dgp._BLOCK_POINTS` (draw, row, raw point) triples, and `build_structure`
matches one outer group at a time, so neither a population report nor
the draw stage of an estimate holds temporaries over the whole covariate
lattice.  The peaks are those traced by `tracemalloc`, which numpy
reports its buffers to.
"""

import tracemalloc

import numpy as np

from ivpower.bounds import population_report
from ivpower.estimation import HmueConfig, estimated_report
from ivpower.gaussian import rng_stream
from ivpower.simulation import generate_sample, model3_spec, standard_iv_sets

MB = 2 ** 20


def traced_peak(fn):
    """Peak of the memory traced while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_model3_population_report_peaks_under_4_mb():
    # all three instruments: 28 groups and 28 raw points on the 801-row
    # lattice plus x
    peak = traced_peak(lambda: population_report(
        model3_spec(0.5), np.array([0.0]), standard_iv_sets()[4]))
    assert peak <= 4 * MB, f"traced peak {peak / MB:.1f} MB"


def test_estimated_report_peaks_under_64_mb():
    # n 2,000 and the default 1,000 draws on z1,z2,z3
    data = generate_sample(model3_spec(0.5), 2000, rng_stream(7))
    peak = traced_peak(lambda: estimated_report(
        data, standard_iv_sets()[4], (0.0,), hmue=HmueConfig(n_sim=1000, seed=3)))
    assert peak <= 64 * MB, f"traced peak {peak / MB:.1f} MB"
