"""Goodness of fit of a sample against a law, for the tests that certify the
samplers, the observed laws and the replication generators."""

import numpy as np

import robandit as rb


def ks_distance(values, dist: rb.Distribution) -> float:
    """sup_x |empirical cdf - F|, tie-aware so atoms are handled correctly."""
    xs = np.asarray(values, dtype=float)
    n = xs.size
    if n == 0:
        raise rb.EmptyInputError("KS distance needs at least one sample")
    uniq, counts = np.unique(xs, return_counts=True)
    ecdf_hi = np.cumsum(counts) / n
    ecdf_lo = ecdf_hi - counts / n
    fs = dist.cdf(uniq)
    fs_left = fs - dist.atom_mass(uniq)
    return float(max(np.max(np.abs(fs - ecdf_hi)), np.max(np.abs(fs_left - ecdf_lo))))
