import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr as norm_cdf

from ivpower.dgp import (CpsSupport, DgpSpec, Discrete, IvSet, JointDiscrete,
                         Normal, SupportPartition, cell_probs_arrays, cps_support,
                         identity_iv_set, iv_support, nu1, spec_from_dict,
                         to_dict, true_ate)
from ivpower.simulation import model3_spec, standard_iv_sets
from oracle_sv import oracle_cells

X0 = np.array([0.0])

# CPS support ranges at x=0 for the five standard instrument subsets.
_CPS_RANGES = {
    "z1": (0.500, 0.682),
    "z2": (0.367, 0.795),
    "z1,z2>0": (0.410, 0.799),
    "z1,z2": (0.274, 0.864),
    "z1,z2,z3": (0.274, 0.864),
}


def test_standard_cps_ranges():
    spec = model3_spec(rho=0.5)
    for ivset in standard_iv_sets():
        sup = cps_support(spec, X0, ivset)
        lo, hi = _CPS_RANGES[ivset.name]
        assert sup.p_lo == pytest.approx(lo, abs=1e-3)
        assert sup.p_hi == pytest.approx(hi, abs=1e-3)
        assert sum(m for _, m in sup.points) == pytest.approx(1.0, abs=1e-12)


def test_cps_range_invariant_to_rho_and_covariate_case():
    base = cps_support(model3_spec(rho=0.5), X0, standard_iv_sets()[3])
    for rho, cov in ((0.8, "normal"), (0.5, "bernoulli")):
        other = cps_support(model3_spec(rho=rho, covariate=cov), X0,
                            standard_iv_sets()[3])
        np.testing.assert_allclose(other.points, base.points, atol=1e-15)


def test_redundant_instrument_support_merges():
    # the third instrument has a zero coefficient, so conditioning on it
    # must change nothing: sets (4) and (5) share the same support
    spec = model3_spec(rho=0.5)
    s4 = cps_support(spec, X0, standard_iv_sets()[3])
    s5 = cps_support(spec, X0, standard_iv_sets()[4])
    assert len(s4.points) == len(s5.points) == 14
    np.testing.assert_allclose(s5.points, s4.points, atol=1e-15)


def test_true_ate_model3():
    spec = model3_spec(rho=0.5)
    assert true_ate(spec, X0) == pytest.approx(0.3413447460685429, abs=1e-12)
    assert true_ate(model3_spec(rho=0.8, covariate="bernoulli"), X0) == \
        pytest.approx(0.3413447460685429, abs=1e-12)


def _cells(partition, spec, x):
    """The four (y, d) cells per group at x, as (T, 4) rows."""
    p11, p10, p = (c[0] for c in partition.spec_cells(spec, x))
    return np.column_stack([p11, p10, p - p11, 1.0 - p - p10])


def test_group_cells_match_independent_route():
    # under the identity set every raw support point is its own group
    spec = model3_spec(rho=0.8)
    partition = SupportPartition(spec, identity_iv_set(spec.n_instruments))
    for x in (X0, np.array([1.3])):
        want = [oracle_cells(spec, x, np.array(z)) for z, _ in iv_support(spec)]
        np.testing.assert_allclose(_cells(partition, spec, x), want, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 1), st.floats(-0.99, 0.99))
def test_cell_probs_arrays_sum_and_range(v1, v0, p, rho):
    p11, p10, p01, p00 = cell_probs_arrays(v1, v0, p, rho)
    total = p11 + p10 + p01 + p00
    assert total == pytest.approx(1.0, abs=1e-12)
    for c in (p11, p10, p01, p00):
        assert -1e-12 <= c <= 1.0 + 1e-12


def test_marginal_cells_equal_support_average():
    # the group cells of any instrument subset average back to the cells
    # marginalized over the raw instrument distribution
    spec = model3_spec(rho=0.5)
    acc = np.zeros(4)
    for z, mass in iv_support(spec):
        acc += mass * np.array(oracle_cells(spec, X0, np.array(z)))
    for ivset in standard_iv_sets():
        partition = SupportPartition(spec, ivset)
        np.testing.assert_allclose(partition.gmass @ _cells(partition, spec, X0),
                                   acc, atol=1e-12)


def test_iv_support_product_order_and_mass():
    d1 = Discrete((0.0, 1.0), (0.25, 0.75))
    d2 = Discrete((-1.0, 1.0), (0.5, 0.5))
    spec = DgpSpec(alpha=1.0, beta=0.0, pi=0.0, gamma=(0.3, 0.4), rho=0.2,
                   covariate_dist=Discrete((0.0,), (1.0,)), iv_dists=(d1, d2))
    pts = iv_support(spec)
    assert [z for z, _ in pts] == [(0.0, -1.0), (0.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    assert sum(m for _, m in pts) == pytest.approx(1.0, abs=1e-15)
    assert pts[0][1] == pytest.approx(0.125, abs=1e-15)


def test_iv_set_transform_and_columns():
    s = IvSet("s", use=(0, 2), recode=("raw", "gt0"))
    np.testing.assert_array_equal(s.columns(np.array([[5.0, 9.0, -0.3]])), [[5.0, 0.0]])
    np.testing.assert_array_equal(s.columns(np.array([[5.0, 9.0, 0.3]])), [[5.0, 1.0]])
    zm = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, -6.0]])
    np.testing.assert_array_equal(s.columns(zm), [[1.0, 1.0], [4.0, 0.0]])
    assert identity_iv_set(3).use == (0, 1, 2)
    with pytest.raises(ValueError):
        IvSet("bad", use=(0,), recode=("raw", "raw"))
    with pytest.raises(ValueError):
        IvSet("bad", use=(0,), recode=("log",))


def test_spec_round_trip():
    cov_keys = {"normal": ["type", "mean", "sd"], "bernoulli": ["type", "values", "probs"]}
    for cov in ("normal", "bernoulli"):
        spec = model3_spec(rho=0.8, covariate=cov)
        doc = to_dict(spec)
        # a record's JSON is its fields in declaration order
        assert list(doc) == ["alpha", "beta", "pi", "gamma", "rho", "covariate_dist",
                             "iv_dists"]
        assert list(doc["covariate_dist"]) == cov_keys[cov]
        assert [list(d) for d in doc["iv_dists"]] == [["type", "values", "probs"]] * 3
        again = spec_from_dict(doc)
        assert again == spec
        assert to_dict(again) == doc


def test_spec_round_trip_joint_discrete():
    joint = JointDiscrete(((0.0, 1.0), (1.0, -1.0)), (0.4, 0.6))
    spec = DgpSpec(alpha=0.5, beta=0.1, pi=0.2, gamma=(0.3, -0.2), rho=-0.4,
                   covariate_dist=Normal(0.0, 1.0), iv_dists=joint)
    doc = to_dict(spec)
    assert doc["iv_dists"] == {"type": "joint_discrete",
                               "values": [[0.0, 1.0], [1.0, -1.0]], "probs": [0.4, 0.6]}
    assert list(doc["iv_dists"]) == ["type", "values", "probs"]
    assert spec_from_dict(doc) == spec


def test_spec_from_dict_missing_field():
    doc = to_dict(model3_spec())
    doc.pop("beta")
    with pytest.raises(ValueError, match="beta"):
        spec_from_dict(doc)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Discrete((0.0, 1.0), (0.5, 0.6))
    with pytest.raises(ValueError):
        Discrete((0.0,), (0.5, 0.5))
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        JointDiscrete(((0.0,), (1.0,)), (0.9,))


def test_spec_validation():
    cov = Normal(0.0, 1.0)
    iv = (Discrete((0.0, 1.0), (0.5, 0.5)),)
    with pytest.raises(ValueError):
        DgpSpec(alpha=1.0, beta=(1.0, 2.0), pi=0.0, gamma=1.0, rho=0.5,
                covariate_dist=cov, iv_dists=iv)
    with pytest.raises(ValueError):
        DgpSpec(alpha=1.0, beta=1.0, pi=0.0, gamma=1.0, rho=1.0,
                covariate_dist=cov, iv_dists=iv)
    with pytest.raises(ValueError):
        DgpSpec(alpha=1.0, beta=1.0, pi=0.0, gamma=(1.0, 2.0), rho=0.5,
                covariate_dist=cov, iv_dists=iv)
    for field in ("alpha", "beta", "pi", "gamma"):
        for bad in (math.nan, math.inf, -math.inf):
            kwargs = dict(dict(alpha=1.0, beta=1.0, pi=0.0, gamma=1.0), **{field: bad})
            with pytest.raises(ValueError, match="finite"):
                DgpSpec(rho=0.5, covariate_dist=cov, iv_dists=iv, **kwargs)


def test_latent_indices():
    spec = model3_spec(rho=0.5)
    assert nu1(spec, 1, np.array([0.3])) == pytest.approx(1.3, abs=1e-15)
    assert nu1(spec, 0, np.array([0.3])) == pytest.approx(0.3, abs=1e-15)
    # treatment index pi'x + gamma'z at raw z = (1, 2, 1), its own group
    # under the identity set
    j = [z for z, _ in iv_support(spec)].index((1.0, 2.0, 1.0))
    p = SupportPartition(spec, identity_iv_set(3)).spec_cells(spec, [0.5])[2]
    assert p[0, j] == pytest.approx(norm_cdf(-0.5 + 0.5 + 0.4), abs=1e-15)


def test_cps_subset_conditioning_is_mixture():
    spec = model3_spec(rho=0.5)
    ivset = standard_iv_sets()[0]  # z1 only
    sup = cps_support(spec, X0, ivset)
    # p given z1 must average Phi(0.5 z1 + 0.2 z2) over the z2 distribution
    z2 = spec.iv_dists[1]
    for z1, (pv, mass) in zip((0.0, 1.0), sup.points):
        want = sum(q * norm_cdf(np.dot(spec.pi, X0) + np.dot(spec.gamma, (z1, v, 0.0)))
                   for v, q in zip(z2.values, z2.probs))
        assert pv == pytest.approx(want, abs=1e-12)
        assert mass == pytest.approx(0.5, abs=1e-12)


# this check guards values that can come from outside input, so it must
# raise ValueError and survive python -O, which strips asserts
def test_cps_support_rejects_masses_not_summing_to_one():
    with pytest.raises(ValueError, match="masses sum"):
        CpsSupport(points=((0.3, 0.5), (0.6, 0.4)))
