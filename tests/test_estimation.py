import math
from dataclasses import replace

import numpy as np
import pytest

import ivpower.estimation as est
from ivpower.bounds import (Interval, MatchConfig, ate_signs, build_structure,
                            evaluate_draws, evaluate_structure)
from ivpower.dgp import Discrete, IvSet, JointDiscrete, Normal
from ivpower.estimation import (Dataset, FitResult, HmueConfig, biprobit_loglik,
                                bootstrap_dispersion, estimated_report,
                                fit_bivariate_probit, fit_probit, fit_set,
                                fitted_spec, hausdorff_interval,
                                read_dataset_csv, unpack_params, with_intercept,
                                write_dataset_csv)
from ivpower.gaussian import norm_ppf, rng_stream
from ivpower.simulation import generate_sample, model3_spec, standard_iv_sets


def _sample(n, seed=3, rho=0.5, covariate="normal"):
    return generate_sample(model3_spec(rho=rho, covariate=covariate), n,
                           rng_stream(seed))


def test_biprobit_gradient_matches_central_differences():
    data = _sample(400)
    rng = np.random.default_rng(17)
    p = 2 + 2 * (data.n_covariates + 1) + data.n_instruments
    worst = 0.0
    for _ in range(100):
        # moderate draws keep every cell probability well inside the
        # underflow clip, where central differences are trustworthy
        theta = rng.normal(scale=0.35, size=p)
        _, grad = biprobit_loglik(theta, data)
        for j in range(p):
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            num = (biprobit_loglik(up, data)[0] - biprobit_loglik(dn, data)[0]) / (2 * h)
            rel = abs(num - grad[j]) / max(1.0, abs(grad[j]))
            worst = max(worst, rel)
    assert worst < 1e-5


def _information(theta, data):
    return est._biprobit_terms(theta, *est._joint_designs(data), hessian=True)[2]


def test_biprobit_hessian_matches_central_differences_of_the_gradient():
    data = _sample(400)
    rng = np.random.default_rng(17)
    p = 2 + 2 * (data.n_covariates + 1) + data.n_instruments
    thetas = [rng.normal(scale=0.35, size=p) for _ in range(30)]
    thetas.append(fit_bivariate_probit(data).params)
    worst = 0.0
    for theta in thetas:
        num = np.empty((p, p))
        for j in range(p):
            h = 1e-5 * max(1.0, abs(theta[j]))
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            num[:, j] = (biprobit_loglik(up, data)[1] - biprobit_loglik(dn, data)[1]) / (2 * h)
        info = _information(theta, data)
        assert np.max(np.abs(info - info.T)) <= 1e-14 * np.max(np.abs(info))
        worst = max(worst, np.max(np.abs(num + info)) / np.max(np.abs(info)))
    assert worst <= 1e-6


# n from 500 to 10,000 and rho in {+-0.5, +-0.9, 0.29}
_SIZING_SAMPLES = [(500, 3, 0.5), (5000, 3, 0.5), (5000, 3, 0.9),
                   (10000, 4, -0.9), (2000, 5, -0.5), (1000, 6, 0.29)]


@pytest.mark.parametrize("n,seed,rho", _SIZING_SAMPLES)
def test_converged_fit_has_a_vanishing_gradient_and_inverse_information(n, seed, rho):
    data = _sample(n, seed=seed, rho=rho)
    fit = fit_bivariate_probit(data)
    assert fit.converged
    assert np.max(np.abs(biprobit_loglik(fit.params, data)[1])) < 1e-8
    assert fit.iterations <= 12
    np.testing.assert_allclose(fit.vcov @ _information(fit.params, data),
                               np.eye(fit.params.size), atol=1e-9)


def test_newton_step_climbs_away_from_a_saddle_start():
    # at the probit start the information has a negative eigenvalue, so a
    # plain Newton step would descend; the step on |eigenvalues| climbs
    data = _sample(5000, seed=3, rho=0.9)
    r1, r2, s1, s2 = est._joint_designs(data)
    start = np.concatenate([fit_probit(data.y, r1, ()).params,
                            fit_probit(data.d, r2, ()).params, [0.0]])
    assert np.linalg.eigvalsh(_information(start, data))[0] < -1.0
    fit = fit_bivariate_probit(data)
    assert fit.converged and fit.iterations <= 10
    assert fit.params[-1] == pytest.approx(math.atanh(0.9), abs=0.15)


def test_mle_on_the_rho_boundary_is_a_named_failure():
    # the likelihood of this sample rises all the way to rho = -1, which
    # tanh reaches only as rho_z -> -inf
    data = _sample(500, seed=22)
    with pytest.raises(RuntimeError, match="boundary rho = -1"):
        fit_set(data, standard_iv_sets()[0])


def test_singular_information_raises():
    # a duplicated design column leaves one direction without information
    data = _sample(300)
    design = np.column_stack([np.ones(data.n), data.x[:, 0], data.x[:, 0]])
    with pytest.raises(RuntimeError, match="singular or indefinite"):
        fit_probit(data.d, design, ("const", "x1", "x1copy"))


def test_newton_stops_at_a_zero_eigenvalue():
    # a direction with gradient but no information gives a step that is not
    # finite; the likelihood is never evaluated there (the bivariate-probit
    # terms raised StopIteration from the kernel on the NaN correlation)
    def terms(coef):
        if not np.isfinite(coef).all():
            raise AssertionError("likelihood evaluated at a non-finite point")
        return -coef[0] ** 2 + coef[1], np.array([-2.0 * coef[0], 1.0]), np.diag([2.0, 0.0])

    with pytest.raises(RuntimeError, match="singular or indefinite"):
        est._newton(terms, [1.0, 0.0], 50)


def test_probit_intercept_only_closed_form():
    data = _sample(5000)
    fit = fit_probit(data.y, np.ones((data.n, 1)), ("const",))
    assert fit.converged
    assert fit.params[0] == pytest.approx(norm_ppf(data.y.mean()), abs=1e-8)


def test_probit_separation_raises():
    # tiny regressor scale forces the diverging coefficient past the guard
    # before the score drops below the convergence tolerance
    rng = np.random.default_rng(5)
    x = rng.choice([-0.001, 0.001], size=200)
    with pytest.raises(RuntimeError, match="separation"):
        fit_probit((x > 0).astype(float), with_intercept(x[:, None]),
                   ("const", "x1"), max_iter=5000)


def test_fit_bivariate_probit_recovers_model3():
    data = _sample(20000, seed=11, rho=0.8)
    fit = fit_bivariate_probit(data)
    assert fit.converged
    truth = {"alpha": 1.0, "beta0": 0.0, "beta1": 1.0, "pi0": 0.0, "pi1": -1.0,
             "gamma1": 0.5, "gamma2": 0.2, "gamma3": 0.0,
             "rho_z": math.atanh(0.8)}
    se = np.sqrt(np.diag(fit.vcov))
    for name, want in truth.items():
        j = fit.names.index(name)
        assert abs(fit.params[j] - want) < 4.5 * se[j] + 1e-6, name
    assert np.all(se > 0)
    np.testing.assert_allclose(fit.vcov, fit.vcov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(fit.vcov) > -1e-12)


def test_fitted_spec_reuses_empirical_instruments():
    data = _sample(600, seed=21)
    fit = fit_bivariate_probit(data)
    spec_hat, iv_id = fitted_spec(fit, data)
    assert isinstance(spec_hat.iv_dists, JointDiscrete)
    assert iv_id.use == (0, 1, 2)
    assert spec_hat.rho == pytest.approx(math.tanh(fit.params[-1]), abs=1e-12)
    rows = np.asarray(spec_hat.iv_dists.values)
    probs = np.asarray(spec_hat.iv_dists.probs)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # every sampled instrument row appears with its empirical frequency
    uniq, counts = np.unique(data.z, axis=0, return_counts=True)
    assert rows.shape == uniq.shape
    np.testing.assert_allclose(np.sort(probs), np.sort(counts / data.n), atol=1e-12)


def test_distinct_rows_match_unique_rows():
    data = _sample(3000, seed=5)
    # six continuous columns of 4,000 distinct values (the last 1,000 rows
    # repeat the first): a key of unranked codes would pass 2**63
    wide = rng_stream(9).normal(size=(5000, 6))
    wide[4000:] = wide[:1000]
    for z in [s.columns(data.z) for s in standard_iv_sets()] + [wide]:
        rows, counts = est._distinct_rows(z)
        want_rows, want_counts = np.unique(z, axis=0, return_counts=True)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(counts, want_counts)


def test_dataset_csv_round_trip(tmp_path):
    data = _sample(50)
    path = tmp_path / "sample.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.d, data.d)
    np.testing.assert_allclose(back.x, data.x, atol=0)
    np.testing.assert_allclose(back.z, data.z, atol=0)


def test_dataset_csv_binds_by_column_name(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("z1,y,extra,x1,d\n0.5,1,9,0.25,0\n-0.5,0,9,1.5,1\n")
    data = read_dataset_csv(path)
    np.testing.assert_array_equal(data.y, [1.0, 0.0])
    np.testing.assert_array_equal(data.d, [0.0, 1.0])
    np.testing.assert_allclose(data.x[:, 0], [0.25, 1.5], atol=0)
    np.testing.assert_allclose(data.z[:, 0], [0.5, -0.5], atol=0)


def test_dataset_csv_diagnostics(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,d,x1\n1,0,0.5\n0,1\n")
    with pytest.raises(ValueError, match="row 3"):
        read_dataset_csv(bad)
    nohead = tmp_path / "nohead.csv"
    nohead.write_text("x1,z1\n0.5,1\n")
    with pytest.raises(ValueError, match="missing column 'y'"):
        read_dataset_csv(nohead)
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("y,d,x1,x1,z1\n1,0,1,9,1\n0,1,2,8,0\n1,1,3,7,1\n")
    with pytest.raises(ValueError, match="column 'x1' is named more than once"):
        read_dataset_csv(repeated)
    aliased = tmp_path / "aliased.csv"
    aliased.write_text("y,d,x1,z1,z01\n1,0,1,9,1\n")
    with pytest.raises(ValueError, match="columns 'z1' and 'z01' are both z1"):
        read_dataset_csv(aliased)


def test_dataset_requires_binary_outcomes():
    with pytest.raises(ValueError):
        Dataset(y=np.array([0.0, 0.5]), d=np.array([0.0, 1.0]),
                x=np.empty((2, 0)), z=np.empty((2, 0)))


def test_hausdorff_interval():
    unit = Interval(0.0, 1.0)
    assert hausdorff_interval(unit, unit) == 0.0
    assert hausdorff_interval(unit, Interval(-0.5, 1.2)) == pytest.approx(0.5)
    assert hausdorff_interval(Interval(0.2, 0.4), unit) == pytest.approx(0.6)
    assert hausdorff_interval(Interval(0.5, 0.2), unit) == math.inf
    assert hausdorff_interval(unit, Interval(0.5, 0.2)) == math.inf
    # float-noise "empty" intervals are treated as points
    assert hausdorff_interval(Interval(0.3, 0.3 - 1e-13), Interval(0.3, 0.3)) < 1e-12


def test_fit_result_rejects_asymmetric_vcov():
    with pytest.raises(ValueError, match="symmetric"):
        FitResult(params=[0.1, 0.2], names=("a", "b"), loglik=-1.0,
                  vcov=[[1.0, 0.5], [0.4, 1.0]], converged=True, iterations=3)


def test_hmue_config_validation():
    cfg = HmueConfig()
    assert cfg.n_sim == 1000 and 0.5 in cfg.levels
    with pytest.raises(ValueError):
        HmueConfig(n_sim=50)


def test_estimated_report_corrections_push_outward():
    data = _sample(4000, seed=5)
    rep = estimated_report(data, standard_iv_sets()[3], (0.0,),
                           hmue=HmueConfig(n_sim=300, seed=9))
    assert rep.sign == 1 and not rep.irrelevant
    assert rep.flip_rate == 0.0
    for corrected, point in ((rep.manski, rep.point_manski),
                             (rep.widest, rep.point_widest),
                             (rep.sv, rep.point_sv)):
        assert corrected.lower <= point.lower + 1e-12
        assert corrected.upper >= point.upper - 1e-12
    # two-sided levels widen with the confidence level
    l90 = rep.levels[0.90]["sv"]
    l99 = rep.levels[0.99]["sv"]
    assert l99.lower <= l90.lower + 1e-12 and l99.upper >= l90.upper - 1e-12
    assert rep.c1 + rep.c2 + rep.c3 + rep.c4 == pytest.approx(
        rep.manski.width, abs=1e-9)
    assert rep.iip == pytest.approx(rep.c1 + rep.c2, abs=1e-12)


def test_estimated_report_is_deterministic():
    data = _sample(1500, seed=6)
    kwargs = dict(ivset=standard_iv_sets()[0], x_eval=(0.0,),
                  hmue=HmueConfig(n_sim=200, seed=4))
    a = estimated_report(data, **kwargs)
    b = estimated_report(data, **kwargs)
    for field in ("manski", "widest", "sv"):
        assert getattr(a, field) == getattr(b, field)
    assert a.iip == b.iip and a.flip_rate == b.flip_rate
    c = estimated_report(data, ivset=standard_iv_sets()[0], x_eval=(0.0,),
                         hmue=HmueConfig(n_sim=200, seed=5))
    assert c.sv != a.sv  # different correction draws


def test_estimated_report_checks_x_dimension():
    data = _sample(300)
    with pytest.raises(ValueError, match="x_eval"):
        estimated_report(data, x_eval=(0.0, 1.0))


def test_widest_only_mode_skips_covariate_layer():
    data = _sample(1500, seed=8)
    rep = estimated_report(data, standard_iv_sets()[3], (0.0,),
                           hmue=HmueConfig(n_sim=150, seed=2), grid=(0.0,))
    assert rep.sv == rep.widest
    assert rep.point_sv == rep.point_widest
    assert rep.c3 == pytest.approx(0.0, abs=1e-12)


def test_draw_family_values_matches_structure_evaluation():
    # a batch of 130 draws crosses the 128-draw chunk boundary; each row
    # must equal that draw evaluated as a batch of one
    spec = model3_spec(rho=0.5, covariate="bernoulli")
    structure = build_structure(spec, np.array([0.0]), standard_iv_sets()[3],
                                MatchConfig())
    rng = np.random.default_rng(11)
    R = 130
    alphas = 0.9 + 0.1 * rng.standard_normal(R)
    betas = 0.8 + 0.1 * rng.standard_normal((R, 1))
    pis = -0.9 + 0.1 * rng.standard_normal((R, 1))
    gammas = np.array([0.4, 0.25, 0.1]) + 0.1 * rng.standard_normal((R, 3))
    rhos = np.clip(0.45 + 0.1 * rng.standard_normal(R), -0.9, 0.9)
    draws = evaluate_draws(structure, alphas, betas, pis, gammas, rhos)
    assert set(draws) == set(structure.families)
    for r in range(R):
        point = evaluate_structure(structure, alphas[r], betas[r], pis[r],
                                   gammas[r], rhos[r])
        for name, vals in point.items():
            np.testing.assert_allclose(draws[name][r], vals, rtol=0, atol=1e-15)


def test_bootstrap_dispersion_is_deterministic():
    data = _sample(800, seed=13)
    kwargs = dict(ivset=standard_iv_sets()[0], x_eval=(0.0,), n_boot=50, seed=42)
    a = bootstrap_dispersion(data, **kwargs)
    b = bootstrap_dispersion(data, **kwargs)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    assert a.n_failed == b.n_failed
    assert a.estimates.size + a.n_failed == 50
    assert a.sd > 0.0


def test_bootstrap_resampling_enforces_floor():
    data = _sample(200, seed=14)
    with pytest.raises(ValueError, match="at least 50"):
        bootstrap_dispersion(data, standard_iv_sets()[0], (0.0,), n_boot=10,
                             seed=1)


def test_unpack_params_batch_matches_rows_and_fitted_spec():
    data = _sample(600, seed=21)
    fit = fit_bivariate_probit(data)
    spec_hat, _ = fitted_spec(fit, data)
    alpha, beta, pi, gamma, rho = unpack_params(fit.params, data.n_covariates)
    assert (float(alpha), tuple(beta), tuple(pi), tuple(gamma), float(rho)) == (
        spec_hat.alpha, spec_hat.beta, spec_hat.pi, spec_hat.gamma, spec_hat.rho)
    draws = rng_stream(3).multivariate_normal(fit.params, fit.vcov, size=7)
    draws[0, -1] = 40.0  # tanh(40) rounds to 1 and must be clipped
    batch = unpack_params(draws, data.n_covariates)
    assert [part.shape for part in batch] == [(7,), (7, 2), (7, 2), (7, 3), (7,)]
    assert batch[-1][0] < 1.0
    for r in range(draws.shape[0]):
        for got, want in zip(batch, unpack_params(draws[r], data.n_covariates)):
            np.testing.assert_array_equal(got[r], want)


def test_fit_set_names_the_set_when_the_fit_does_not_converge(monkeypatch):
    data = _sample(300)
    stuck = FitResult(params=np.zeros(10), names=tuple(f"p{j}" for j in range(10)),
                      loglik=-1.0, vcov=np.eye(10), converged=False, iterations=500)
    monkeypatch.setattr(est, "fit_bivariate_probit", lambda sub: stuck)
    with pytest.raises(RuntimeError, match="did not converge for pair12"):
        fit_set(data, IvSet("pair12", use=(0, 1)))


def test_ate_signs_at_the_point_estimate_give_the_structure_sign():
    for alpha, rho, x in ((1.0, 0.5, 0.0), (1.0, -0.9, 1.0), (-1.0, 0.5, 0.0)):
        spec = replace(model3_spec(rho=rho, covariate="bernoulli"), alpha=alpha)
        structure = build_structure(spec, np.array([x]), standard_iv_sets()[3],
                                    MatchConfig())
        one = evaluate_draws(structure, np.array([spec.alpha]), np.array([spec.beta]),
                             np.array([spec.pi]), np.array([spec.gamma]),
                             np.array([spec.rho]))
        assert structure.sign == (1 if alpha > 0 else -1)
        assert ate_signs(structure, one).tolist() == [structure.sign]
