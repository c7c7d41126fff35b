"""Population-mode tour of the standard three-instrument design.

Prints, for each candidate instrument set, the conditional propensity
score range at x=0 and the share of the worst-case bound width the set
can remove (IIP), then the full bound rows for the four design variants
(normal or Bernoulli covariate, moderate or strong endogeneity).
"""

import numpy as np

from ivpower.bounds import population_report
from ivpower.dgp import cps_support
from ivpower.simulation import model3_spec, standard_iv_sets

X0 = np.array([0.0])


def power_table(rho):
    spec = model3_spec(rho=rho, covariate="normal")
    print(f"\nrho = {rho}")
    print(f"{'set':<10} {'cps range':<18} {'IIP':>6}")
    for ivset in standard_iv_sets():
        rep = population_report(spec, X0, ivset, grid=X0)
        rng = f"[{rep.cps_lo:.3f}, {rep.cps_hi:.3f}]"
        print(f"{ivset.name:<10} {rng:<18} {rep.iip:6.3f}")


def bound_rows():
    ivset = standard_iv_sets()[3]
    print(f"\nfull bounds at x=0, instrument set {ivset.name}")
    header = f"{'design':<16} {'manski':<18} {'sv':<18} {'C1':>6} {'C2':>6} {'C3':>6} {'C4':>6}"
    print(header)
    for cov in ("normal", "bernoulli"):
        for rho in (0.5, 0.8):
            spec = model3_spec(rho=rho, covariate=cov)
            rep = population_report(spec, X0, ivset)
            m = f"[{rep.manski.lower:6.3f}, {rep.manski.upper:6.3f}]"
            s = f"[{rep.sv.lower:6.3f}, {rep.sv.upper:6.3f}]"
            print(f"{cov + ', ' + str(rho):<16} {m:<18} {s:<18} "
                  f"{rep.c1:6.3f} {rep.c2:6.3f} {rep.c3:6.3f} {rep.c4:6.3f}")
    print("\nThe continuous covariate drives C3 to the full remainder, so the")
    print("two-layer bounds collapse to the point ATE; the binary covariate")
    print("leaves a residual C4 and an interval of positive width.")


if __name__ == "__main__":
    for rho in (0.5, 0.8):
        power_table(rho)
    bound_rows()
