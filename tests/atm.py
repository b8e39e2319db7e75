"""The at-the-money reduction of the smile formula, a reference for the
tests: at K = F0, z = 0 makes z/x(z) = 1 and the log-moneyness bracket is
1, leaving alpha/F0^(1-beta) times the maturity bracket (Hagan et al.
2002). The strike field of the point is ignored."""


def atm_vol(p) -> float:
    omb = 1.0 - p.beta
    f_pow_1mb = p.F0**omb
    bracket = 1.0 + p.T * (omb * omb * p.alpha * p.alpha / (24.0 * f_pow_1mb * f_pow_1mb)
                           + p.rho * p.beta * p.nu * p.alpha / (4.0 * f_pow_1mb)
                           + (2.0 - 3.0 * p.rho * p.rho) * p.nu * p.nu / 24.0)
    return p.alpha / f_pow_1mb * bracket
