"""The benchmark's three workloads: inputs from a seed, one fit, its check.

Each workload generates its inputs from a dataset seed, hands etafit only
the generated arrays, and calls the public API through the package
namespace (``ef.<name>``), so the tracer's wrappers see every call.
A fit runs from the generated points and z to the report: kernel assembly,
``GpModel`` construction and the estimator call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import etafit as ef

POLY2 = ef.BasisSpec("polynomial", 2)
# eta at which the oracle checks a boundary outcome; 1e12 stands in for
# eta -> inf, where the profiled likelihood and sigma^2 eta have finite limits
BOUNDARY_ETA = {"error_dominated": 0.0, "noise_dominated": 1e12}


@dataclass
class Inputs:
    points: np.ndarray
    z: np.ndarray
    X: object  # etafit DesignMatrix


def _grid_inputs(n: int, sigma0: float, seed: int) -> Inputs:
    ds = ef.generate_synthetic(n, sigma0, seed=seed)
    return Inputs(ds.points, ds.z, ef.build_design(ds.points, POLY2))


def _variance_fit(inputs: Inputs, kernel) -> object:
    K = ef.correlation_matrix(inputs.points, kernel)
    model = ef.GpModel(inputs.z, inputs.X, K, inputs.points)
    return ef.estimate_variances(model, config=ef.EstimateConfig())


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _check_root(failures: list, hp, root, log10_eta_tol: float,
                sigma0_rtol: float) -> None:
    """An interior estimate must sit at the oracle's best interior root."""
    _check(failures, root is not None,
           "the eigenbasis oracle found no interior maximum")
    if root is None:
        return
    log_eta = math.log10(hp.eta)
    _check(failures, abs(log_eta - root.log10_eta) <= log10_eta_tol,
           f"log10 eta {log_eta:.6f} vs oracle {root.log10_eta:.6f}")
    _check(failures, math.isclose(hp.sigma0, math.sqrt(root.sigma02),
                                  rel_tol=sigma0_rtol),
           f"sigma0 {hp.sigma0:.6f} vs oracle {math.sqrt(root.sigma02):.6f}")


class Workload:
    # fits per untraced run, each on its own dataset, even past --seconds
    min_fits = 1
    SEED_STRIDE = 1_000_003

    @classmethod
    def dataset_seed(cls, seed: int, index: int) -> int:
        """Seed of a run's ``index``-th dataset; dataset 0 uses the run seed."""
        return seed + index * cls.SEED_STRIDE

    def reference(self, inputs: Inputs):
        """What ``check`` compares each fit on ``inputs`` with; computed
        once per dataset, after timing."""
        return None


# ----------------------------------------------------------------------
# dense_reference: the ROADMAP reference problem
# ----------------------------------------------------------------------

class DenseReference(Workload):
    """n=2500 grid, sigma0=0.2, poly:2, exp:0.1, default EstimateConfig.

    Measures the dense O(n^3) layers (spectrum eigensolves, the trace
    interpolant fit, per-eta Cholesky) and the factor cache behind peak RSS.
    """

    name = "dense_reference"
    default_seed = 23
    kernel = ef.CorrelationKernel("exponential", 0.1)
    # The interpolated traces bias the root by about 2e-3 in log10(eta)
    # against the exact one; an exact backend must pass as well.
    ORACLE_LOG10_ETA_TOL = 1e-2
    ORACLE_SIGMA0_RTOL = 1e-2

    def make_inputs(self, seed: int) -> Inputs:
        return _grid_inputs(2500, 0.2, seed)

    def warmup(self) -> None:
        _variance_fit(_grid_inputs(144, 0.2, 0), self.kernel)

    def fit(self, inputs: Inputs):
        return _variance_fit(inputs, self.kernel)

    def reference(self, inputs: Inputs):
        # imported here so that its scipy.optimize import stays out of setup_s
        from oracle import EigenbasisOracle
        K = ef.correlation_matrix(inputs.points, self.kernel).entries
        return EigenbasisOracle(K, inputs.X.entries,
                                inputs.z).best_interior_root()

    def check(self, report, inputs: Inputs, oracle_root,
              seed: int) -> list[str]:
        failures: list[str] = []
        hp = report.hyperparams
        _check(failures, report.outcome == "interior",
               f"outcome {report.outcome}, expected interior")
        if report.outcome != "interior":
            return failures
        log_eta = math.log10(hp.eta)
        _check_root(failures, hp, oracle_root, self.ORACLE_LOG10_ETA_TOL,
                    self.ORACLE_SIGMA0_RTOL)
        _check(failures, 0.18 <= hp.sigma0 <= 0.22,
               f"sigma0 {hp.sigma0:.4f} outside [0.18, 0.22] around the "
               f"generating 0.2")
        if seed == self.default_seed:
            # acceptance criterion 1, whose bands hold for this seed
            _check(failures, 0.185 <= hp.sigma0 <= 0.205,
                   f"criterion 1: sigma0 {hp.sigma0:.4f} not in [0.185, 0.205]")
            _check(failures, 1.0 <= log_eta <= 1.6,
                   f"criterion 1: log10 eta {log_eta:.4f} not in [1.0, 1.6]")
            _check(failures, 0.03 <= hp.sigma <= 0.06,
                   f"criterion 1: sigma {hp.sigma:.4f} not in [0.03, 0.06]")
        return failures


# ----------------------------------------------------------------------
# kernel_opt: profile optimization over Matern (alpha, nu)
# ----------------------------------------------------------------------

class KernelOpt(Workload):
    """``profile_optimize`` over Matern (alpha, nu) on a 20x20 grid.

    The criterion-6 configuration (inverse-square priors, init (0.1, 1.0),
    tol 1e-4, max_evals 400, exact traces), scaled from n=900 to n=400 so
    that four datasets fit in a run.  Many small fits, each on a fresh K:
    Bessel-function kernel assembly and per-K setup dominate.

    z is the synthetic surface plus a Matern(alpha=0.1, nu=2.5) Gaussian-
    process draw of standard deviation 0.2, so (alpha, nu) is identifiable
    for every seed.  On the plain surface at n=484 the posterior is flat
    towards alpha -> 0 for some seeds, and the search then runs to the nu
    bound at several times the cost.

    The search path, and so the cost, still varies with the data: about
    one dataset in ten needs 40% more posterior evaluations than the
    typical one.  Every untraced run therefore fits at least four datasets,
    so that the median (the mean of the middle two) ignores one such
    outlier.
    """

    name = "kernel_opt"
    default_seed = 4
    min_fits = 4
    n = 400
    init = (0.1, 1.0)
    gp_kernel = ef.CorrelationKernel("matern", 0.1, 2.5)
    gp_sigma = 0.2
    # exact traces: the estimate matches the oracle to about 1e-6
    ORACLE_LOG10_ETA_TOL = 1e-4
    ORACLE_RTOL = 1e-4

    def make_inputs(self, seed: int) -> Inputs:
        inputs = _grid_inputs(self.n, 0.2, seed)
        K = ef.correlation_matrix(inputs.points, self.gp_kernel).entries
        L = np.linalg.cholesky(K + 1e-8 * np.eye(self.n))
        rng = np.random.Generator(np.random.Philox(key=seed + 1))
        inputs.z = inputs.z + self.gp_sigma * (L @ rng.standard_normal(self.n))
        return inputs

    def _builder(self, inputs: Inputs):
        def build(alpha, nu):
            K = ef.correlation_matrix(inputs.points,
                                      ef.CorrelationKernel("matern", alpha, nu))
            return ef.GpModel(inputs.z, inputs.X, K, inputs.points)
        return build

    def warmup(self) -> None:
        small = _grid_inputs(100, 0.2, 0)
        _variance_fit(small, ef.CorrelationKernel("matern", 0.1, 1.0))

    def fit(self, inputs: Inputs):
        return ef.profile_optimize(
            self._builder(inputs), self.init, ef.inverse_square_priors(),
            tol=1e-4, max_evals=400,
            config=ef.EstimateConfig(exact_traces=True))

    def check(self, report, inputs: Inputs, reference,
              seed: int) -> list[str]:
        """The search converged, and the variance estimate at the reported
        (alpha, nu) is the eigenbasis oracle's on a Matern matrix assembled
        without etafit.

        A boundary estimate must carry the oracle's variance at that
        boundary, and the oracle must find no interior maximum within the
        thresholds that beats the boundary.
        """
        from oracle import EigenbasisOracle, matern_correlation
        failures: list[str] = []
        _check(failures, report.diagnostics["converged"],
               "Nelder-Mead did not converge")
        K = matern_correlation(inputs.points, report.alpha_hat, report.nu_hat)
        oracle = EigenbasisOracle(K, inputs.X.entries, inputs.z)
        root = oracle.best_interior_root()
        hp = report.hyperparams
        if report.outcome == "interior":
            _check_root(failures, hp, root, self.ORACLE_LOG10_ETA_TOL,
                        self.ORACLE_RTOL)
            return failures
        if report.outcome not in BOUNDARY_ETA:
            failures.append(f"outcome {report.outcome}")
            return failures
        eta = BOUNDARY_ETA[report.outcome]
        s2 = oracle.sigma2_at(eta)
        variance, expected = ((hp.sigma2, s2) if eta == 0.0
                              else (hp.sigma02, s2 * eta))
        _check(failures, math.isclose(variance, expected,
                                      rel_tol=self.ORACLE_RTOL),
               f"{report.outcome}: variance {variance:.6g} vs oracle "
               f"{expected:.6g}")
        config = ef.EstimateConfig()
        if root is not None and (config.c_threshold <= 10.0 ** root.log10_eta
                                 <= config.C_threshold):
            boundary = oracle.ell_at(eta)
            _check(failures,
                   root.ell <= boundary + 1e-9 * max(1.0, abs(boundary)),
                   f"{report.outcome}, but the oracle has a better interior "
                   f"maximum at log10 eta {root.log10_eta:.6f}")
        return failures


# ----------------------------------------------------------------------
# sparse_taper: the real-range tapered sparse cell
# ----------------------------------------------------------------------

class SparseTaper(Workload):
    """n=16384 grid, poly:2, exp:0.01:taper=0.05: ~44 stored neighbours per
    point, so K is far from the identity.

    CG solves, a Hutchinson-backed interpolant, shift-invert ``eigsh`` and
    ``splu`` log-determinants, with no dense matrix anywhere.
    """

    name = "sparse_taper"
    default_seed = 23
    kernel = ef.CorrelationKernel("exponential", 0.01, taper_threshold=0.05)

    def make_inputs(self, seed: int) -> Inputs:
        return _grid_inputs(16384, 0.2, seed)

    def warmup(self) -> None:
        _variance_fit(_grid_inputs(1024, 0.2, 0), ef.CorrelationKernel(
            "exponential", 0.02, taper_threshold=0.05))

    def fit(self, inputs: Inputs):
        return _variance_fit(inputs, self.kernel)

    def check(self, report, inputs: Inputs, reference,
              seed: int) -> list[str]:
        failures: list[str] = []
        _check(failures, report.outcome == "interior",
               f"outcome {report.outcome}, expected interior")
        sigma0 = report.hyperparams.sigma0
        _check(failures, 0.18 <= sigma0 <= 0.22,
               f"sigma0 {sigma0:.4f} outside [0.18, 0.22] around the "
               f"generating 0.2")
        return failures


WORKLOADS = {w.name: w for w in (DenseReference(), KernelOpt(),
                                 SparseTaper())}
