import json
import math

import numpy as np
import pytest

from etafit.cli import main, parse_basis, parse_kernel, parse_pair
from etafit.datagen import generate_synthetic, load_dataset, save_dataset
from etafit.design import BasisSpec, build_design
from etafit.errors import InputError
from etafit.estimation import estimate_variances
from etafit.kernels import CorrelationKernel, correlation_matrix
from etafit.model import GpModel


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ref.csv"
    save_dataset(generate_synthetic(144, 0.2, seed=3), path)
    return path


class TestParsers:
    def test_kernel_specs(self):
        k = parse_kernel("exp:0.1")
        assert (k.family, k.alpha) == ("exponential", 0.1)
        k = parse_kernel("matern:0.2:1.5")
        assert (k.family, k.alpha, k.nu) == ("matern", 0.2, 1.5)
        k = parse_kernel("gauss:0.3")
        assert k.family == "gaussian"
        k = parse_kernel("exp:0.005:taper=0.03")
        assert k.taper_threshold == 0.03
        with pytest.raises(InputError):
            parse_kernel("spline:0.1")
        with pytest.raises(InputError):
            parse_kernel("exp")

    def test_basis_specs(self):
        b = parse_basis("poly:3")
        assert (b.family, b.order) == ("polynomial", 3)
        assert parse_basis("trig").family == "trigonometric"
        with pytest.raises(InputError):
            parse_basis("wavelets")

    def test_pairs(self):
        assert parse_pair("1e-4,1e4") == (1e-4, 1e4)
        with pytest.raises(InputError):
            parse_pair("1,2,3")


class TestGenerateCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "gen.csv"
        rc = main(["generate", "--n", "49", "--sigma0", "0.1",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        ds = load_dataset(out)
        assert ds.n == 49
        assert ds.metadata["seed"] == 5


class TestEstimateCommand:
    def test_reference_style_run(self, data_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["estimate", "--data", str(data_csv), "--basis", "poly:2",
                   "--kernel", "exp:0.1", "--out", str(out)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "sigma0=" in summary and "outcome=" in summary
        report = json.loads(out.read_text())
        for key in ("hyperparams", "ell_max", "n_ell_evals", "n_root_iters",
                    "method", "outcome", "diagnostics"):
            assert key in report
        assert report["method"] == "profiled_eta"

    def test_matches_library_call(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        main(["estimate", "--data", str(data_csv), "--out", str(out)])
        report = json.loads(out.read_text())
        ds = load_dataset(data_csv)
        X = build_design(ds.points, BasisSpec("polynomial", 2))
        K = correlation_matrix(ds.points, CorrelationKernel("exponential", 0.1))
        direct = estimate_variances(GpModel(ds.z, X, K, ds.points))
        assert report["hyperparams"]["sigma2"] == pytest.approx(
            direct.hyperparams.sigma2, rel=1e-12)

    def test_direct_flag(self, data_csv, tmp_path):
        out = tmp_path / "direct.json"
        rc = main(["estimate", "--data", str(data_csv), "--direct",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["method"] == "direct_nelder_mead"

    def test_malformed_csv_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n0.1,0.2\n")
        out = tmp_path / "report.json"
        rc = main(["estimate", "--data", str(bad), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["estimate", "--data", str(tmp_path / "nope.csv")])
        assert rc == 2

    def test_bad_kernel_exits_2(self, data_csv):
        rc = main(["estimate", "--data", str(data_csv),
                   "--kernel", "bogus:1"])
        assert rc == 2

    def test_reproducible_reports(self, data_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["estimate", "--data", str(data_csv), "--out", str(out)])
            payload = json.loads(out.read_text())
            payload["diagnostics"].pop("timing")
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_threshold_flag_changes_classification(self, data_csv, tmp_path):
        out = tmp_path / "thr.json"
        rc = main(["estimate", "--data", str(data_csv),
                   "--thresholds", "1e-4,1.0", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["outcome"] == "noise_dominated"

    def test_tabulated_design_matrix_ingestion(self, data_csv, tmp_path):
        ds = load_dataset(data_csv)
        X = build_design(ds.points, BasisSpec("polynomial", 2))
        design_path = tmp_path / "design.csv"
        np.savetxt(design_path, X.entries, delimiter=",")
        out_tab = tmp_path / "tab.json"
        out_ref = tmp_path / "ref.json"
        assert main(["estimate", "--data", str(data_csv), "--basis",
                     f"file:{design_path}", "--out", str(out_tab)]) == 0
        assert main(["estimate", "--data", str(data_csv), "--basis",
                     "poly:2", "--out", str(out_ref)]) == 0
        tab = json.loads(out_tab.read_text())["hyperparams"]
        ref = json.loads(out_ref.read_text())["hyperparams"]
        assert tab["sigma2"] == pytest.approx(ref["sigma2"], rel=1e-9)

    def test_rank_deficient_tabulated_design_rejected(self, data_csv,
                                                      tmp_path):
        ds = load_dataset(data_csv)
        col = np.ones(ds.n)
        design_path = tmp_path / "design.csv"
        np.savetxt(design_path, np.column_stack([col, col]), delimiter=",")
        rc = main(["estimate", "--data", str(data_csv), "--basis",
                   f"file:{design_path}"])
        assert rc == 2

    def test_kernel_optimization_workflow(self, tmp_path):
        small = tmp_path / "opt.csv"
        save_dataset(generate_synthetic(64, 0.2, seed=2), small)
        out = tmp_path / "opt.json"
        rc = main(["estimate", "--data", str(small), "--optimize-kernel",
                   "matern", "--priors", "inverse-square", "--init",
                   "0.1,1", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["alpha_hat"] is not None
        assert report["nu_hat"] is not None
        assert "log_posterior" in report["diagnostics"]


class TestTable1Command:
    def test_emits_all_basis_rows(self, data_csv, tmp_path):
        out = tmp_path / "table1.csv"
        rc = main(["table1", "--data", str(data_csv), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == \
            "basis,m,sigma0,log10_eta,sigma_hat,sigma0_hat,rel_error"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["poly:0", "poly:1", "poly:2", "poly:3", "poly:4",
                         "poly:5", "trig"]
        ms = [int(line.split(",")[1]) for line in lines[1:]]
        assert ms == [1, 3, 6, 10, 15, 21, 4]

    def test_row_values_match_library(self, data_csv, tmp_path):
        out = tmp_path / "table1.csv"
        main(["table1", "--data", str(data_csv), "--out", str(out)])
        q2 = out.read_text().strip().splitlines()[3].split(",")
        ds = load_dataset(data_csv)
        X = build_design(ds.points, BasisSpec("polynomial", 2))
        K = correlation_matrix(ds.points, CorrelationKernel("exponential", 0.1))
        rep = estimate_variances(GpModel(ds.z, X, K, ds.points))
        assert float(q2[4]) == pytest.approx(rep.hyperparams.sigma, abs=1e-4)
        assert float(q2[5]) == pytest.approx(rep.hyperparams.sigma0, abs=1e-4)

    def test_failed_rows_marked_and_run_continues(self, tmp_path):
        small = tmp_path / "small.csv"
        save_dataset(generate_synthetic(16, 0.2, seed=1), small)
        out = tmp_path / "table1.csv"
        rc = main(["table1", "--data", str(small), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        # poly:4 needs m=15 < 16 points; poly:5 needs m=21 and must fail
        assert "failed" in lines[6]
        assert lines[7].startswith("trig,")


class TestBenchmarkCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["benchmark", "--sizes", "64,144", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,storage,method,wall_time")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        by_key = {(r[0], r[2]): r for r in rows}
        for n in ("64", "144"):
            profiled = by_key[(n, "profiled")]
            direct = by_key[(n, "direct")]
            assert int(profiled[6]) < int(direct[6])

    def test_concurrent_jobs_produce_all_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["benchmark", "--sizes", "64,100", "--jobs", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(line.count(",") == 8 for line in lines)

    def test_wall_time_grows_with_n(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["benchmark", "--sizes", "64,400", "--out", str(out)])
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        profiled = {int(r[0]): float(r[3]) for r in rows
                    if r[2] == "profiled"}
        assert profiled[400] >= profiled[64]


class TestPlotdataCommand:
    def test_columns_finite_and_bounded(self, data_csv, tmp_path):
        out = tmp_path / "plot.csv"
        rc = main(["plotdata", "--data", str(data_csv), "--grid-points",
                   "25", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == \
            "eta,d_ell,bound_lo,bound_hi,asymptote_1,asymptote_2,is_root"
        for line in lines[1:]:
            eta, d_ell, lo, hi, a1, a2, is_root = (float(v)
                                                   for v in line.split(","))
            assert all(math.isfinite(v) for v in (eta, d_ell, lo, hi, a1, a2))
            assert lo - 1e-12 <= d_ell <= hi + 1e-12
            assert is_root in (0.0, 1.0)
        assert any(line.endswith(",1") for line in lines[1:])
        # asymptotes converge to the exact curve at the large-eta end
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[5] - last[1]) <= 0.05 * abs(last[1])

    def test_plotdata_output_is_reproducible(self, data_csv, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["plotdata", "--data", str(data_csv), "--grid-points",
                  "15", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTraceInterpCommand:
    def test_fit_and_serialize(self, data_csv, tmp_path, capsys):
        out = tmp_path / "interp.json"
        rc = main(["trace-interp", "--data", str(data_csv),
                   "--nodes", "1,10,100", "--check", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("nodes", "tau0", "tau_values", "weights", "n", "method",
                    "seed"):
            assert key in payload
        assert payload["weights"][0] == 1.0
        assert "rel_err" in capsys.readouterr().out

    def test_reuse_across_invocations(self, data_csv, tmp_path):
        # tapered (sparse) K: the dense backend has exact traces and never
        # reads an interpolant
        kernel = ["--kernel", "exp:0.1:taper=0.05"]
        interp = tmp_path / "interp.json"
        main(["trace-interp", "--data", str(data_csv), *kernel,
              "--out", str(interp)])
        reused = tmp_path / "reused.json"
        fresh = tmp_path / "fresh.json"
        assert main(["estimate", "--data", str(data_csv), *kernel,
                     "--trace-interp", str(interp), "--out",
                     str(reused)]) == 0
        assert main(["estimate", "--data", str(data_csv), *kernel,
                     "--out", str(fresh)]) == 0
        a = json.loads(reused.read_text())
        b = json.loads(fresh.read_text())
        assert a["diagnostics"]["trace"]["interpolated"]
        assert a["hyperparams"] == b["hyperparams"]

    def test_mismatched_interpolant_rejected(self, data_csv, tmp_path):
        other = tmp_path / "other.csv"
        save_dataset(generate_synthetic(25, 0.2, seed=1), other)
        interp = tmp_path / "interp.json"
        main(["trace-interp", "--data", str(other), "--out", str(interp)])
        rc = main(["estimate", "--data", str(data_csv), "--trace-interp",
                   str(interp)])
        assert rc == 2
