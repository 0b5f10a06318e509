import csv
import json
import math

import numpy as np
import pytest
import scipy.linalg

import etafit.kernels
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
        assert parse_pair("1e-4,1e4", "--thresholds") == (1e-4, 1e4)
        with pytest.raises(InputError, match="--thresholds"):
            parse_pair("1,2,3", "--thresholds")


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--kernel", "exp:abc"], "--kernel"),
    (["estimate", "--basis", "poly:x"], "--basis"),
    (["estimate", "--thresholds", "a,b"], "--thresholds"),
    (["estimate", "--thresholds", "1e4,1e-4"], "0 < c < C"),
    (["trace-interp", "--nodes", "1,a"], "--nodes"),
    (["plotdata", "--eta-range", "0,10"], "--eta-range"),
    (["plotdata", "--eta-range", "10,1"], "--eta-range"),
    (["plotdata", "--grid-points", "-3"], "--grid-points"),
    (["plotdata", "--grid-points", "0"], "--grid-points"),
    (["benchmark", "--sizes", "16,abc"], "--sizes"),
    (["benchmark", "--sparse-sizes", "x"], "--sparse-sizes"),
], ids=["kernel", "basis", "thresholds", "empty_window", "nodes",
        "eta_range_zero", "eta_range_reversed", "grid_points_negative",
        "grid_points_zero", "sizes", "sparse_sizes"])
def test_malformed_argument_exits_2(argv, message, data_csv, tmp_path,
                                    capsys):
    data = [] if argv[0] == "benchmark" else ["--data", str(data_csv)]
    rc = main([argv[0], *data, *argv[1:], "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, metadata", [
    ("estimate", "{not json"),
    ("table1", "[1,2]"),
], ids=["not_json", "not_an_object"])
def test_malformed_metadata_sidecar_exits_2(command, metadata, data_csv,
                                            tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(data_csv.read_text())
    (tmp_path / "data.csv.json").write_text(metadata)
    rc = main([command, "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "data.csv.json" in err
    assert not (tmp_path / "out").exists()


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

    def test_kernel_optimization_with_tabulated_design(self, tmp_path):
        # --basis file:X.csv reaches the kernel search as a design matrix,
        # the same one that poly:2 builds, so both runs find one optimum
        small = tmp_path / "opt.csv"
        save_dataset(generate_synthetic(64, 0.2, seed=2), small)
        ds = load_dataset(small)
        design_path = tmp_path / "design.csv"
        np.savetxt(design_path,
                   build_design(ds.points, BasisSpec("polynomial", 2)).entries,
                   delimiter=",")
        reports = []
        for basis in (f"file:{design_path}", "poly:2"):
            out = tmp_path / "opt.json"
            assert main(["estimate", "--data", str(small), "--basis", basis,
                         "--optimize-kernel", "matern", "--priors",
                         "inverse-square", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        tab, ref = reports
        assert tab["alpha_hat"] == pytest.approx(ref["alpha_hat"], rel=1e-9)
        assert tab["nu_hat"] == pytest.approx(ref["nu_hat"], rel=1e-9)
        assert tab["hyperparams"]["sigma2"] == pytest.approx(
            ref["hyperparams"]["sigma2"], rel=1e-9)

    def test_sparse_estimate_fits_its_own_interpolant(self, data_csv,
                                                      tmp_path):
        # tapered (sparse) K: each run fits its interpolant at
        # traces.DEFAULT_NODES, so two invocations and the library default
        # give the same hyperparameters
        argv = ["estimate", "--data", str(data_csv), "--kernel",
                "exp:0.1:taper=0.05"]
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert all(r["diagnostics"]["trace"]["interpolated"]
                   for r in reports)
        assert reports[0]["hyperparams"] == reports[1]["hyperparams"]
        ds = load_dataset(data_csv)
        model = GpModel(
            ds.z, build_design(ds.points, BasisSpec("polynomial", 2)),
            correlation_matrix(ds.points, CorrelationKernel(
                "exponential", 0.1, taper_threshold=0.05)), ds.points)
        library = json.loads(estimate_variances(model).to_json())
        assert reports[0]["hyperparams"] == library["hyperparams"]

    @pytest.mark.parametrize("command", [
        ["estimate", "--data", "unused.csv"],
        ["table1", "--out", "unused.csv"],
        ["benchmark", "--out", "unused.csv"],
    ], ids=["estimate", "table1", "benchmark"])
    def test_removed_options_are_rejected(self, command, capsys):
        # a script that still passes a pre-fitted interpolant, nodes or a
        # root tolerance stops at parsing instead of running with settings
        # it did not ask for
        for flag in ("--trace-interp", "--nodes", "--eta-tol"):
            with pytest.raises(SystemExit) as exc:
                main([*command, flag, "interp.json"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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

    def test_generated_dataset_is_reproducible(self, tmp_path):
        # without --data the dataset comes from --seed, which defaults to 0
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["table1", "--n", "64", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
        header, *rows = csv.reader(lines)
        assert all(len(row) == len(header) for row in rows)


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

    def test_wall_time_grows_with_n(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["benchmark", "--sizes", "64,400", "--out", str(out)])
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        profiled = {int(r[0]): float(r[3]) for r in rows
                    if r[2] == "profiled"}
        assert profiled[400] >= profiled[64]

    def test_cell_beyond_available_memory_is_recorded(self, tmp_path,
                                                      monkeypatch):
        import etafit.kernels
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: 8 * 3 * 100 ** 2)
        out = tmp_path / "bench.csv"
        assert main(["benchmark", "--sizes", "64,144", "--out",
                     str(out)]) == 0
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows)
        outcome = header.index("outcome")
        assert not any(row[outcome].startswith("failed")
                       for row in rows if row[0] == "64")
        refused = [row for row in rows if row[0] == "144"]
        assert len(refused) == 2
        assert all(row[outcome].startswith("failed: dense K at n=144")
                   for row in refused)


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

    def test_check_on_sparse_K_refused_beyond_available_memory(
            self, data_csv, tmp_path, monkeypatch, capsys):
        # the exact traces of --check densify K; the guard refuses that
        # before two n x n arrays are allocated.  The cap holds the
        # assembly of sparse K (4140 entries, about 1.6 n x n doubles).
        n = load_dataset(data_csv).points.shape[0]
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(8 * 1.8 * n ** 2))
        args = ["trace-interp", "--data", str(data_csv), "--kernel",
                "exp:0.1:taper=0.05", "--nodes", "1,10",
                "--out", str(tmp_path / "interp.json")]
        assert main(args) == 0
        assert main(args + ["--check"]) == 2
        err = capsys.readouterr().err
        assert "dense eigensolve" in err
        # K is already sparse, so tapering cannot help
        assert "taper" not in err

    def test_refused_check_writes_nothing(self, data_csv, tmp_path,
                                          monkeypatch):
        n = load_dataset(data_csv).points.shape[0]
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(8 * 1.8 * n ** 2))
        out = tmp_path / "interp.json"
        assert main(["trace-interp", "--data", str(data_csv), "--kernel",
                     "exp:0.1:taper=0.05", "--nodes", "1,10", "--check",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_check_on_dense_K_reads_the_solver_spectrum(
            self, data_csv, tmp_path, monkeypatch, capsys):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("second eigensolve of dense K")

        monkeypatch.setattr(scipy.linalg, "eigvalsh", no_eigensolve)
        rc = main(["trace-interp", "--data", str(data_csv), "--nodes",
                   "1,10", "--check", "--out", str(tmp_path / "i.json")])
        assert rc == 0
        assert "rel_err" in capsys.readouterr().out
