import pytest

from tempent.cli import run


def lines_of(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestEntropyCommand:
    def test_prints_eight_sig_figs(self, capsys):
        assert run(["entropy", "--sigma", "0.5", "--lambda", "0", "--dist", "0.5,0.5"]) == 0
        assert capsys.readouterr().out == "0.83255461\n"

    def test_sigma_one_is_shannon(self, capsys):
        assert run(["entropy", "--sigma", "1", "--lambda", "3", "--dist", "0.5,0.5"]) == 0
        assert capsys.readouterr().out == "0.69314718\n"

    def test_bad_sum_exits_2(self, capsys):
        assert run(["entropy", "--sigma", "0.5", "--dist", "0.6,0.6"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_weight_exits_2(self):
        assert run(["entropy", "--sigma", "0.5", "--dist", "1.1,-0.1"]) == 2

    def test_bad_sigma_exits_2(self):
        assert run(["entropy", "--sigma", "1.5", "--dist", "0.5,0.5"]) == 2

    def test_missing_flag_exits_2(self, capsys):
        assert run(["entropy", "--sigma", "0.5"]) == 2
        capsys.readouterr()

    def test_weight_above_one_exits_2(self, capsys):
        assert run(["entropy", "--sigma", "0.5", "--dist", "1.0000000000001,0"]) == 2
        assert capsys.readouterr().out == ""


class TestCheckAxiomsCommand:
    def test_csv_shape_and_exit(self, tmp_path):
        out = tmp_path / "ax.csv"
        code = run(
            [
                "check-axioms", "--sigma", "0.5", "--lambda", "1",
                "--n", "2,5", "--samples", "500", "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        got = lines_of(out)
        assert got[0] == "axiom,config,samples,worst_violation,pass"
        assert len(got) == 1 + 2 * 7  # 7 axiom rows per n
        assert all(row.endswith(",true") for row in got[1:])
        assert "n=5;sigma=0.5;lambda=1" in got[8]

    def test_deterministic(self, tmp_path):
        args = [
            "check-axioms", "--sigma", "0.75", "--lambda", "0",
            "--n", "3", "--samples", "400", "--seed", "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exits_2(self, capsys, samples):
        argv = ["check-axioms", "--sigma", "0.5", "--n", "3", "--samples", samples]
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    def test_empty_n_exits_2(self, capsys):
        assert run(["check-axioms", "--sigma", "0.5", "--n", ","]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_seed_exits_2(self, capsys):
        argv = ["check-axioms", "--sigma", "0.5", "--n", "3", "--samples", "10"]
        assert run(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().out == ""


class TestSweepCommand:
    def test_rows_and_header(self, capsys):
        code = run(
            [
                "sweep", "--family", "A", "--sigma", "0.5", "--lambda", "1",
                "--delta", "1e-3", "--n", "10,100,1000",
            ]
        )
        assert code == 0
        got = capsys.readouterr().out.splitlines()
        assert got[0] == "family,n,delta,sigma,lambda,s_p,s_p_prime,ratio"
        assert len(got) == 4
        assert [row.split(",")[1] for row in got[1:]] == ["10", "100", "1000"]
        # ratio decreasing from n=10 on for this configuration
        ratios = [float(row.split(",")[-1]) for row in got[1:]]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_control_rows(self, capsys):
        code = run(
            [
                "sweep", "--family", "A,B", "--sigma", "0.5", "--lambda", "0",
                "--delta", "1e-3", "--n", "100,1000", "--control-renyi", "0.5",
            ]
        )
        assert code == 0
        fams = [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]]
        assert fams == ["A", "A", "A_renyi", "A_renyi", "B", "B", "B_renyi", "B_renyi"]

    def test_output_file_lf_and_deterministic(self, tmp_path):
        args = [
            "sweep", "--family", "B", "--sigma", "0.25", "--lambda", "2",
            "--delta", "1e-2", "--n", "100,10000",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        raw = a.read_bytes()
        assert raw == b.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_unknown_family_exits_2(self, capsys):
        assert run(["sweep", "--family", "Q", "--sigma", "0.5", "--delta", "1e-3", "--n", "10"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("family", ["RandomSearch", ","])
    def test_no_structured_family_exits_2(self, capsys, family):
        argv = ["sweep", "--family", family, "--sigma", "0.5", "--delta", "0.1"]
        assert run(argv + ["--n", "10"]) == 2
        assert capsys.readouterr().out == ""

    def test_family_list_tolerates_spaces_and_trailing_comma(self, capsys):
        argv = ["sweep", "--sigma", "0.5", "--delta", "0.1", "--n", "10", "--family"]
        assert run(argv + ["A,B"]) == 0
        want = capsys.readouterr().out
        assert run(argv + [" A, B,"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("q", ["inf", "nan", "1", "0", "60"])
    def test_bad_or_underflowing_renyi_order_exits_2(self, capsys, q):
        argv = ["sweep", "--family", "B", "--sigma", "0.5", "--delta", "0.1"]
        assert run(argv + ["--n", "1000000", "--control-renyi", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_renyi_rows_have_no_negative_zero(self, capsys):
        argv = ["sweep", "--family", "A", "--sigma", "0.5", "--delta", "0"]
        assert run(argv + ["--n", "10", "--control-renyi", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2] == "A_renyi,10,0,0.5,0,0,0,0"
        assert all(cell != "-0" for row in rows for cell in row.split(","))

    def test_descending_grid_exits_2(self, capsys):
        assert (
            run(["sweep", "--family", "A", "--sigma", "0.5", "--delta", "1e-3", "--n", "100,10"])
            == 2
        )
        capsys.readouterr()


class TestSearchCommand:
    def test_row_and_determinism(self, tmp_path):
        args = [
            "search", "--sigma", "1", "--lambda", "0", "--delta", "0.1",
            "--n", "3", "--samples", "800", "--seed", "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        got = lines_of(a)
        assert len(got) == 2
        assert got[1].startswith("RandomSearch,3,0.1,")

    def test_multiple_n_exits_2(self, capsys):
        assert (
            run(["search", "--sigma", "0.5", "--delta", "0.1", "--n", "3,4"]) == 2
        )
        capsys.readouterr()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exits_2(self, capsys, samples):
        argv = ["search", "--sigma", "1", "--delta", "0.1", "--n", "3"]
        argv += ["--samples", samples]
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    def test_negative_seed_exits_2(self, capsys):
        argv = ["search", "--sigma", "1", "--delta", "0.1", "--n", "3", "--seed", "-1"]
        assert run(argv) == 2
        assert capsys.readouterr().out == ""


class TestVerifyFracCommand:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "vf.csv"
        assert run(["verify-frac", "--out", str(out)]) == 0
        got = lines_of(out)
        assert got[0] == "p,sigma,lambda,t,numeric,closed_form,rel_err"
        assert len(got) == 1 + 9 * 9 * 4
        assert all(float(row.split(",")[-1]) < 1e-4 for row in got[1:])

    def test_impossible_tol_exits_1(self, tmp_path):
        out = tmp_path / "vf.csv"
        assert run(["verify-frac", "--tol", "1e-13", "--out", str(out)]) == 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["verify-frac", "--out", str(a)]) == 0
        assert run(["verify-frac", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_zero_or_nan_tol_exits_2(self, capsys, tol):
        assert run(["verify-frac", "--tol", tol]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_tol_exits_2(self, capsys):
        assert run(["verify-frac", "--tol", "-1"]) == 2
        assert capsys.readouterr().out == ""
