import csv
import json
import shutil

import pytest

from vaxcirc.celllib import default_library, nominal_library, save_variation_library
from vaxcirc.cli import main
from vaxcirc.harness import rca_adder
from vaxcirc.netlist import parse_netlist, write_netlist
from vaxcirc.timing import sta_arrivals

from test_netlist import _tie_pi


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def rca4_file(tmp_path):
    path = tmp_path / "rca4.nl"
    path.write_text(write_netlist(rca_adder(4)))
    return str(path)


class TestGen:
    def test_stdout_netlist(self, capsys):
        code, out, _ = _run(capsys, ["gen", "--family", "rca_adder", "--width", "4"])
        assert code == 0
        assert parse_netlist(out) == rca_adder(4)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "n.nl"
        code, out, _ = _run(
            capsys, ["gen", "--family", "cla_adder", "--width", "8", "--out", str(path)]
        )
        assert code == 0
        assert "cla8" in out
        assert parse_netlist(path.read_text()).name == "cla8"

    def test_default_is_rca8(self, capsys):
        code, out, _ = _run(capsys, ["gen"])
        assert code == 0
        assert parse_netlist(out) == rca_adder(8)

    def test_bad_width_is_a_clean_error(self, capsys):
        code, _, err = _run(capsys, ["gen", "--width", "5"])
        assert code == 2
        assert err.startswith("error:")


class TestSta:
    def test_nominal(self, capsys, rca4_file):
        code, out, _ = _run(capsys, ["sta", "--netlist", rca4_file])
        assert code == 0
        nominal = sta_arrivals(rca_adder(4), nominal_library(default_library())).cpd
        assert f"nominal_cpd_ps {float(nominal)!r}" in out
        assert "critical_path " in out

    def test_mc_block(self, capsys, rca4_file):
        code, out, _ = _run(
            capsys, ["--seed", "3", "sta", "--netlist", rca4_file, "--samples", "16"]
        )
        assert code == 0
        assert "mc_samples 16" in out
        assert "mc_worst_ps " in out

    def test_missing_netlist(self, capsys):
        code, _, err = _run(capsys, ["sta", "--netlist", "/nonexistent.nl"])
        assert code == 2
        assert err.startswith("error:")


class TestSsta:
    def test_summary_lines(self, capsys, rca4_file):
        code, out, _ = _run(capsys, ["ssta", "--netlist", rca4_file])
        assert code == 0
        for key in ("mu_cpd_ps ", "sigma_cpd_ps ", "confidence ", "candidates "):
            assert key in out
        probs = [
            float(line.split()[2])
            for line in out.splitlines()
            if line.startswith("endpoint_prob ")
        ]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


class TestSimulate:
    def test_identity_is_exact(self, capsys, rca4_file):
        code, out, _ = _run(
            capsys,
            ["simulate", "--netlist", rca4_file, "--reference", rca4_file,
             "--vectors", "500"],
        )
        assert code == 0
        assert "nmed 0.0" in out
        assert "error_rate 0.0" in out

    def test_lsb_drop_nmed(self, capsys, tmp_path, rca4_file):
        approx = tmp_path / "approx.nl"
        approx.write_text(write_netlist(_tie_pi(rca_adder(4), "a0", "GND")))
        code, out, _ = _run(
            capsys,
            ["simulate", "--netlist", str(approx), "--reference", rca4_file,
             "--exhaustive"],
        )
        assert code == 0
        assert f"nmed {0.5 / 31!r}" in out
        assert "vectors 512" in out

    def test_relaxed_clock_has_no_errors(self, capsys, rca4_file):
        code, out, _ = _run(
            capsys,
            ["simulate", "--netlist", rca4_file, "--clock", "1e9",
             "--vectors", "200"],
        )
        assert code == 0
        assert "nmed 0.0" in out


class TestConfigLayering:
    def test_section_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"family": "rca_adder", "width": 4}}))
        code, out, _ = _run(capsys, ["--config", str(cfg), "gen"])
        assert code == 0
        assert parse_netlist(out) == rca_adder(4)

    def test_cli_flag_wins_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"width": 4}}))
        code, out, _ = _run(capsys, ["--config", str(cfg), "gen", "--width", "8"])
        assert code == 0
        assert parse_netlist(out) == rca_adder(8)

    def test_flat_key_applies_across_subcommands(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "count": 3}))
        out_dir = tmp_path / "libs"
        code, out, _ = _run(
            capsys,
            ["--config", str(cfg), "sample-libs", "--out", str(out_dir)],
        )
        assert code == 0
        with open(out_dir / "samples.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 3
        assert [r[0] for r in rows[1:]] == ["7", "8", "9"]

    def test_missing_config_file(self, capsys):
        code, _, err = _run(capsys, ["--config", "/nonexistent.json", "gen"])
        assert code == 2
        assert err.startswith("error:")

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestPipeline:
    def test_end_to_end(self, capsys, tmp_path, rca4_file):
        run = str(tmp_path / "run")
        code, out, _ = _run(
            capsys,
            ["--seed", "5", "optimize", "--netlist", rca4_file,
             "--pop", "8", "--gens", "3", "--search-vectors", "128",
             "--report-vectors", "500", "--tmap-samples", "20",
             "--bound-samples", "20", "--out", run],
        )
        assert code == 0
        assert "front_size " in out
        config = json.loads((tmp_path / "run" / "config.json").read_text())
        assert f"error_bound {config['ga']['error_bound']!r}\n" in out

        code, out, _ = _run(
            capsys, ["evaluate", "--run", run, "--samples", "25"]
        )
        assert code == 0
        assert "baseline_mean_cpd_ps " in out

        code, out, _ = _run(capsys, ["report", "--run", run])
        assert code == 0
        assert "front_size " in out
        assert (tmp_path / "run" / "report" / "pareto.csv").is_file()

    def test_evaluate_without_run_dir(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["evaluate", "--run", str(tmp_path / "nothing")]
        )
        assert code == 2
        assert "config.json" in err


@pytest.fixture(scope="module")
def rca4_run(tmp_path_factory):
    """A small optimized and evaluated rca4 run directory."""
    root = tmp_path_factory.mktemp("rca4_run")
    netlist = root / "rca4.nl"
    netlist.write_text(write_netlist(rca_adder(4)))
    run = str(root / "run")
    assert main(["optimize", "--netlist", str(netlist), "--pop", "4", "--gens", "2",
                 "--search-vectors", "64", "--report-vectors", "64",
                 "--tmap-samples", "8", "--bound-samples", "8", "--out", run]) == 0
    assert main(["evaluate", "--run", run, "--samples", "8"]) == 0
    return run


class TestRunDirErrors:
    """A run file that lacks a field `evaluate` or `report` reads ends in
    exit 2 and one `error:` line naming the file and the field."""

    def _break(self, tmp_path, rca4_run, case):
        run = tmp_path / "run"
        shutil.copytree(rca4_run, run)
        if case == "front_without_design_id":
            (run / "fronts" / "final_front.csv").write_text("id,nmed\ndesign_000,0.0\n")
        elif case == "config_without_clock":
            config = json.loads((run / "config.json").read_text())
            del config["clock_ps"]
            (run / "config.json").write_text(json.dumps(config))
        else:
            (run / "mc" / "designs.csv").write_text("design_id,error\ndesign_000,0.0\n")
        return str(run)

    @pytest.mark.parametrize("case,command,path,field", [
        ("front_without_design_id", "evaluate", "final_front.csv", "design_id"),
        ("config_without_clock", "evaluate", "config.json", "clock_ps"),
        ("mc_designs_other_columns", "report", "designs.csv", "worst_cpd_ps"),
    ])
    def test_missing_field_is_one_error_line(
        self, case, command, path, field, capsys, tmp_path, rca4_run
    ):
        run = self._break(tmp_path, rca4_run, case)
        code, out, err = _run(capsys, [command, "--run", run])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert path in lines[0] and repr(field) in lines[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("case,path,field", [
        ("baseline_header_only", "baseline.csv", None),
        ("meta_without_bound", "meta.json", "stale_worst_nmed"),
        ("meta_bound_not_a_number", "meta.json", "stale_worst_nmed"),
        ("designs_short_row", "designs.csv", "baseline_clock_ps"),
        ("designs_text_for_a_number", "designs.csv", "nmed"),
    ])
    def test_corrupt_mc_file_is_one_error_line(
        self, case, path, field, capsys, tmp_path, rca4_run
    ):
        """`report` refuses a corrupt mc/ file before it writes a report."""
        run = tmp_path / "run"
        shutil.copytree(rca4_run, run)
        mc = run / "mc"
        if case == "baseline_header_only":
            header = (mc / "baseline.csv").read_text().splitlines()[0]
            (mc / "baseline.csv").write_text(header + "\n")
        elif case.startswith("meta"):
            meta = json.loads((mc / "meta.json").read_text())
            if case == "meta_without_bound":
                del meta["stale_worst_nmed"]
            else:
                meta["stale_worst_nmed"] = "0.1"
            (mc / "meta.json").write_text(json.dumps(meta))
        else:
            header, row = (mc / "designs.csv").read_text().splitlines()[:2]
            values = row.split(",")
            if case == "designs_short_row":
                values.pop()
            else:
                values[header.split(",").index("nmed")] = "abc"
            (mc / "designs.csv").write_text(f"{header}\n{','.join(values)}\n")
        code, out, err = _run(capsys, ["report", "--run", str(run)])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert path in lines[0] and (field is None or repr(field) in lines[0])
        assert "Traceback" not in err
        assert not any((run / "report").iterdir())


def _bad_library(tmp_path):
    path = tmp_path / "lib.json"
    save_variation_library(path, default_library())
    doc = json.loads(path.read_text())
    doc["cells"]["INV"][0]["mu_ps"] = 0.0
    path.write_text(json.dumps(doc))
    return str(path)


class TestErrorContract:
    """Bad user input ends in exit 2 and a single `error:` line on stderr."""

    @pytest.mark.parametrize(
        "case",
        ["pop_3", "malformed_config", "config_not_object", "nonpositive_mu",
         "section_number", "section_string", "section_value_string",
         "flat_value_string", "sta_no_netlist", "ssta_no_netlist",
         "simulate_no_netlist", "simulate_no_reference", "optimize_no_netlist",
         "count_negative", "threads_zero", "bound_samples_zero",
         "sta_samples_negative", "optimize_tmap_samples_zero",
         "ssta_tmap_samples_negative", "optimize_lambda_nan", "optimize_lambda_inf",
         "optimize_report_vectors_zero", "simulate_clock_nan",
         "ssta_cpb_threshold_nan"],
    )
    def test_one_error_line_no_traceback(self, case, capsys, tmp_path, rca4_file):
        cfg = tmp_path / "cfg.json"
        sta = ["--config", str(cfg), "sta", "--netlist", rca4_file]
        argv = {
            "pop_3": ["optimize", "--netlist", rca4_file, "--pop", "3",
                      "--out", str(tmp_path / "run")],
            "malformed_config": ["--config", str(cfg), "gen"],
            "config_not_object": ["--config", str(cfg), "gen"],
            "nonpositive_mu": ["sta", "--netlist", rca4_file,
                               "--library", _bad_library(tmp_path)],
            "section_number": sta,
            "section_string": sta,
            "section_value_string": sta,
            "flat_value_string": ["--config", str(cfg), "optimize", "--netlist",
                                  rca4_file, "--out", str(tmp_path / "run")],
            "sta_no_netlist": ["sta"],
            "ssta_no_netlist": ["ssta"],
            "simulate_no_netlist": ["simulate", "--reference", rca4_file],
            "simulate_no_reference": ["simulate", "--netlist", rca4_file],
            "optimize_no_netlist": ["optimize", "--out", str(tmp_path / "run")],
            "count_negative": ["sample-libs", "--count", "-2",
                               "--out", str(tmp_path / "run")],
            "threads_zero": ["--threads", "0", "optimize", "--netlist", rca4_file,
                             "--pop", "2", "--gens", "1", "--search-vectors", "64",
                             "--report-vectors", "64", "--tmap-samples", "4",
                             "--bound-samples", "4", "--out", str(tmp_path / "run")],
            "bound_samples_zero": ["optimize", "--netlist", rca4_file,
                                   "--bound-samples", "0", "--out", str(tmp_path / "run")],
            "sta_samples_negative": ["sta", "--netlist", rca4_file, "--samples", "-1"],
            "optimize_tmap_samples_zero": ["optimize", "--netlist", rca4_file,
                                           "--tmap-samples", "0",
                                           "--out", str(tmp_path / "run")],
            "ssta_tmap_samples_negative": ["ssta", "--netlist", rca4_file,
                                           "--tmap-samples", "-3"],
            "optimize_lambda_nan": ["optimize", "--netlist", rca4_file, "--lambda", "nan",
                                    "--out", str(tmp_path / "run")],
            "optimize_lambda_inf": ["optimize", "--netlist", rca4_file, "--lambda", "inf",
                                    "--out", str(tmp_path / "run")],
            "optimize_report_vectors_zero": ["optimize", "--netlist", rca4_file,
                                             "--report-vectors", "0",
                                             "--out", str(tmp_path / "run")],
            "simulate_clock_nan": ["simulate", "--netlist", rca4_file, "--clock", "nan"],
            "ssta_cpb_threshold_nan": ["ssta", "--netlist", rca4_file,
                                       "--cpb-threshold", "nan"],
        }[case]
        cfg.write_text({
            "malformed_config": "{not json",
            "section_number": '{"sta": 5}',
            "section_string": '{"sta": "samples"}',
            "section_value_string": '{"sta": {"samples": "x"}}',
            "flat_value_string": '{"pop": "ten"}',
        }.get(case, "[4]"))
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()
