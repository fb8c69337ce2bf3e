import builtins
import csv
import json
import math
import os
import shutil

import pytest

from vaxcirc import harness
from vaxcirc.celllib import default_library, nominal_library, save_variation_library
from vaxcirc.cli import _COMMANDS, _FLAGS, main
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

    def test_no_arriving_po_is_zero(self, capsys, tmp_path):
        """A CPD with no arriving PO is 0.0, nominal and under every library."""
        path = tmp_path / "kc.nl"
        path.write_text("circuit kc\ninput a\noutput GND VDD kc\n"
                        "gate u_kc AND2 A=GND B=VDD Y=kc\nend\n")
        code, out, err = _run(capsys, ["sta", "--netlist", str(path), "--samples", "3"])
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "nominal_cpd_ps 0.0", "mc_samples 3", "mc_mean_ps 0.0", "mc_std_ps 0.0",
            "mc_worst_ps 0.0",
        ]


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

    def test_exhaustive_reads_no_vectors(self, capsys, rca4_file):
        code, out, _ = _run(
            capsys,
            ["simulate", "--netlist", rca4_file, "--reference", rca4_file,
             "--exhaustive", "--vectors", "0"],
        )
        assert code == 0
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

    def test_no_subcommand_is_one_error_line(self, capsys):
        code, out, err = _run(capsys, [])
        assert code == 2 and out == ""
        assert err == "error: the following arguments are required: command\n"


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

    def test_gate_free_netlist(self, capsys, tmp_path):
        """Every stage runs on a baseline with no gates, whose POs are its
        PIs; its mean CPD is 0.0, and so is every CPD reduction."""
        path = tmp_path / "t.nl"
        path.write_text("circuit t\ninput a b\noutput a b\nend\n")
        run = str(tmp_path / "run")
        for argv in (
            ["optimize", "--netlist", str(path), "--pop", "4", "--gens", "1",
             "--search-vectors", "64", "--report-vectors", "64",
             "--tmap-samples", "8", "--bound-samples", "8", "--out", run],
            ["evaluate", "--run", run, "--samples", "8"],
            ["report", "--run", run],
        ):
            code, _, err = _run(capsys, argv)
            assert code == 0, err
        with open(tmp_path / "run" / "report" / "designs.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and {r["cpd_reduction_pct"] for r in rows} == {"0.0"}

    def test_zero_candidate_run(self, capsys, tmp_path):
        """A run whose baseline has no candidate net is optimized, evaluated
        and reported: its chromosome files, with their blank gene line,
        read back."""
        path = tmp_path / "t.nl"
        path.write_text("circuit t\ninput a b\noutput GND\ngate g AND2 A=a B=b Y=y\nend\n")
        run = str(tmp_path / "run")
        code, out, err = _run(capsys, ["optimize", "--netlist", str(path), *_SMALL_OPTIMIZE,
                                       "--out", run])
        assert code == 0, err
        assert "candidates 0" in out
        assert list((tmp_path / "run" / "fronts" / "chromosomes").glob("*.chrom"))
        for argv in (["evaluate", "--run", run, "--samples", "8"], ["report", "--run", run]):
            code, _, err = _run(capsys, argv)
            assert code == 0, err

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


@pytest.mark.parametrize("at", [0, 1, 2])
def test_interrupted_evaluate_never_reports_a_mixed_mc(at, capsys, tmp_path, rca4_run,
                                                       monkeypatch):
    """An `evaluate` over an evaluated run, interrupted at each of its three
    writes in turn (mc/baseline.csv, mc/designs.csv, mc/meta.json), leaves
    a run that `report` either refuses in one `error:` line or reads from
    files of one evaluate run."""
    run = tmp_path / "run"
    shutil.copytree(rca4_run, run)
    assert main(["evaluate", "--run", str(run), "--samples", "50", "--mc-seed", "9000"]) == 0
    writes = []

    def interrupt(real):
        def write(path, *args):
            writes.append(os.path.relpath(path, run))
            if len(writes) > at:
                raise KeyboardInterrupt
            return real(path, *args)
        return write

    monkeypatch.setattr(harness, "_write_csv", interrupt(harness._write_csv))
    monkeypatch.setattr(harness, "_write_json", interrupt(harness._write_json))
    with pytest.raises(KeyboardInterrupt):
        harness.run_evaluate(run, mc_count=70, mc_seed=123)
    monkeypatch.undo()
    assert writes[-1] == os.path.join("mc", ("baseline.csv", "designs.csv", "meta.json")[at])
    capsys.readouterr()
    code, out, err = _run(capsys, ["report", "--run", str(run)])
    if code:
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "mc" in lines[0], err
        return
    meta = json.loads((run / "mc" / "meta.json").read_text())
    for name in ("baseline.csv", "designs.csv"):
        with open(run / "mc" / name, newline="") as f:
            for row in csv.DictReader(f):
                assert (int(row["count"]), int(row["seed"])) == (
                    meta["mc_count"], meta["mc_seed"])


def test_interrupted_optimize_is_refused(capsys, tmp_path, rca4_file, monkeypatch):
    """An `optimize` over a finished run with another seed, interrupted at
    each of its file writes in turn, leaves a run that `evaluate` refuses in
    one `error:` line naming the missing config.json."""
    argv = ["optimize", "--netlist", rca4_file, "--pop", "4", "--gens", "1",
            "--search-vectors", "64", "--report-vectors", "64",
            "--tmap-samples", "8", "--bound-samples", "8"]
    done = tmp_path / "done"
    assert main(argv + ["--out", str(done)]) == 0
    real_open = builtins.open

    def optimize_again(run, at=math.inf):
        """The file writes of a second `optimize` into `run`, raising at
        write `at`."""
        shutil.copytree(done, run)
        writes = []

        def interrupt(file, mode="r", *args, **kwargs):
            if str(file).startswith(str(run)) and set(mode) & set("wax+"):
                writes.append(os.path.relpath(file, run))
                if len(writes) > at:
                    raise KeyboardInterrupt
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", interrupt)
        try:
            assert main(["--seed", "1", *argv, "--out", str(run)]) == 0
        finally:
            monkeypatch.undo()
        return writes

    writes = optimize_again(tmp_path / "whole")
    assert writes[-1] == "config.json" and len(writes) > 5
    for at in range(len(writes)):
        run = tmp_path / f"cut{at}"
        with pytest.raises(KeyboardInterrupt):
            optimize_again(run, at)
        capsys.readouterr()
        code, out, err = _run(capsys, ["evaluate", "--run", str(run), "--samples", "8"])
        assert code == 2 and out == "", (at, writes[at], err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "missing config.json" in lines[0]


@pytest.mark.parametrize("name,column,value", [
    ("baseline.csv", "count", "7"),
    ("designs.csv", "seed", "1"),
    ("designs.csv", "baseline_clock_ps", "1.5"),
])
def test_mc_row_of_another_evaluate_is_refused(name, column, value, capsys, tmp_path,
                                              rca4_run):
    """`report` refuses, naming the file, an mc/ row whose library count,
    seed or clock is not the one mc/meta.json records."""
    run = tmp_path / "run"
    shutil.copytree(rca4_run, run)
    _csv_edit(column, value)(run / "mc" / name)
    code, out, err = _run(capsys, ["report", "--run", str(run)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert str(run / "mc" / name) in lines[0]
    assert not any((run / "report").iterdir())


def _bad_library(tmp_path):
    path = tmp_path / "lib.json"
    save_variation_library(path, default_library())
    doc = json.loads(path.read_text())
    doc["cells"]["INV"][0]["mu_ps"] = 0.0
    path.write_text(json.dumps(doc))
    return str(path)


def _drop_xor2(doc):
    del doc["cells"]["XOR2"]


def _library_without_xor2(tmp_path):
    """The default library without the XOR2 arcs, which `rca_adder` needs."""
    path = tmp_path / "no_xor2.json"
    save_variation_library(path, default_library())
    _json_edit(_drop_xor2)(path)
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
         "ssta_cpb_threshold_nan", "sample_libs_rho_two", "sample_libs_seed_negative",
         "sta_seed_negative", "optimize_pop_not_int", "sample_libs_rho_minus_inf",
         "sta_no_xor2_arcs", "ssta_no_xor2_arcs", "simulate_clock_no_xor2_arcs",
         "optimize_no_xor2_arcs"],
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
            "sample_libs_rho_two": ["sample-libs", "--rho", "2",
                                    "--out", str(tmp_path / "run")],
            "sample_libs_seed_negative": ["--seed", "-1", "sample-libs",
                                          "--out", str(tmp_path / "run")],
            "sta_seed_negative": ["--seed", "-1", "sta", "--netlist", rca4_file,
                                  "--samples", "3"],
            # argparse refuses these two itself; "-inf" reads as an option there
            "optimize_pop_not_int": ["optimize", "--netlist", "x", "--pop", "abc"],
            "sample_libs_rho_minus_inf": ["sample-libs", "--rho", "-inf",
                                          "--out", str(tmp_path / "run")],
            "sta_no_xor2_arcs": ["sta", "--netlist", rca4_file],
            "ssta_no_xor2_arcs": ["ssta", "--netlist", rca4_file],
            "simulate_clock_no_xor2_arcs": ["simulate", "--netlist", rca4_file,
                                            "--reference", rca4_file, "--clock", "100"],
            "optimize_no_xor2_arcs": ["optimize", "--netlist", rca4_file, *_SMALL_OPTIMIZE,
                                      "--out", str(tmp_path / "run")],
        }[case]
        if case.endswith("_no_xor2_arcs"):
            argv += ["--library", _library_without_xor2(tmp_path)]
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
        flag = {"optimize_pop_not_int": "--pop", "sample_libs_rho_minus_inf": "--rho"}
        assert flag.get(case, "XOR2" if "xor2" in case else "error:") in lines[0]
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,argv", [
        ("--seed", ["--seed", "-1", "optimize"]),
        ("--bound-seed", ["optimize", "--bound-seed", "-1"]),
        ("--mc-seed", ["evaluate", "--mc-seed", "-1"]),
        ("tmap seed", ["--seed", str(2**64 - 2), "optimize"]),
        ("bound seed", ["optimize", "--bound-seed", str(2**64 - 4)]),
        ("mc seed", ["evaluate", "--mc-seed", str(2**64 - 4)]),
    ], ids=["seed", "bound-seed", "mc-seed", "tmap-seed-past-range", "bound-seed-past-range",
            "mc-seed-past-range"])
    def test_bad_seed_keeps_finished_run(self, flag, argv, capsys, tmp_path,
                                         rca4_reported):
        """A seed that cannot be drawn is refused, naming it, before `optimize`
        or `evaluate` removes or writes any file of a finished run."""
        run = tmp_path / "run"
        shutil.copytree(rca4_reported, run)  # keeps the modification times
        before = _snapshot(run)
        if "optimize" in argv:
            netlist = rca4_reported.parent / "rca4.nl"
            argv = [*argv, "--netlist", str(netlist), "--out", str(run), *_SMALL_OPTIMIZE]
        else:
            argv = [*argv, "--run", str(run), "--samples", "8"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], err
        assert _snapshot(run) == before

    @pytest.mark.parametrize("flags,argv", [
        (("--seed", "--count"), ["--seed", str(2**64 - 6), "sample-libs", "--count", "10"]),
        (("--seed", "--samples"), ["--seed", str(2**64 - 2), "sta", "--samples", "3"]),
        (("--seed", "--tmap-samples"),
         ["--seed", str(2**64 - 2), "ssta", "--tmap-samples", "3"]),
    ], ids=["sample-libs", "sta", "ssta"])
    def test_seed_draw_past_range_names_its_flags(self, flags, argv, capsys, tmp_path,
                                                  rca4_file):
        """A library draw whose seeds run past 2**64 only through its count
        is refused naming both the seed and the count flag."""
        out_dir = tmp_path / "libs"
        argv = argv + (["--out", str(out_dir)] if "sample-libs" in argv
                       else ["--netlist", rca4_file])
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert all(flag in lines[0] for flag in flags), err
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["optimize", "evaluate"])
def test_library_without_a_used_kind_keeps_finished_run(command, capsys, tmp_path,
                                                        rca4_reported):
    """A library without the arcs of a cell kind the baseline uses, given to
    `optimize` or left in a run's libs/variation.json, ends in exit 2 and one
    `error:` line naming the kind, before any file of a finished run is
    removed or written; `evaluate`'s line also names the library file."""
    run = tmp_path / "run"
    shutil.copytree(rca4_reported, run)  # keeps the modification times
    library = run / "libs" / "variation.json"
    if command == "optimize":
        argv = ["optimize", "--netlist", str(rca4_reported.parent / "rca4.nl"),
                "--library", _library_without_xor2(tmp_path), *_SMALL_OPTIMIZE,
                "--out", str(run)]
    else:
        _json_edit(_drop_xor2)(library)
        argv = ["evaluate", "--run", str(run), "--samples", "8"]
    before = _snapshot(run)
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "XOR2" in lines[0], err
    assert command == "optimize" or str(library) in lines[0], err
    assert _snapshot(run) == before


def _snapshot(root):
    return {p.relative_to(root): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*")) if p.is_file()}


_SMALL_OPTIMIZE = ["--pop", "4", "--gens", "1", "--search-vectors", "64",
                   "--report-vectors", "64", "--tmap-samples", "8", "--bound-samples", "8"]


@pytest.fixture(scope="module")
def rca4_reported(tmp_path_factory):
    """A small rca4 run directory, optimized, evaluated and reported."""
    root = tmp_path_factory.mktemp("rca4_reported")
    netlist = root / "rca4.nl"
    netlist.write_text(write_netlist(rca_adder(4)))
    run = root / "run"
    assert main(["optimize", "--netlist", str(netlist), *_SMALL_OPTIMIZE,
                 "--out", str(run)]) == 0
    assert main(["evaluate", "--run", str(run), "--samples", "8"]) == 0
    assert main(["report", "--run", str(run)]) == 0
    assert (run / "fronts" / "chromosomes" / "design_000.chrom").is_file()
    return run


def _write(text):
    return lambda path: path.write_text(text)


def _header_only(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _delete(path):
    path.unlink()


def _json_edit(edit):
    def apply(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return apply


def _set(key, value):
    return _json_edit(lambda doc: doc.__setitem__(key, value))


def _drop(key):
    return _json_edit(lambda doc: doc.pop(key))


def _csv_edit(column, value=None):
    """Drop `column`, or with `value` set it in the first row."""
    def apply(path):
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        k = rows[0].index(column)
        if value is None:
            rows = [r[:k] + r[k + 1:] for r in rows]
        else:
            rows[1][k] = value
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
    return apply


def _gene_text(path):
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\nabc\n")


def _mu_text(doc):
    doc["cells"]["INV"][0]["mu_ps"] = "abc"


def _cases(name, commands, **corruptions):
    return [pytest.param(name, corrupt, commands, id=f"{name}-{label}")
            for label, corrupt in corruptions.items()]


_EVALUATE, _REPORT = ("evaluate",), ("report",)
_COMMON = dict(empty=_write(""), deleted=_delete)
# every run file that `evaluate` or `report` reads, the commands that read
# it, and its corruptions; header-only is left out where an empty table is
# valid (a front with no designs)
_TAMPER = [
    *_cases("config.json", _EVALUATE + _REPORT, **_COMMON, object_empty=_write("{}"),
            no_clock=_drop("clock_ps"), clock_null=_set("clock_ps", None),
            clock_text=_set("clock_ps", "abc"), seed_text=_set("report_seed", "1"),
            vectors_float=_set("report_vectors", 2.5),
            vectors_bool=_set("report_vectors", True),
            threshold_text=_set("cpb_threshold", "x"),
            fingerprint_number=_set("fingerprint", 5)),
    *_cases("mc/meta.json", _REPORT, **_COMMON, object_empty=_write("{}"),
            no_count=_drop("mc_count"), bound_text=_set("stale_worst_nmed", "abc")),
    *_cases("mc/baseline.csv", _REPORT, **_COMMON, header_only=_header_only,
            no_nmed=_csv_edit("nmed"), nmed_text=_csv_edit("nmed", "abc")),
    *_cases("mc/designs.csv", _REPORT, **_COMMON,
            no_nmed=_csv_edit("nmed"), nmed_text=_csv_edit("nmed", "abc"),
            id_empty=_csv_edit("design_id", "")),
    *_cases("netlists/baseline.nl", _EVALUATE, **_COMMON, garbage=_write("circuit\n")),
    *_cases("libs/variation.json", _EVALUATE, **_COMMON, object_empty=_write("{}"),
            no_cells=_drop("cells"), mu_text=_json_edit(_mu_text),
            no_xor2=_json_edit(_drop_xor2)),
    *_cases("netlists/candidates.csv", _EVALUATE, **_COMMON, header_only=_header_only,
            no_cpb=_csv_edit("cpb"), cpb_text=_csv_edit("cpb", "abc"),
            cpb_empty=_csv_edit("cpb", ""), foreign_net=_csv_edit("net", "nope")),
    *_cases("fronts/final_front.csv", _EVALUATE, **_COMMON,
            no_nmed=_csv_edit("nmed"), no_genes=_csv_edit("genes"),
            confidence_text=_csv_edit("confidence", "abc")),
    *_cases("fronts/chromosomes/design_000.chrom", _EVALUATE, **_COMMON,
            gene_text=_gene_text),
]


@pytest.mark.parametrize("name,corrupt,commands", _TAMPER)
def test_tampered_run_file_leaves_report(name, corrupt, commands, capsys, tmp_path,
                                         rca4_reported):
    """A corrupt or missing run file ends each command that reads it in exit
    2 and one `error:` line, before any output, and the report of the run
    is neither removed nor rewritten."""
    run = tmp_path / "run"
    shutil.copytree(rca4_reported, run)  # keeps the modification times

    def report_files():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in (run / "report").iterdir()}

    report = report_files()
    assert len(report) == 6
    corrupt(run / name)
    for command in commands:
        code, out, err = _run(capsys, [command, "--run", str(run)])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "Traceback" not in err
        assert report_files() == report


@pytest.mark.parametrize("name,corrupt", [
    ("netlists/baseline.nl", _write("")),
    ("netlists/baseline.nl", _write("circuit\n")),
    ("libs/variation.json", _write("")),
    ("fronts/chromosomes/design_000.chrom", _gene_text),
    ("netlists/candidates.csv", _header_only),
], ids=["baseline-empty", "baseline-garbage", "library-empty", "chrom-gene-text",
        "candidates-header-only"])
def test_corrupt_run_file_error_names_it(name, corrupt, capsys, tmp_path, rca4_reported):
    """The `error:` line of a corrupt run file says which file it is."""
    run = tmp_path / "run"
    shutil.copytree(rca4_reported, run)
    corrupt(run / name)
    code, out, err = _run(capsys, ["evaluate", "--run", str(run)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(run / name) in err, err


@pytest.mark.parametrize("gene", ["128", "-129", str(10**20), str(-(10**20))])
def test_out_of_range_gene_is_refused_by_file(gene, capsys, tmp_path, rca4_reported):
    """A gene past int8 or any machine int gets the same `error:` line as a
    gene of 2, naming the file, not a traceback."""
    run = tmp_path / "run"
    shutil.copytree(rca4_reported, run)
    path = run / "fronts" / "chromosomes" / "design_000.chrom"
    header, genes = path.read_text().splitlines()
    path.write_text(f"{header}\n{','.join([gene, *genes.split(',')[1:]])}\n")
    code, out, err = _run(capsys, ["evaluate", "--run", str(run)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert str(path) in err and "genes must be -1, 0 or 1" in err, err


# every numeric flag of every subcommand (a global flag under each), with
# values at and past the low end of the usual ranges
_TRIALS = {int: ("-1", "0"), float: ("-1", "0", "nan", "inf")}
_TABLE_CASES = [
    pytest.param(command, flag.name, value, flag.commands == (None,),
                 id=f"{command}{flag.name}={value}")
    for flag in _FLAGS if flag.type in _TRIALS
    for command in (_COMMANDS if flag.commands == (None,) else flag.commands)
    for value in _TRIALS[flag.type]
]


def _table_argv(command, tmp_path, rca4_file, run):
    """A cheap call of `command` that exits 0, at a copy of a finished run
    for the commands that read or write one."""
    return {
        "gen": ["gen", "--width", "4"],
        "sample-libs": ["sample-libs", "--count", "2", "--out", str(tmp_path / "libs")],
        "sta": ["sta", "--netlist", rca4_file, "--samples", "2"],
        "ssta": ["ssta", "--netlist", rca4_file, "--tmap-samples", "8"],
        "simulate": ["simulate", "--netlist", rca4_file, "--reference", rca4_file,
                     "--vectors", "64"],
        "optimize": ["optimize", "--netlist", rca4_file, "--out", str(run),
                     *_SMALL_OPTIMIZE],
        "evaluate": ["evaluate", "--run", str(run), "--samples", "8"],
        "report": ["report", "--run", str(run)],
    }[command]


@pytest.fixture()
def run_copy(tmp_path, rca4_reported):
    """A copy of a finished run and the `_snapshot` of its files."""
    run = tmp_path / "run"
    shutil.copytree(rca4_reported, run)  # keeps the modification times
    return run, _snapshot(run)


def _runs_or_names(capsys, argv, flag, run_copy):
    """`argv` exits 0, or exits 2 with one `error:` line that names `flag`,
    no output, the run directory as it was and no `sample-libs` output."""
    code, out, err = _run(capsys, argv)
    if code == 0:
        return code
    assert code == 2 and out == "", (code, out, err)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], err
    assert "Traceback" not in err
    run, before = run_copy
    assert _snapshot(run) == before
    assert not (run.parent / "libs").exists()
    return code


@pytest.mark.parametrize("command,flag,value,is_global", _TABLE_CASES)
def test_every_numeric_flag_runs_or_is_refused_by_name(
    command, flag, value, is_global, capsys, tmp_path, rca4_file, run_copy
):
    argv = _table_argv(command, tmp_path, rca4_file, run_copy[0])
    argv = [flag, value, *argv] if is_global else [*argv, flag, value]
    _runs_or_names(capsys, argv, flag, run_copy)


@pytest.mark.parametrize("command,config,flag", [
    ("optimize", '{"optimize": {"error_bound": 2}}', "--error-bound"),
    ("optimize", '{"lam": NaN}', "--lambda"),
    ("optimize", '{"optimize": {"bound_seed": -1}}', "--bound-seed"),
    ("evaluate", '{"evaluate": {"mc_seed": 18446744073709551615}}', "--mc-seed"),
    ("simulate", '{"clock": 0}', "--clock"),
    ("gen", '{"gen": {"family": "rca"}}', "--family"),
    ("sample-libs", '{"rho": Infinity}', "--rho"),
], ids=["error-bound", "lambda", "bound-seed", "mc-seed", "clock", "family", "rho"])
def test_config_value_out_of_range_is_refused_by_name(
    command, config, flag, capsys, tmp_path, rca4_file, run_copy
):
    """A bad value from the --config file is refused as one from the
    command line is, naming its flag."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = ["--config", str(cfg), *_table_argv(command, tmp_path, rca4_file, run_copy[0])]
    assert _runs_or_names(capsys, argv, flag, run_copy) == 2
