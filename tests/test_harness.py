import csv
import filecmp
import json
import os

import numpy as np
import pytest

from vaxcirc import errsim, harness, timing
from vaxcirc._compile import compile_timing
from vaxcirc.celllib import nominal_library, sample_library, sample_matrix
from vaxcirc.errsim import Evaluator, generate_dataset, interpret_values, stale_bits
from vaxcirc.errsim import timing_error_metrics
from vaxcirc.harness import (
    BenchmarkSpec,
    HarnessError,
    McEvaluation,
    array_multiplier,
    cla_adder,
    generate_benchmark,
    mac_fir,
    monte_carlo_evaluate,
    pareto_filter,
    rca_adder,
    run_evaluate,
    run_optimize,
    run_report,
    stale_nmed_bound,
)
from vaxcirc.netlist import parse_netlist, write_netlist
from vaxcirc.optimize import GaConfig
from vaxcirc.timing import mc_sta_cpd, sta_arrivals

from test_timing import _uniform_lib


class TestBenchmarkSpec:
    def test_valid(self):
        BenchmarkSpec("rca_adder", 8)
        BenchmarkSpec("mac_fir", 4, taps=3)

    @pytest.mark.parametrize(
        "kw",
        [
            {"family": "csa_adder", "width": 8},
            {"family": "rca_adder", "width": 5},
            {"family": "mac_fir", "width": 4, "taps": 0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(HarnessError):
            BenchmarkSpec(**kw)

    def test_dispatch(self):
        assert generate_benchmark(BenchmarkSpec("rca_adder", 4)).name == "rca4"
        assert generate_benchmark(BenchmarkSpec("cla_adder", 4)).name == "cla4"
        assert generate_benchmark(BenchmarkSpec("array_multiplier", 4)).name == "mult4"
        assert generate_benchmark(BenchmarkSpec("mac_fir", 4, taps=2)).name == "fir4x2"


def _column_values(ds, n, names, signed=False):
    cols = [n.inputs.index(w) for w in names]
    return interpret_values(ds.vectors[:, cols], signed=signed)


def _output_values(n, ds, signed=False):
    return interpret_values(Evaluator(n).po_bits(ds), signed=signed)


class TestGenerators:
    def test_rca_structure(self, rca8):
        assert len(rca8.inputs) == 17
        assert len(rca8.outputs) == 9
        assert len(rca8.gates) == 40
        assert {g.kind for g in rca8.gates} == {"XOR2", "NAND2"}

    def test_rca4_adds(self, rca4):
        ds = generate_dataset(rca4, 1, seed=0, exhaustive=True)
        a = _column_values(ds, rca4, [f"a{i}" for i in range(4)])
        b = _column_values(ds, rca4, [f"b{i}" for i in range(4)])
        cin = _column_values(ds, rca4, ["cin"])
        assert np.array_equal(_output_values(rca4, ds), a + b + cin)

    def test_cla4_adds(self):
        n = cla_adder(4)
        ds = generate_dataset(n, 1, seed=0, exhaustive=True)
        a = _column_values(ds, n, [f"a{i}" for i in range(4)])
        b = _column_values(ds, n, [f"b{i}" for i in range(4)])
        cin = _column_values(ds, n, ["cin"])
        assert np.array_equal(_output_values(n, ds), a + b + cin)

    def test_cla8_adds(self):
        n = cla_adder(8)
        ds = generate_dataset(n, 1, seed=0, exhaustive=True)
        a = _column_values(ds, n, [f"a{i}" for i in range(8)])
        b = _column_values(ds, n, [f"b{i}" for i in range(8)])
        cin = _column_values(ds, n, ["cin"])
        assert np.array_equal(_output_values(n, ds), a + b + cin)

    def test_cla_is_shallower_than_rca(self, rca8, default_lib):
        nom = nominal_library(default_lib)
        assert sta_arrivals(cla_adder(8), nom).cpd < sta_arrivals(rca8, nom).cpd

    def test_mult4_multiplies(self, mult4):
        assert len(mult4.inputs) == 8
        assert len(mult4.outputs) == 8
        ds = generate_dataset(mult4, 1, seed=0, exhaustive=True)
        a = _column_values(ds, mult4, [f"a{i}" for i in range(4)])
        b = _column_values(ds, mult4, [f"b{i}" for i in range(4)])
        assert np.array_equal(_output_values(mult4, ds), a * b)

    def test_mac_fir_accumulates(self):
        n = mac_fir(4, 2)
        assert len(n.inputs) == 16
        ds = generate_dataset(n, 50, seed=4)
        x0 = _column_values(ds, n, [f"x0_{i}" for i in range(4)])
        h0 = _column_values(ds, n, [f"h0_{i}" for i in range(4)])
        x1 = _column_values(ds, n, [f"x1_{i}" for i in range(4)])
        h1 = _column_values(ds, n, [f"h1_{i}" for i in range(4)])
        assert np.array_equal(_output_values(n, ds), x0 * h0 + x1 * h1)

    def test_generators_validate(self):
        # every family x width combination yields a well-formed netlist
        for spec in (
            BenchmarkSpec("rca_adder", 16),
            BenchmarkSpec("cla_adder", 16),
            BenchmarkSpec("array_multiplier", 8),
            BenchmarkSpec("mac_fir", 8, taps=2),
        ):
            n = generate_benchmark(spec)
            parse_netlist(write_netlist(n))  # round trip revalidates


class TestMonteCarloEvaluate:
    def test_zero_sigma_degenerates(self, rca4):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.0)
        ds = generate_dataset(rca4, 64, seed=0)
        nominal = sta_arrivals(rca4, nominal_library(lib)).cpd
        e = monte_carlo_evaluate(rca4, lib, 50, 0, nominal, ds)
        assert e.worst_cpd_ps == e.mean_cpd_ps == nominal
        assert e.std_cpd_ps == 0.0
        assert e.violations == 0

    def test_single_library(self, rca4, default_lib):
        ds = generate_dataset(rca4, 64, seed=0)
        e = monte_carlo_evaluate(rca4, default_lib, 1, 7, 100.0, ds)
        assert e.worst_cpd_ps == e.mean_cpd_ps
        assert e.std_cpd_ps == 0.0

    def test_matches_mc_sta_cpd(self, rca4, default_lib):
        ds = generate_dataset(rca4, 64, seed=0)
        clock = sta_arrivals(rca4, nominal_library(default_lib)).cpd
        e = monte_carlo_evaluate(rca4, default_lib, 200, 11, clock, ds)
        cpd = mc_sta_cpd(rca4, default_lib, 200, 11)
        assert e.worst_cpd_ps == float(cpd.max())
        assert e.mean_cpd_ps == float(cpd.mean())
        assert e.std_cpd_ps == float(cpd.std())
        assert e.violations == int((cpd > clock).sum())
        assert 0 < e.violations < 200

    def test_nmed_leg(self, rca4, default_lib):
        from test_netlist import _tie_pi

        ds = generate_dataset(rca4, 1, seed=0, exhaustive=True)
        approx = _tie_pi(rca4, "a0", "GND")
        e = monte_carlo_evaluate(
            approx, default_lib, 5, 0, 100.0, ds, reference=rca4
        )
        # dropping the LSB of one addend costs 0.5 on average, max |E| = 31
        assert e.nmed == 0.5 / 31

    def test_no_reference_skips_nmed(self, rca4, default_lib):
        ds = generate_dataset(rca4, 16, seed=0)
        e = monte_carlo_evaluate(rca4, default_lib, 3, 0, 100.0, ds)
        assert e.nmed == 0.0

    def test_deterministic(self, rca4, default_lib):
        ds = generate_dataset(rca4, 16, seed=0)
        a = monte_carlo_evaluate(rca4, default_lib, 20, 3, 50.0, ds)
        b = monte_carlo_evaluate(rca4, default_lib, 20, 3, 50.0, ds)
        assert a == b

    def test_count_validation(self, rca4, default_lib):
        ds = generate_dataset(rca4, 16, seed=0)
        with pytest.raises(HarnessError):
            monte_carlo_evaluate(rca4, default_lib, 0, 0, 50.0, ds)

    def test_rca8_spread_is_plausible(self, rca8, default_lib):
        ds = generate_dataset(rca8, 16, seed=0)
        clock = sta_arrivals(rca8, nominal_library(default_lib)).cpd
        e = monte_carlo_evaluate(rca8, default_lib, 1000, 0, clock, ds)
        assert 0.01 < e.std_cpd_ps / e.mean_cpd_ps < 0.12


def _bound_args(n, lib, count, seed):
    """What `stale_nmed_bound` takes before the clock: `n`'s `Evaluator` and
    timing program, and the arc delays of libraries seed..seed+count-1."""
    program = compile_timing(n, lib.arc_index())
    return Evaluator(n), program, sample_matrix(lib, range(seed, seed + count))


class TestStaleNmedBound:
    def test_relaxed_clock_is_zero(self, rca4, default_lib):
        ds = generate_dataset(rca4, 200, seed=0)
        worst, per_lib = stale_nmed_bound(*_bound_args(rca4, default_lib, 30, 0), 1e9, ds)
        assert worst == 0.0
        assert np.all(per_lib == 0.0)

    def test_matches_per_library_metrics(self, rca4, default_lib):
        # library k of the sweep is exactly sample_library(seed + k)
        ds = generate_dataset(rca4, 500, seed=1)
        clock = sta_arrivals(rca4, nominal_library(default_lib)).cpd
        worst, per_lib = stale_nmed_bound(*_bound_args(rca4, default_lib, 20, 40), clock, ds)
        for k in (0, 7, 19):
            lib = sample_library(default_lib, 40 + k)
            want = timing_error_metrics(rca4, lib, clock, ds).nmed
            assert per_lib[k] == pytest.approx(want, abs=1e-12)
        assert worst == per_lib.max()

    def test_nonzero_at_nominal_clock(self, rca8, default_lib):
        # roughly half the libraries land above the nominal clock
        ds = generate_dataset(rca8, 500, seed=2)
        clock = sta_arrivals(rca8, nominal_library(default_lib)).cpd
        worst, per_lib = stale_nmed_bound(*_bound_args(rca8, default_lib, 50, 0), clock, ds)
        assert worst > 0.0
        assert 0 < np.count_nonzero(per_lib) < 50

    def test_deterministic(self, rca4, default_lib):
        ds = generate_dataset(rca4, 100, seed=0)
        a = stale_nmed_bound(*_bound_args(rca4, default_lib, 10, 5), 30.0, ds)
        b = stale_nmed_bound(*_bound_args(rca4, default_lib, 10, 5), 30.0, ds)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_matches_row_major_python_int_reference(self, rca8, default_lib):
        """The column-major PO bits change no number: each library's NMED
        equals the stale rewrite of a row-major copy, summed in Python ints."""
        ds = generate_dataset(rca8, 700, seed=3)
        clock = 0.95 * sta_arrivals(rca8, nominal_library(default_lib)).cpd
        _, per_lib = stale_nmed_bound(*_bound_args(rca8, default_lib, 12, 0), clock, ds)
        bits = Evaluator(rca8).po_bits(ds)
        assert bits.flags.f_contiguous and not bits.flags.c_contiguous
        rows = np.ascontiguousarray(bits)
        exact = [sum(int(b) << j for j, b in enumerate(r)) for r in rows]
        program = compile_timing(rca8, default_lib.arc_index())
        late = program.po_arrivals(program.forward(sample_matrix(default_lib, range(12))))
        late = late > clock
        assert 0 < late.any(axis=1).sum() < 12
        denom = len(ds.vectors) * ((1 << bits.shape[1]) - 1)
        for k in range(12):
            stale = stale_bits(rows, late[k])
            assert stale.flags.c_contiguous
            assert np.array_equal(stale_bits(bits, late[k]), stale)
            assert stale_bits(bits, late[k]).flags.f_contiguous
            approx = [sum(int(b) << j for j, b in enumerate(r)) for r in stale]
            want = sum(abs(a - e) for a, e in zip(approx, exact)) / denom
            assert per_lib[k] == want


def _mc(design_id, nmed, worst, clock=100.0):
    return McEvaluation(design_id, worst, worst, 0.0, nmed, 0, 1, 0, clock)


class TestParetoFilter:
    def test_thresholds(self):
        base = _mc("baseline", 0.0, 90.0)
        designs = [
            _mc("slow", 0.01, 100.0),   # not below the clock
            _mc("wrong", 0.5, 50.0),    # nmed above the bound
            _mc("good", 0.01, 50.0),
        ]
        front = pareto_filter(designs, base, 0.1)
        assert [d.design_id for d in front] == ["good"]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        base = _mc("baseline", 0.0, 0.0)
        bound = 0.6
        for _ in range(20):
            designs = [
                _mc(f"d{i}", float(rng.random()), float(rng.random() * 200))
                for i in range(int(rng.integers(5, 40)))
            ]
            got = {d.design_id for d in pareto_filter(designs, base, bound)}
            kept = [
                d for d in designs if d.worst_cpd_ps < 100.0 and d.nmed < bound
            ]
            want = {
                d.design_id
                for d in kept
                if not any(
                    o.nmed <= d.nmed
                    and o.worst_cpd_ps <= d.worst_cpd_ps
                    and (o.nmed < d.nmed or o.worst_cpd_ps < d.worst_cpd_ps)
                    for o in kept
                )
            }
            assert got == want


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, rca4, default_lib):
    run = tmp_path_factory.mktemp("run")
    cfg = GaConfig(
        population=12, generations=8, seed=5, search_vectors=256
    )
    art = run_optimize(
        run, rca4, default_lib, cfg,
        tmap_count=50, bound_count=50, report_vectors=2000,
    )
    return run, art


class TestPipeline:
    def test_optimize_artifacts(self, pipeline_run, rca4):
        run, art = pipeline_run
        for rel in (
            "netlists/baseline.nl", "netlists/candidates.csv", "netlists/tmap.txt",
            "libs/variation.json", "fronts/final_front.csv", "config.json",
        ):
            assert (run / rel).is_file(), rel
        assert parse_netlist((run / "netlists" / "baseline.nl").read_text()) == rca4

        # one snapshot per generation plus the initial front
        gens = sorted((run / "fronts").glob("gen_*.csv"))
        assert len(gens) == 8 + 1

        with open(run / "fronts" / "final_front.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(art.result.front)
        chroms = sorted((run / "fronts" / "chromosomes").glob("*.chrom"))
        assert [p.stem for p in chroms] == [r["design_id"] for r in rows]

        config = json.loads((run / "config.json").read_text())
        assert config["netlist"] == "rca4"
        assert config["clock_ps"] == art.clock_ps
        assert config["stale_worst_nmed"] == art.stale_worst_nmed
        assert config["ga"]["error_bound"] == art.error_bound == art.stale_worst_nmed

    def test_tmap_file_round_trips(self, pipeline_run):
        run, art = pipeline_run
        lines = (run / "netlists" / "tmap.txt").read_text().splitlines()
        parsed = {}
        for line in lines:
            gate, pin, edge = line.split()
            parsed[(gate, pin)] = edge
        assert parsed == art.tmap

    def test_evaluate_and_report(self, pipeline_run):
        run, art = pipeline_run
        base_eval, evals = run_evaluate(run, mc_count=60, mc_seed=123)
        assert base_eval.design_id == "baseline"
        assert base_eval.nmed == 0.0
        assert len(evals) == len(art.result.front)
        for rel in ("mc/baseline.csv", "mc/designs.csv", "mc/meta.json"):
            assert (run / rel).is_file(), rel
        meta = json.loads((run / "mc" / "meta.json").read_text())
        assert meta["mc_count"] == 60
        assert meta["mc_seed"] == 123
        assert meta["clock_ps"] == art.clock_ps

        front = run_report(run)
        for rel in (
            "report/designs.csv", "report/front.csv", "report/selected.csv",
            "report/ratio.csv", "report/pareto.csv", "report/config",
        ):
            assert (run / rel).is_file(), rel
        assert all(d.worst_cpd_ps < art.clock_ps for d in front)
        assert all(d.nmed < art.stale_worst_nmed for d in front)

    def test_report_reductions_recomputed(self, pipeline_run):
        # spreadsheet check: reduction columns follow from the mc columns
        run, _ = pipeline_run
        with open(run / "mc" / "baseline.csv", newline="") as f:
            base = next(csv.DictReader(f))
        with open(run / "report" / "designs.csv", newline="") as f:
            for row in csv.DictReader(f):
                want = 100.0 * (
                    1.0 - float(row["mean_cpd_ps"]) / float(base["mean_cpd_ps"])
                )
                assert float(row["cpd_reduction_pct"]) == pytest.approx(want)
                want = 100.0 * (
                    1.0 - float(row["std_cpd_ps"]) / float(base["std_cpd_ps"])
                )
                assert float(row["std_reduction_pct"]) == pytest.approx(want)

    def test_ratio_table(self, pipeline_run):
        run, art = pipeline_run
        with open(run / "report" / "ratio.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            assert float(row["baseline_worstcase_nmed"]) == art.stale_worst_nmed
            nmed = float(row["nmed"])
            if nmed > 0.0:
                assert float(row["nmed_ratio"]) == art.stale_worst_nmed / nmed
                assert float(row["nmed_ratio"]) > 1.0

    def test_selected_is_min_nmed(self, pipeline_run):
        run, _ = pipeline_run
        with open(run / "report" / "front.csv", newline="") as f:
            front_rows = list(csv.DictReader(f))
        with open(run / "report" / "selected.csv", newline="") as f:
            sel = list(csv.DictReader(f))
        if front_rows:
            best = min(front_rows, key=lambda r: (float(r["nmed"]), r["design_id"]))
            assert len(sel) == 1
            assert sel[0] == {**best}
        else:
            assert sel == []

    def test_explicit_error_bound_respected(self, tmp_path, rca4, default_lib):
        cfg = GaConfig(population=6, generations=2, seed=0, search_vectors=128)
        art = run_optimize(
            tmp_path, rca4, default_lib, cfg,
            tmap_count=20, bound_count=20, report_vectors=500,
            error_bound=0.03,
        )
        # the caller's config is left as it was
        assert cfg == GaConfig(population=6, generations=2, seed=0, search_vectors=128)
        config = json.loads((tmp_path / "config.json").read_text())
        assert config["ga"]["error_bound"] == art.error_bound == 0.03
        assert config["stale_worst_nmed"] == art.stale_worst_nmed
        assert all(d.nmed <= 0.03 for d in art.result.front)

    @pytest.mark.parametrize(
        "family,width,taps", [("rca_adder", 8, 1), ("mac_fir", 4, 2)]
    )
    def test_evaluate_baseline_equals_monte_carlo_evaluate(
        self, tmp_path, default_lib, family, width, taps
    ):
        """The baseline, scored as the all-exact chromosome from the front's
        baseline pass, gets the numbers of its own standalone call."""
        n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
        cfg = GaConfig(population=4, generations=1, seed=0, search_vectors=128)
        art = run_optimize(
            tmp_path, n, default_lib, cfg,
            tmap_count=20, bound_count=10, report_vectors=700,
        )
        base_eval, _ = run_evaluate(tmp_path, mc_count=25, mc_seed=321)
        ds = generate_dataset(n, 700, seed=cfg.seed + 2)
        want = monte_carlo_evaluate(
            n, default_lib, 25, 321, art.clock_ps, ds, design_id="baseline",
        )
        assert base_eval == want

    def test_each_stage_compiles_the_baseline_once(self, tmp_path, rca4, default_lib, monkeypatch):
        """`optimize` and `evaluate` each compile one logic and one timing
        program of the baseline and hand them to every step of the stage."""
        calls = []

        def counted(kind, compile_fn):
            def wrapper(*args, **kwargs):
                calls.append(kind)
                return compile_fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(errsim, "compile_logic", counted("logic", errsim.compile_logic))
        for module in (harness, timing):
            monkeypatch.setattr(
                module, "compile_timing", counted("timing", module.compile_timing)
            )
        cfg = GaConfig(population=4, generations=1, seed=0, search_vectors=128)
        run_optimize(
            tmp_path, rca4, default_lib, cfg,
            tmap_count=10, bound_count=10, report_vectors=300,
        )
        assert sorted(calls) == ["logic", "timing"]
        calls.clear()
        run_evaluate(tmp_path, mc_count=10)
        assert sorted(calls) == ["logic", "timing"]


class TestPipelineErrors:
    def test_evaluate_before_optimize(self, tmp_path):
        with pytest.raises(HarnessError, match="config.json"):
            run_evaluate(tmp_path)

    def test_report_before_evaluate(self, tmp_path, rca4, default_lib):
        cfg = GaConfig(population=6, generations=1, seed=0, search_vectors=64)
        run_optimize(
            tmp_path, rca4, default_lib, cfg,
            tmap_count=10, bound_count=10, report_vectors=200,
        )
        with pytest.raises(HarnessError, match="run evaluate first"):
            run_report(tmp_path)

    def test_tampered_baseline_detected(self, tmp_path, rca4, mult4, default_lib):
        cfg = GaConfig(population=6, generations=1, seed=0, search_vectors=64)
        run_optimize(
            tmp_path, rca4, default_lib, cfg,
            tmap_count=10, bound_count=10, report_vectors=200,
        )
        with open(tmp_path / "netlists" / "baseline.nl", "w") as f:
            f.write(write_netlist(mult4))
        with pytest.raises(HarnessError, match="does not match"):
            run_evaluate(tmp_path, mc_count=5)

    def test_empty_front_yields_header_only_tables(
        self, tmp_path, rca4, default_lib
    ):
        cfg = GaConfig(population=6, generations=1, seed=0, search_vectors=64)
        run_optimize(
            tmp_path, rca4, default_lib, cfg,
            tmap_count=10, bound_count=10, report_vectors=200,
        )
        # An empty front: final_front.csv lists no designs, no .chrom files.
        front_csv = tmp_path / "fronts" / "final_front.csv"
        front_csv.write_text(front_csv.read_text().splitlines(keepends=True)[0])
        for p in (tmp_path / "fronts" / "chromosomes").glob("*.chrom"):
            p.unlink()
        _, evals = run_evaluate(tmp_path, mc_count=5)
        assert evals == []
        front = run_report(tmp_path)
        assert front == []
        for rel in ("report/front.csv", "report/selected.csv", "report/ratio.csv"):
            with open(tmp_path / rel, newline="") as f:
                assert list(csv.DictReader(f)) == []


    def test_evaluate_ignores_stale_designs_of_a_reused_run_dir(
        self, tmp_path, rca4, default_lib
    ):
        kw = dict(tmap_count=10, bound_count=10, report_vectors=200)
        for pop, gens in ((20, 10), (4, 1)):
            cfg = GaConfig(population=pop, generations=gens, seed=0, search_vectors=64)
            art = run_optimize(tmp_path, rca4, default_lib, cfg, **kw)
        with open(tmp_path / "fronts" / "final_front.csv", newline="") as f:
            listed = [r["design_id"] for r in csv.DictReader(f)]
        assert len(listed) == len(art.result.front)
        # the second run deleted the first, larger run's chromosome files
        chroms = tmp_path / "fronts" / "chromosomes"
        assert sorted(p.stem for p in chroms.glob("*.chrom")) == listed
        # a chromosome file the front does not list is not scored
        (chroms / "design_999.chrom").write_text(
            (chroms / f"{listed[0]}.chrom").read_text()
        )
        _, evals = run_evaluate(tmp_path, mc_count=5)
        assert [e.design_id for e in evals] == listed

    def test_rejected_evaluate_keeps_the_report(self, tmp_path, rca4, default_lib):
        cfg = GaConfig(population=6, generations=1, seed=0, search_vectors=64)
        run_optimize(
            tmp_path, rca4, default_lib, cfg,
            tmap_count=10, bound_count=10, report_vectors=200,
        )
        run_evaluate(tmp_path, mc_count=5)
        run_report(tmp_path)

        def files():
            return {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        before = files()
        assert len(list((tmp_path / "report").iterdir())) == 6
        with pytest.raises(HarnessError, match="count must be >= 1"):
            run_evaluate(tmp_path, mc_count=0)
        assert files() == before

    def test_tmap_count_below_one_leaves_the_run_dir_alone(
        self, tmp_path, rca4, default_lib
    ):
        cfg = GaConfig(population=6, generations=1, seed=0, search_vectors=64)
        kw = dict(bound_count=10, report_vectors=200)
        run_optimize(tmp_path, rca4, default_lib, cfg, tmap_count=10, **kw)
        before = _tree(tmp_path)
        with pytest.raises(HarnessError, match="tmap count must be >= 1"):
            run_optimize(tmp_path, rca4, default_lib, cfg, tmap_count=0, **kw)
        assert _tree(tmp_path) == before

    def test_report_vectors_below_one_leaves_the_run_dir_alone(
        self, tmp_path, rca4, default_lib
    ):
        cfg = GaConfig(population=6, generations=1, seed=0, search_vectors=64)
        kw = dict(tmap_count=10, bound_count=10)
        run_optimize(tmp_path, rca4, default_lib, cfg, report_vectors=200, **kw)
        before = _tree(tmp_path)
        with pytest.raises(HarnessError, match="report vectors must be >= 1"):
            run_optimize(tmp_path, rca4, default_lib, cfg, report_vectors=0, **kw)
        assert _tree(tmp_path) == before

    def test_missing_listed_chromosome_is_an_error(self, tmp_path, rca4, default_lib):
        cfg = GaConfig(population=6, generations=1, seed=0, search_vectors=64)
        art = run_optimize(
            tmp_path, rca4, default_lib, cfg,
            tmap_count=10, bound_count=10, report_vectors=200,
        )
        assert art.result.front
        (tmp_path / "fronts" / "chromosomes" / "design_000.chrom").unlink()
        with pytest.raises(FileNotFoundError):
            run_evaluate(tmp_path, mc_count=5)


def _tree(root):
    """{relative path: bytes} of every file under root."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*") if p.is_file()
    }


class TestPipelineDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, rca4, default_lib):
        cfg = lambda: GaConfig(  # noqa: E731 - fresh config per run
            population=8, generations=3, seed=9, search_vectors=128
        )
        kw = dict(tmap_count=20, bound_count=20, report_vectors=500)
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            run_optimize(d, rca4, default_lib, cfg(), **kw)
            run_evaluate(d, mc_count=30)
            run_report(d)
        mismatched = []
        for root, _, files in os.walk(a):
            for fname in files:
                pa = os.path.join(root, fname)
                pb = pa.replace(str(a), str(b), 1)
                if not filecmp.cmp(pa, pb, shallow=False):
                    mismatched.append(os.path.relpath(pa, a))
        assert mismatched == []

    def test_rerun_into_a_used_run_dir_replaces_it(self, tmp_path, rca4, default_lib):
        kw = dict(tmap_count=10, bound_count=10, report_vectors=200)
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        cfg = GaConfig(population=8, generations=4, seed=0, search_vectors=64)
        run_optimize(used, rca4, default_lib, cfg, **kw)
        run_evaluate(used, mc_count=5)
        run_report(used)
        for d in (used, fresh):
            cfg = GaConfig(population=4, generations=1, seed=0, search_vectors=64)
            run_optimize(d, rca4, default_lib, cfg, **kw)
        assert _tree(used) == _tree(fresh)
        for d in (used, fresh):
            run_evaluate(d, mc_count=5)
            run_report(d)
            run_evaluate(d, mc_count=6)  # its report no longer matches mc/
        assert _tree(used) == _tree(fresh)
        assert not list((fresh / "report").iterdir())

    def test_threads_do_not_change_artifacts(self, tmp_path, rca4, default_lib):
        kw = dict(tmap_count=20, bound_count=20, report_vectors=500)
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d, threads in ((a, 1), (b, 3)):
            cfg = GaConfig(population=8, generations=3, seed=9, search_vectors=128)
            run_optimize(d, rca4, default_lib, cfg, threads=threads, **kw)
        assert filecmp.cmp(
            a / "fronts" / "final_front.csv",
            b / "fronts" / "final_front.csv",
            shallow=False,
        )


def test_front_takes_the_library_draw_at_evaluate(rca8, default_lib):
    """A front built before its libraries are drawn, as `run_evaluate` builds
    it, scores as one given the draw at construction."""
    from vaxcirc.approx import build_candidates, exact_chromosome
    from vaxcirc.timing import annotate_edge_transitions, ssta_traverse

    tmap = annotate_edge_transitions(rca8, default_lib, 20)
    cs = build_candidates(rca8, ssta_traverse(rca8, default_lib, tmap))
    rng = np.random.default_rng(3)
    designs = [("baseline", exact_chromosome(cs))] + [
        (f"d{i}", np.where(rng.random(len(cs)) < 0.3, rng.integers(0, 2, len(cs)), -1)
         .astype(np.int8))
        for i in range(4)
    ]
    delays = sample_matrix(default_lib, range(9000, 9040))

    def front(given):
        program = compile_timing(rca8, default_lib.arc_index())
        ds = generate_dataset(rca8, 500, seed=1)
        return harness.MonteCarloFront(Evaluator(rca8), program, cs, ds, given, 9000, 60.0)

    late = front(None).evaluate(designs, delays)
    assert list(map(repr, late)) == list(map(repr, front(delays).evaluate(designs)))
    assert {e.violations for e in late} != {0}  # the clock binds in some library
