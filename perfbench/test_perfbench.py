"""The benchmark's own tests: exact counts on tiny grids, no timings.

    python -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import szilard  # noqa: E402
import szilard.sweeps as sweeps  # noqa: E402
from szilard import EV, cycle, ensembles  # noqa: E402
from reference import Table, compare, key_columns, reference_path  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, workload_specs  # noqa: E402


def traced_sweep(spec, tmp_path):
    tracer = Tracer()
    with tracer:
        outcome = sweeps.run_sweep(spec, str(tmp_path / "traced.csv"))
    return layer_metrics(tracer.drain(), [outcome]), outcome


def one_point(target, **values):
    return replace(sweeps.preset(target), axes=(),
                   lists={k: (v,) for k, v in values.items()})


def test_one_bose_point_solves_eight_roots_four_distinct(tmp_path):
    spec = one_point("fig8", nu=2.0, N=10, scale_ratio=1.0)
    m, outcome = traced_sweep(spec, tmp_path)
    assert outcome.points == 1 and outcome.failed == 0
    assert m["ensembles.chemical_potential.calls"] == 8
    assert m["ensembles.chemical_potential.unique_ratio"] == 4 / 8
    assert m["cycle.run_cycle.calls"] == 1


def test_one_morse_point_sums_sixteen_ladders(tmp_path):
    spec = one_point("fig10", depth=4.7 * EV, T_hot=4.0, omega=1e11)
    m, outcome = traced_sweep(spec, tmp_path)
    assert outcome.failed == 0
    assert m["potentials.level_energy.calls"] == 16
    assert m["potentials.omega_prefactor.calls"] == 0
    assert m["ensembles.chemical_potential.calls"] == 0


def test_barrier_levels_solve_126_branches_for_36_rows(tmp_path):
    m, outcome = traced_sweep(sweeps.preset("fig6"), tmp_path)
    assert outcome.points == 36
    assert m["barrier.even_levels.calls"] == 36
    assert m["barrier.even_levels.useful_ratio"] == 36 / 126


def test_pooled_sweep_parents_worker_spans_to_run_sweep(tmp_path):
    spec = replace(one_point("fig8", nu=2.0, N=10, scale_ratio=1.0),
                   lists={"nu": (2.0,), "N": (10, 20), "scale_ratio": (1.0,)},
                   workers=2)
    m, _ = traced_sweep(spec, tmp_path)
    assert m["cycle.run_cycle.calls"] == 2
    assert m["ensembles.chemical_potential.calls"] == 16
    assert 0.0 < m["sweeps.busy_share"] <= 1.0
    assert m["sweeps.run_sweep.self_s"] >= 0.0


def test_tracer_restores_every_binding():
    before = (sweeps.run_cycle, cycle.chemical_potentials,
              ensembles.level_energy, szilard.run_sweep, sweeps.validate)
    with Tracer():
        assert sweeps.run_cycle is not before[0]
        assert ensembles.level_energy is not before[2]
    after = (sweeps.run_cycle, cycle.chemical_potentials,
             ensembles.level_energy, szilard.run_sweep, sweeps.validate)
    assert after == before


def test_traced_csv_bytes_equal_untraced(tmp_path):
    spec = sweeps.preset("fig9-inset")
    plain = sweeps.run_sweep(spec, str(tmp_path / "plain.csv"))
    _, traced = traced_sweep(spec, tmp_path)
    assert plain.failed == 30
    assert (Path(traced.csv_path).read_bytes()
            == Path(plain.csv_path).read_bytes())


@pytest.mark.parametrize("seed", [0, 7])
def test_permuted_sweep_matches_reference_row_by_row(tmp_path, seed):
    spec, = [s for s in workload_specs("preset_mix", seed)
             if s.target == "fig6"]
    outcome = sweeps.run_sweep(spec, str(tmp_path / "fig6.csv"))
    produced = Table.read(outcome.csv_path, key_columns(spec))
    expected = Table.read(reference_path("fig6"), key_columns(spec))
    assert compare(produced, expected) == (0.0, 0)


def test_comparison_flags_each_kind_of_mismatch():
    keys = ["N"]
    expected = Table("N,work,regime,error\n1,2.0,engine,\n2,3.0,engine,\n",
                     keys)
    assert compare(Table("N,work,regime,error\n2,3.0,engine,\n"
                         "1,2.0,engine,\n", keys), expected) == (0.0, 0)
    err, bad = compare(Table("N,work,regime,error\n1,2.00001,engine,\n"
                             "2,3.0,engine,\n", keys), expected)
    assert bad == 1 and err == pytest.approx(5e-6, rel=1e-3)
    assert compare(Table("N,work,regime,error\n1,2.0,idle,\n2,3.0,engine,\n",
                         keys), expected)[1] == 1
    assert compare(Table("N,work,regime,error\n1,2.0,engine,\n", keys),
                   expected)[1] == 1
    assert compare(Table("N,work,regime,error\n1,,,E: x\n2,3.0,engine,\n",
                         keys), expected)[1] == 1


def test_seed_zero_keeps_preset_order_and_seeds_only_permute():
    for name in WORKLOADS:
        base = workload_specs(name, 0)
        assert tuple(s.target for s in base) == WORKLOADS[name][0]
        assert [s.lists for s in base] == [sweeps.preset(s.target).lists
                                           for s in base]
        shuffled = workload_specs(name, 3)
        assert sorted(s.target for s in shuffled) == sorted(
            s.target for s in base)
        for spec in shuffled:
            original = sweeps.preset(spec.target)
            assert spec.axes == original.axes
            assert {k: sorted(v, key=repr) for k, v in spec.lists.items()} == {
                k: sorted(v, key=repr) for k, v in original.lists.items()}


def test_benchmark_json_names_what_run_prints():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in config["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in config["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in config["per_layer"]} == PER_LAYER
