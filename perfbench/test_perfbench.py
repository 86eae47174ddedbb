"""Tests of the benchmark's own logic: the percentile rule, the host-speed
normalisation, the self-time arithmetic and tracer rebinding, and the output
checks."""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_p99_once_ten_samples_lie_beyond_it():
    samples = list(range(1, 1001))
    assert measure.tail_percentile(samples) == (99.0, 990)
    # 999 samples leave only 9 beyond p99, so the tail falls back to p95.
    assert measure.tail_percentile(list(range(1, 1000)))[0] == 95.0


def test_tail_walks_down_the_ladder_and_falls_back_to_the_maximum():
    assert measure.tail_percentile(list(range(20, 0, -1))) == (50.0, 10)
    assert measure.tail_percentile([7.5]) == (100.0, 7.5)
    assert measure.tail_percentile([3, 1, 2]) == (100.0, 3)


def test_speed_factor_averages_speeds_not_times():
    nominal = speed.REFERENCE_NOMINAL_S
    assert speed.factor([nominal, nominal]) == 1.0
    # Half as fast for half the samples: three quarters of nominal speed.
    assert speed.factor([nominal, 2 * nominal]) == 0.75
    assert speed.stretch_factors([nominal, nominal, nominal / 2]) == [1.0, 1.5]


def test_pass_scales_each_stretch_by_the_references_around_it():
    nominal = speed.REFERENCE_NOMINAL_S
    p = workloads.Pass(wall_s=0.006, cpu_s=0.004, latencies_ms=[1.0, 2.0, 3.0])
    p.refs = [nominal, nominal, nominal / 2]
    p.bounds = [(0, 0.0, 0.0), (2, 0.003, 0.002), (3, 0.006, 0.004)]
    p.normalise()
    assert p.norm_latencies_ms == [1.0, 2.0, 4.5]
    assert abs(p.norm_wall_s - 0.0075) < 1e-12
    assert abs(p.norm_cpu_s - 0.005) < 1e-12


def test_reference_computation_is_fixed_work():
    assert speed.reference_s() > 0
    assert speed.reference_on(speed.bench_cpu()) > 0


def test_self_time_subtracts_children_only_from_their_parent():
    # a [0, 100] holds b [10, 40] (which holds c [20, 30]) and d [50, 90].
    spans = [("a", 0, 100, -1), ("b", 10, 40, 0), ("c", 20, 30, 1), ("d", 50, 90, 0),
             ("b", 200, 205, -1)]
    totals = tracer.self_times(spans)
    assert totals == {"a": (30, 1), "b": (25, 2), "c": (10, 1), "d": (40, 1)}
    assert sum(own for own, _ in totals.values()) == 100 + 5


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Box:
        def get(self):
            return mod.inner(0)

    mod.inner, mod.outer, mod.Box = inner, outer, Box
    user.outer = outer  # as `from .mod import outer` would bind it
    return {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user}


def test_tracer_rebinds_every_importer_and_reports_missing_names_as_absent(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    mod, user = modules["fakepkg.mod"], modules["fakepkg.user"]
    originals = (mod.inner, mod.outer, user.outer, mod.Box.__dict__["get"])

    t = tracer.Tracer()
    t.install("fakepkg", {"mod": ("inner", "outer", "renamed_away", "Box.get", "Gone.method")})
    try:
        assert user.outer(1) == 4
        assert mod.Box().get() == 1
    finally:
        t.uninstall()

    assert t.absent == ["mod.renamed_away", "mod.Gone.method"]
    assert [(name, parent) for name, _, _, parent in t.spans()] == [
        ("mod.outer", -1), ("mod.inner", 0), ("mod.Box.get", -1), ("mod.inner", 2)]
    totals = tracer.self_times(t.spans())
    assert sum(own for own, _ in totals.values()) == t.root_ns()
    assert (mod.inner, mod.outer, user.outer, mod.Box.__dict__["get"]) == originals


def _eikelberg_prefix(n):
    from fanbranch.cli import evaluate_assignment
    from fanbranch.fan_core import load_fan
    from fanbranch.monodromy import spanning_tree

    fan = load_fan("eikelberg")
    tree = spanning_tree(fan)
    return [evaluate_assignment(fan, tree, 3, i).to_json() for i in range(n)]


def test_sweep_check_rejects_a_cache_with_one_altered_record():
    lines = _eikelberg_prefix(40)
    data = ("\n".join(lines) + "\n").encode()
    problems, rungs = checks.sweep_cache_problems(data, checks.EIKELBERG3)
    assert problems, "a 40-record prefix is not the full sweep"
    reference = checks.SweepExpectation(40, len(data), checks.digest(lines), dict(rungs))
    assert checks.sweep_cache_problems(data, reference)[0] == []

    # Same length, same verdict counts: only the digest can tell.
    pos = next(i for i, line in enumerate(lines) if '"dim_pl":3' in line)
    altered = list(lines)
    altered[pos] = altered[pos].replace('"dim_pl":3', '"dim_pl":4')
    bad = ("\n".join(altered) + "\n").encode()
    assert len(bad) == len(data)
    problems, bad_rungs = checks.sweep_cache_problems(bad, reference)
    assert bad_rungs == rungs
    assert problems == ["cache sha256 differs from the reference sweep"]


def test_sigma_record_check_rejects_a_nontrivial_or_inconsistent_record():
    from fanbranch.cli import SweepRecord

    good = SweepRecord(5, [0, 2], [[3], [1, 1, 1], [2, 1]], 3, "AllTrivial", "pullbacks-only")
    assert checks.sigma_record_problem(good, 5, [0, 2], 3) is None
    nontrivial = SweepRecord(5, [0, 2], good.profile, 4, "Nontrivial", "nontrivial")
    assert "contradicts the paper" in checks.sigma_record_problem(nontrivial, 5, [0, 2], 3)
    assert "branch rays" in checks.sigma_record_problem(good, 5, [0, 1], 3)
    short = SweepRecord(5, [0, 2], [[2], [1, 1, 1]], 3, "AllTrivial", "pullbacks-only")
    assert "does not sum" in checks.sigma_record_problem(short, 5, [0, 2], 3)
    mislabelled = SweepRecord(5, [0, 2], good.profile, 5, "AllTrivial", "pullbacks-only")
    assert "certificate" in checks.sigma_record_problem(mislabelled, 5, [0, 2], 3)
