import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fanbranch.cli import (
    CacheError,
    _sweep_meta,
    branch_census,
    evaluate_assignment,
    main,
    run_sweep,
    sidecar_path,
)
from fanbranch.cover_poset import CoverError
from fanbranch.fan_core import FanError, load_fan
from fanbranch.klyachko import KlyachkoError
from fanbranch.pl_group import PLError
from fanbranch.monodromy import spanning_tree

DATA = Path(__file__).resolve().parents[1] / "src" / "fanbranch" / "data"


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def fulton():
    return load_fan("fulton")


class TestFanCommands:
    def test_validate_fulton(self, runner):
        result = runner.invoke(main, ["fan", "validate", "fulton"])
        assert result.exit_code == 0
        assert "complete, 8 rays, 6 maximal cones, 12 walls" in result.output

    def test_validate_octant_file(self, runner, tmp_path):
        p = tmp_path / "octant.fan.json"
        p.write_text(
            json.dumps(
                {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "max_cones": [[0, 1, 2]]}
            )
        )
        result = runner.invoke(main, ["fan", "validate", str(p)])
        assert result.exit_code == 0
        assert "valid, not complete" in result.output

    def test_validate_rank4_leaves_completeness_undecided(self, runner, tmp_path):
        p = tmp_path / "rank4.fan.json"
        p.write_text(
            json.dumps({"rank": 4, "rays": [[1, 0, 0, 0], [0, 1, 0, 0]], "max_cones": [[0, 1]]})
        )
        result = runner.invoke(main, ["fan", "validate", str(p)])
        assert result.exit_code == 0
        assert result.output == (
            "valid, completeness not decided above rank 3, "
            "2 rays, 1 maximal cones, 0 walls\n"
        )

    def test_validate_duplicate_ray_fails(self, runner, tmp_path):
        p = tmp_path / "bad.fan.json"
        p.write_text(
            json.dumps(
                {"rank": 3, "rays": [[1, 0, 0], [2, 0, 0], [0, 0, 1]], "max_cones": [[0, 1, 2]]}
            )
        )
        result = runner.invoke(main, ["fan", "validate", str(p)])
        assert result.exit_code != 0
        assert "duplicate ray" in result.output

    @pytest.mark.parametrize(
        "rays, max_cones, message",
        [
            ([[0.5, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]],
             "ray 0 is not a list of integers: [0.5, 0]"),
            ([[1, 0], ["1", 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]],
             "ray 1 is not a list of integers: ['1', 1]"),
            ([[1, 0], [0, 1], [True, -1]], [[0, 1], [1, 2], [0, 2]],
             "ray 2 is not a list of integers: [True, -1]"),
            ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2.0], [0, 2]],
             "maximal cone 1 is not a list of ray indices: [1, 2.0]"),
            ([[1, 0], [0, 1], [-1, -1]], None, "fan data has no 'max_cones' key"),
        ],
    )
    def test_validate_malformed_fan_fails_in_one_line(self, runner, tmp_path, rays,
                                                      max_cones, message):
        data = {"rank": 2, "rays": rays}
        if max_cones is not None:
            data["max_cones"] = max_cones
        p = tmp_path / "bad.fan.json"
        p.write_text(json.dumps(data))
        result = runner.invoke(main, ["fan", "validate", str(p)])
        assert result.exit_code == 1
        assert result.output == f"Error: invalid fan: {message}\n"

    def test_validate_directory_fails_in_one_line(self, runner, tmp_path):
        result = runner.invoke(main, ["fan", "validate", str(tmp_path)])
        assert result.exit_code == 1
        reason = os.strerror(errno.EISDIR)
        assert result.output == f"Error: cannot read fan {str(tmp_path)!r}: {reason}\n"

    @pytest.mark.parametrize("content", [b'{"rank": 2,', b'\xff\xfe{}'])
    def test_validate_unparsable_file_fails_in_one_line(self, runner, tmp_path, content):
        p = tmp_path / "cut.fan.json"
        p.write_bytes(content)
        result = runner.invoke(main, ["fan", "validate", str(p)])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: invalid fan: {p} is not JSON: ")
        assert result.output.count("\n") == 1


class TestEnumerate:
    def test_fulton_census(self, runner):
        result = runner.invoke(
            main, ["covers", "enumerate", "fulton", "-d", "2", "--classes", "--branch-report"]
        )
        assert result.exit_code == 0
        assert "assignments: 128" in result.output
        assert "conjugacy classes: 128" in result.output
        assert "admissible branch sets (nonempty, no wall pair): 18" in result.output
        assert "orbit sizes under fan symmetries: 4 / 12 / 2" in result.output

    def test_sigma_prime_degree3_classes(self, runner):
        result = runner.invoke(main, ["covers", "enumerate", "sigma_prime", "-d", "3", "--classes"])
        assert result.exit_code == 0, result.output
        assert result.output == "assignments: 279936\nconjugacy classes: 47449\n"

    def test_degree_one(self, runner):
        result = runner.invoke(main, ["covers", "enumerate", "eikelberg", "-d", "1"])
        assert result.exit_code == 0
        assert "assignments: 1" in result.output

    def test_census_structure(self, fulton):
        census = branch_census(fulton)
        assert census["total_assignments"] == 128
        assert len(census["admissible"]) == 18
        assert census["orbit_sizes"] == [4, 12, 2]
        # type A orbits are the four antipodal vertex pairs of the cube
        type_a = census["orbits"][0]
        assert all(len(s) == 2 for s in type_a)


class TestSolveCommand:
    def test_type_c(self, runner):
        result = runner.invoke(main, ["pl", "solve", "fulton", "--branch-rays", "0,2,5,7"])
        assert result.exit_code == 0
        assert "system 12x12 of rank 9" in result.output
        assert "dim PL = 3" in result.output
        assert "AllTrivial(pullbacks-only)" in result.output

    def test_builds_the_system_once_per_solver(self, runner, monkeypatch):
        # `solve` builds the values-at-rays system once and `group_triviality`
        # reads that elimination off the basis; the rank line only counts its rows.
        from fanbranch import commands, pl_group

        builds = []
        real = pl_group.ray_value_system

        def counted(cover):
            builds.append(cover)
            return real(cover)

        monkeypatch.setattr(pl_group, "ray_value_system", counted)
        monkeypatch.setattr(commands, "ray_value_system", counted)
        result = runner.invoke(main, ["pl", "solve", "fulton", "--branch-rays", "0,2,5,7"])
        assert result.exit_code == 0
        assert result.output.startswith("degree 2 cover, system 12x12 of rank 9\n")
        assert len(builds) == 1

    def test_eikelberg_nontrivial(self, runner):
        result = runner.invoke(main, ["pl", "solve", "eikelberg", "--branch-rays", "0,5"])
        assert result.exit_code == 0
        assert "Nontrivial" in result.output
        assert "witness multisets" in result.output

    def test_empty_branch_set_wedge(self, runner):
        result = runner.invoke(main, ["pl", "solve", "fulton", "--branch-rays", ""])
        assert result.exit_code == 0
        assert "dim PL = 6" in result.output
        assert "AllTrivial(wedge-of-pullbacks)" in result.output

    def test_monodromy_cover_file(self, runner, tmp_path):
        p = tmp_path / "cover.json"
        p.write_text(
            json.dumps(
                {
                    "fan": "fulton",
                    "monodromy": {"degree": 2, "perms": [[1, 0]] + [[0, 1]] * 6},
                }
            )
        )
        result = runner.invoke(main, ["pl", "solve", "fulton", "--cover", str(p)])
        assert result.exit_code == 0
        assert "dim PL" in result.output

    def test_explicit_cells_cover_file(self, runner, fulton, tmp_path):
        from fanbranch.cover_poset import cover_to_dict
        from fanbranch.monodromy import assignment_for_branch_set, build_cover

        cov = build_cover(fulton, assignment_for_branch_set(fulton, [0, 2, 5, 7]))
        p = tmp_path / "explicit.json"
        p.write_text(json.dumps(cover_to_dict(cov)))
        result = runner.invoke(main, ["pl", "solve", "fulton", "--cover", str(p)])
        assert result.exit_code == 0
        assert "dim PL = 3" in result.output
        assert "AllTrivial(pullbacks-only)" in result.output


@pytest.mark.parametrize(
    "args, perms, message",
    [
        (["--branch-rays", "a"], None, "--branch-rays takes comma-separated ray indices, got 'a'"),
        (["--branch-rays", "99"], None, "branch rays [99]: branch ray index out of range"),
        (["--branch-rays", "0"], None, "branch rays [0]: no degree-2 cover has that branch set"),
        (["--branch-rays", "0,0,2,2,5,7"], None,
         "branch rays [0, 0, 2, 2, 5, 7]: branch ray 0 is given twice"),
        ([], [[1, 0]] + [[0, 0]] * 6, "(0, 0) is not a permutation"),
        ([], [[1, 0]] * 9, "9 permutations, but the fan's spanning tree has 7 generators"),
        ([], [[1, 0]], "1 permutations, but the fan's spanning tree has 7 generators"),
    ],
    ids=["letter", "out-of-range", "parity", "repeated-ray", "non-permutation", "nine-perms",
         "one-perm"],
)
def test_solve_input_refused_in_one_line(runner, tmp_path, args, perms, message):
    if perms is not None:
        p = tmp_path / "cover.json"
        p.write_text(json.dumps({"fan": "fulton", "monodromy": {"degree": 2, "perms": perms}}))
        args = ["--cover", str(p)]
    result = runner.invoke(main, ["pl", "solve", "fulton", *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.count("\n") == 1
    assert result.output.startswith("Error: ") and message in result.output


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"fan": "fulton", "monodromy": {"degree": 2}}',
         "invalid monodromy in cover.json: a monodromy is an object with 'degree' and 'perms'"),
        ('{"fan": "fulton", "monodromy": {"perms": [[1, 0]]}}',
         "invalid monodromy in cover.json: a monodromy is an object with 'degree' and 'perms'"),
        ('{"fan": "fulton", "monodromy": {"degree": 2.0, "perms": %s}}' % json.dumps([[0, 1]] * 7),
         "invalid monodromy in cover.json: a monodromy is an object with 'degree' and 'perms'"),
        ('{"fan": "fulton", "monodromy": {"degree": 2, "perms": %s}}' % json.dumps([[0.0, 1]] * 7),
         "invalid monodromy in cover.json: a monodromy is an object with 'degree' and 'perms'"),
        ('{"fan": "fulton", "monodromy": {"degree": true, "perms": %s}}' % json.dumps([[0]] * 7),
         "invalid monodromy in cover.json: a monodromy is an object with 'degree' and 'perms'"),
        ('{"fan": "fulton", "cells": [{"base": 0, "weight": 1}]}',
         "invalid cover in cover.json: a cover needs 'cells', each an object with 'base', 'copy'"),
        ('{"fan": "fulton", "cells": [{"base": 999, "copy": 0, "weight": 1}]}',
         "invalid cover in cover.json: cell base 999 is not a cone id of the fan"),
        ('{"fan": "fulton", "cells": [{"base": 0, "copy": 0, "weight": 1}], "faces": [[0, 5]]}',
         "invalid cover in cover.json: each face is a pair [lower, upper] of cell positions"),
        ('{"fan": "fulton", "cells": [{"base": 0, "copy": 0, "weight": 1}], "faces": [5]}',
         "invalid cover in cover.json: each face is a pair [lower, upper] of cell positions"),
        ('{"fan": "fulton", "cells": [{"base": 0, "copy": "0", "weight": 1}]}',
         "invalid cover in cover.json: a cover needs 'cells', each an object with 'base', 'copy'"),
        ('{"fan": "fulton", "cells": [{"base": 0, "copy": 0, "weight": 1}, '
         '{"base": 1, "copy": 0, "weight": 1}], "faces": [[0, 1], [1, 0]]}',
         "invalid cover in cover.json: the faces form a cycle"),
        ("not json {", "cover.json is not JSON: Expecting value: line 1 column 1"),
        ("[1, 2]", "cover.json does not hold a JSON object"),
    ],
    ids=["no-perms", "no-degree", "float-degree", "float-image", "bool-degree", "no-copy", "base-out-of-range", "face-out-of-range",
         "face-not-a-pair", "string-copy", "face-cycle", "not-json", "not-an-object"],
)
def test_malformed_cover_file_refused_in_one_line(runner, tmp_path, monkeypatch,
                                                  content, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cover.json").write_text(content)
    result = runner.invoke(main, ["pl", "solve", "fulton", "--cover", "cover.json"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.count("\n") == 1
    assert result.output.startswith("Error: ") and message in result.output


@pytest.mark.parametrize(
    "command",
    [["pl", "sweep", "fulton", "-d", "2"], ["paper", "reproduce", "p2-tangent"]],
)
class TestJobCounts:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_option_below_one_refused(self, runner, command, jobs):
        result = runner.invoke(main, [*command, "--jobs", jobs])
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output

    @pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5", "\u0661", "\uff13"])
    def test_bad_environment_value_refused(self, runner, command, env):
        result = runner.invoke(main, command, env={"FANBRANCH_JOBS": env})
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: FANBRANCH_JOBS must be a positive integer, got '{env}'" in result.output

    def test_environment_value_used(self, runner, command):
        result = runner.invoke(main, command, env={"FANBRANCH_JOBS": "1"})
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "command", [["pl", "sweep", "fulton"], ["covers", "enumerate", "fulton"]],
    ids=["sweep", "enumerate"],
)
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_degree_below_one_refused(runner, command, degree):
    result = runner.invoke(main, [*command, "-d", degree])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Invalid value for '--degree'" in result.output


# An integer option is ASCII digits: `int` used to read the fullwidth and
# Arabic-Indic digits, and a sign or surrounding spaces.
NOT_ASCII_DIGITS = ["\uff12", "\u0662", " 2", "2 ", "+2"]


@pytest.mark.parametrize(
    "command, option",
    [(["pl", "sweep", "fulton", "-d"], "--degree"),
     (["covers", "enumerate", "fulton", "-d"], "--degree"),
     (["pl", "sweep", "fulton", "-d", "2", "--jobs"], "--jobs"),
     (["paper", "reproduce", "p2-tangent", "--jobs"], "--jobs")],
    ids=["sweep-degree", "enumerate-degree", "sweep-jobs", "reproduce-jobs"],
)
@pytest.mark.parametrize("value", NOT_ASCII_DIGITS, ids=ascii)
def test_integer_option_not_in_ascii_digits_refused(runner, command, option, value):
    result = runner.invoke(main, [*command, value])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{option}'" in result.output
    assert f"{value!r} is not written in ASCII digits" in result.output


@pytest.mark.parametrize("value", [",".join(x.replace("2", d) for x in ["0", "2", "5", "7"])
                                   for d in NOT_ASCII_DIGITS] + ["\uff10,\uff12,\uff15,\uff17"],
                         ids=ascii)
def test_branch_ray_not_in_ascii_digits_refused(runner, value):
    result = runner.invoke(main, ["pl", "solve", "fulton", "--branch-rays", value])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: --branch-rays takes comma-separated ray indices, got {value!r}\n"


class TestSweep:
    def test_jobs_do_not_change_cache(self, fulton, tmp_path):
        c1 = tmp_path / "one.jsonl"
        c2 = tmp_path / "two.jsonl"
        s1 = run_sweep(fulton, 2, jobs=1, cache_path=str(c1))
        s2 = run_sweep(fulton, 2, jobs=2, cache_path=str(c2))
        assert c1.read_bytes() == c2.read_bytes()
        assert s1.processed == s2.processed == 128
        assert not s1.nontrivial

    def test_resume_reproduces_full_cache(self, fulton, tmp_path):
        full = tmp_path / "full.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(full))
        partial = tmp_path / "partial.jsonl"
        lines = full.read_text().splitlines()
        partial.write_text("\n".join(lines[:50]) + "\n")
        shutil.copy(sidecar_path(str(full)), sidecar_path(str(partial)))
        summary = run_sweep(fulton, 2, jobs=1, cache_path=str(partial), resume=True)
        assert summary.processed == 128
        assert partial.read_bytes() == full.read_bytes()

    def test_resume_of_complete_cache_is_noop(self, fulton, tmp_path):
        full = tmp_path / "full.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(full))
        before = full.read_bytes()
        summary = run_sweep(fulton, 2, jobs=1, cache_path=str(full), resume=True)
        assert summary.processed == 128
        assert full.read_bytes() == before

    def test_corrupt_cache_refused(self, fulton, tmp_path, runner):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"index": 0, "verdict": "AllTrivial"}\nnot json at all\n')
        result = runner.invoke(
            main,
            ["pl", "sweep", "fulton", "-d", "2", "--cache", str(bad), "--resume"],
        )
        assert result.exit_code != 0
        assert "corrupt" in result.output

    @pytest.mark.parametrize("keep_lines", [50, 127])
    def test_resume_from_torn_last_line(self, fulton, tmp_path, runner, keep_lines):
        full = tmp_path / "full.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(full))
        data = full.read_bytes()
        whole = sum(len(x) + 1 for x in data.split(b"\n")[:keep_lines])
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data[: whole + 17])  # a kill 17 bytes into a record
        shutil.copy(sidecar_path(str(full)), sidecar_path(str(torn)))
        result = runner.invoke(
            main,
            ["pl", "sweep", "fulton", "-d", "2", "--jobs", "1",
             "--cache", str(torn), "--resume"],
        )
        assert result.exit_code == 0, result.output
        assert "dropped an unterminated last line of 17 bytes" in result.output
        assert f"resuming: {keep_lines} records already cached" in result.output
        assert torn.read_bytes() == data

    @pytest.mark.parametrize("where", [0, 10], ids=["first-line", "after-ten-records"])
    def test_blank_line_refused_untouched(self, fulton, tmp_path, runner, where):
        full = tmp_path / "full.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(full))
        lines = full.read_text().splitlines(keepends=True)[:10]
        bad = tmp_path / "blank.jsonl"
        content = "".join(lines[:where]) + "\n" + "".join(lines[where:])
        bad.write_text(content)
        result = runner.invoke(
            main,
            ["pl", "sweep", "fulton", "-d", "2", "--jobs", "1",
             "--cache", str(bad), "--resume"],
        )
        assert result.exit_code == 1
        assert f"cache corruption at line {where + 1}" in result.output
        assert bad.read_text() == content

    def test_torn_line_after_corruption_refused_untouched(self, tmp_path, runner):
        bad = tmp_path / "bad.jsonl"
        content = b'{"index": 0}\nnot json at all\n{"index": 2, "ver'
        bad.write_bytes(content)
        result = runner.invoke(
            main,
            ["pl", "sweep", "fulton", "-d", "2", "--cache", str(bad), "--resume"],
        )
        assert result.exit_code != 0
        assert "cache corruption at line 2" in result.output
        assert bad.read_bytes() == content

    def test_record_missing_a_field_refused_untouched(self, fulton, tmp_path, runner):
        full = tmp_path / "full.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        del record["cert"]
        bad = tmp_path / "bad.jsonl"
        content = "".join(lines[:3]) + json.dumps(record) + "\n" + lines[4][:20]
        bad.write_text(content)
        result = runner.invoke(
            main,
            ["pl", "sweep", "fulton", "-d", "2", "--cache", str(bad), "--resume"],
        )
        assert result.exit_code == 1
        assert "cache corruption at line 4" in result.output
        assert bad.read_text() == content

    def _edited_cache(self, fulton, tmp_path, edits, keep=50):
        """A fulton degree-2 cache of `keep` records, with its sidecar, after
        setting `(line, field, value)` for each edit (lines from 1)."""
        full = tmp_path / "full.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(full))
        lines = full.read_text().splitlines()[:keep]
        for line, field, value in edits:
            record = json.loads(lines[line - 1])
            record[field] = value
            lines[line - 1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        cache = tmp_path / "edited.jsonl"
        cache.write_text("".join(x + "\n" for x in lines))
        shutil.copy(sidecar_path(str(full)), sidecar_path(str(cache)))
        return cache

    @pytest.mark.parametrize("edits, message", [
        ([(5, "verdict", "Maybe")],
         "line 5 has verdict 'Maybe' with cert 'matched-pattern'"),
        ([(6, "cert", None)], "line 6 has verdict 'AllTrivial' with cert None"),
        ([(5, "cert", "nontrivial")],
         "line 5 has verdict 'AllTrivial' with cert 'nontrivial'"),
        ([(5, "verdict", ["AllTrivial"])],
         "line 5 has verdict ['AllTrivial'] with cert 'matched-pattern'"),
        ([(5, "verdict", "Nontrivial")],
         "line 5 has verdict 'Nontrivial' with cert 'matched-pattern'"),
        ([(7, "dim_pl", "3")], "line 7 has dim_pl '3' with cert 'pullbacks-only'"),
        ([(6, "dim_pl", True)], "line 6 has dim_pl True with cert 'pullbacks-only'"),
        ([(6, "dim_pl", 4)], "line 6 has dim_pl 4 with cert 'pullbacks-only'"),
        ([(5, "dim_pl", 3)], "line 5 has dim_pl 3 with cert 'matched-pattern'"),
        ([(1, "dim_pl", 7)], "line 1 has dim_pl 7 with cert 'wedge-of-pullbacks'"),
        ([(7, "branch_rays", [4, 5, 6])],
         "line 7 has branch rays [4, 5, 6], which are not those of its profile"),
        ([(5, "verdict", "Maybe"), (6, "cert", None), (7, "dim_pl", "3")],
         "line 5 has verdict 'Maybe' with cert 'matched-pattern'"),
    ], ids=["verdict", "null-cert", "nontrivial-cert", "list-verdict", "nontrivial-verdict",
            "string-dim",
            "bool-dim", "dim-above-pullbacks", "dim-3-pattern", "wedge-dim", "branch-rays",
            "three-edits"])
    def test_record_field_refused_untouched(self, fulton, tmp_path, runner, edits, message):
        cache = self._edited_cache(fulton, tmp_path, edits)
        self._refused_untouched(runner, cache, ["fulton", "-d", "2"],
                                f"cache record at {message}")

    @pytest.mark.parametrize("edit, message", [
        ((5, "rung", 1), "cache corruption at line 5"),
        ((5, "index", 4.0), "cache is not a clean index prefix at line 5"),
        ((2, "index", True), "cache is not a clean index prefix at line 2"),
    ], ids=["another-field", "float-index", "bool-index"])
    def test_record_line_refused(self, fulton, tmp_path, runner, edit, message):
        cache = self._edited_cache(fulton, tmp_path, [edit])
        self._refused_untouched(runner, cache, ["fulton", "-d", "2"], message)

    def test_profile_out_of_order_refused(self, fulton, tmp_path, runner):
        # a cycle type is written in descending order; degree 2 has none to swap
        tree = spanning_tree(fulton)
        lines = [json.loads(evaluate_assignment(fulton, tree, 3, i).to_json()) for i in range(4)]
        assert lines[1]["profile"][6] == [2, 1]
        lines[1]["profile"][6] = [1, 2]
        cache = tmp_path / "fulton3.jsonl"
        cache.write_text("".join(json.dumps(x, sort_keys=True) + "\n" for x in lines))
        Path(sidecar_path(str(cache))).write_text(json.dumps(_sweep_meta(fulton, 3, tree)))
        self._refused_untouched(runner, cache, ["fulton", "-d", "3"],
                                "cache record at line 2 does not fit 8 rays at degree 3")

    def test_resumed_summary_counts_the_whole_cache(self, fulton, tmp_path, runner):
        def counts(output):
            return [x.split(", solved")[0] for x in output.splitlines()
                    if x.startswith(("verdicts:", "dim > 3 records:"))]

        cache = self._edited_cache(fulton, tmp_path, [], keep=60)
        resumed = runner.invoke(
            main, ["pl", "sweep", "fulton", "-d", "2", "--jobs", "1",
                   "--cache", str(cache), "--resume"])
        fresh = runner.invoke(main, ["pl", "sweep", "fulton", "-d", "2", "--jobs", "1"])
        assert resumed.exit_code == fresh.exit_code == 0
        assert counts(resumed.output) == counts(fresh.output)
        assert "dim > 3 records: 16" in counts(fresh.output)

    @pytest.mark.parametrize(
        "written, resumed, message",
        [
            (("fulton", 2), ("fulton", 3), "does not fit 8 rays at degree 3"),
            (("eikelberg", 2), ("fulton", 2), "does not fit 8 rays at degree 2"),
        ],
        ids=["wrong-degree", "wrong-fan"],
    )
    def test_cache_of_another_sweep_refused_untouched(self, tmp_path, runner,
                                                      written, resumed, message):
        cache = tmp_path / "other.jsonl"
        run_sweep(load_fan(written[0]), written[1], jobs=1, cache_path=str(cache))
        before = cache.read_bytes()
        result = runner.invoke(
            main,
            ["pl", "sweep", resumed[0], "-d", str(resumed[1]), "--jobs", "1",
             "--cache", str(cache), "--resume"],
        )
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: cache record at line 1 {message}; refusing to resume"
        ]
        assert cache.read_bytes() == before

    def _refused_untouched(self, runner, cache, argv, message):
        meta = Path(sidecar_path(str(cache)))
        before = cache.read_bytes(), meta.read_bytes() if meta.exists() else None
        result = runner.invoke(
            main, ["pl", "sweep", *argv, "--jobs", "1", "--cache", str(cache), "--resume"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: {message}; refusing to resume"]
        assert (cache.read_bytes(), meta.read_bytes() if meta.exists() else None) == before

    def test_sidecar_of_another_fan_refused(self, fulton, tmp_path, runner):
        # fulton's and sigma_prime's degree-2 records coincide at 127 of 128
        # indices, and the differing one passes every record check
        cache = tmp_path / "fulton.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(cache))
        self._refused_untouched(
            runner, cache, ["sigma_prime", "-d", "2"],
            f"sidecar {sidecar_path(str(cache))} differs from this sweep in 'rays'")

    def test_sidecar_of_another_degree_refused(self, fulton, tmp_path, runner):
        # a kill inside the first record leaves nothing for the record checks
        cache = tmp_path / "fulton.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(cache))
        cache.write_bytes(cache.read_bytes()[:17])
        self._refused_untouched(
            runner, cache, ["fulton", "-d", "3"],
            f"sidecar {sidecar_path(str(cache))} differs from this sweep in 'degree'")

    def test_sidecar_of_an_edited_ray_refused(self, tmp_path, runner):
        data = json.loads((DATA / "fulton.fan.json").read_text())
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps(data))
        cache = tmp_path / "edited.jsonl"
        result = runner.invoke(
            main, ["pl", "sweep", str(fan_file), "-d", "2", "--jobs", "1", "--cache", str(cache)])
        assert result.exit_code == 0, result.output
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[:40]))
        data["rays"][0] = [1, 1, 1]  # the cube: same cones, same records
        fan_file.write_text(json.dumps(data))
        self._refused_untouched(
            runner, cache, [str(fan_file), "-d", "2"],
            f"sidecar {sidecar_path(str(cache))} differs from this sweep in 'rays'")

    def test_missing_sidecar_refused(self, fulton, tmp_path, runner):
        cache = tmp_path / "bare.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(cache))
        os.remove(sidecar_path(str(cache)))
        self._refused_untouched(
            runner, cache, ["fulton", "-d", "2"],
            f"no such sidecar: {sidecar_path(str(cache))!r}")

    def test_unreadable_sidecar_refused(self, fulton, tmp_path, runner):
        cache = tmp_path / "fulton.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(cache))
        Path(sidecar_path(str(cache))).write_text('["schema", 1]\n')
        self._refused_untouched(
            runner, cache, ["fulton", "-d", "2"],
            f"invalid sidecar: {sidecar_path(str(cache))} does not hold a JSON object")

    def test_directory_sidecar_refused_as_unreadable(self, fulton, tmp_path, runner):
        # it used to be reported as "not a JSON object"
        cache = tmp_path / "fulton.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(cache))
        meta = Path(sidecar_path(str(cache)))
        meta.unlink()
        meta.mkdir()
        (meta / "kept").write_text("x")
        before = cache.read_bytes()
        result = runner.invoke(main, ["pl", "sweep", "fulton", "-d", "2", "--jobs", "1",
                                      "--cache", str(cache), "--resume"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: cannot read sidecar {str(meta)!r}: Is a directory; refusing to resume"]
        assert cache.read_bytes() == before
        assert [p.name for p in meta.iterdir()] == ["kept"] and (meta / "kept").read_text() == "x"

    def test_leftover_sidecar_rewritten_by_a_fresh_sweep(self, fulton, tmp_path):
        # a sweep without --resume owns the path once its cache is gone
        cache = tmp_path / "sweep.jsonl"
        run_sweep(load_fan("sigma_prime"), 2, jobs=1, cache_path=str(cache))
        os.remove(cache)
        run_sweep(fulton, 2, jobs=1, cache_path=str(cache))
        fresh = tmp_path / "fresh.jsonl"
        run_sweep(fulton, 2, jobs=1, cache_path=str(fresh))
        assert Path(sidecar_path(str(cache))).read_bytes() == \
            Path(sidecar_path(str(fresh))).read_bytes()
        assert cache.read_bytes() == fresh.read_bytes()
        run_sweep(fulton, 2, jobs=1, cache_path=str(cache), resume=True)
        assert cache.read_bytes() == fresh.read_bytes()

    def test_non_prefix_cache_refused(self, fulton, tmp_path, runner):
        bad = tmp_path / "gap.jsonl"
        rec = evaluate_assignment(fulton, spanning_tree(fulton), 2, 5).to_json()
        bad.write_text(rec + "\n")
        result = runner.invoke(
            main,
            ["pl", "sweep", "fulton", "-d", "2", "--cache", str(bad), "--resume"],
        )
        assert result.exit_code != 0
        assert "prefix" in result.output

    def test_existing_cache_without_resume_refused(self, fulton, tmp_path, runner):
        cache = tmp_path / "exists.jsonl"
        cache.write_text("")
        result = runner.invoke(
            main, ["pl", "sweep", "fulton", "-d", "2", "--cache", str(cache)]
        )
        assert result.exit_code != 0
        assert "--resume" in result.output

    def test_cache_in_a_missing_directory_refused_in_one_line(self, tmp_path, runner):
        # it used to end in a FileNotFoundError traceback from the sidecar
        cache = tmp_path / "no" / "such" / "x.jsonl"
        result = runner.invoke(main, ["pl", "sweep", "fulton", "-d", "2", "--cache", str(cache)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: cannot open {sidecar_path(str(cache))!r}: "
                                 "No such file or directory\n")
        assert not cache.parent.exists()

    def test_directory_as_cache_refused_in_one_line(self, tmp_path, runner):
        # it used to end in an IsADirectoryError traceback
        result = runner.invoke(
            main, ["pl", "sweep", "fulton", "-d", "2", "--cache", str(tmp_path), "--resume"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: cannot open {str(tmp_path)!r}: Is a directory\n"

    def test_eikelberg_sweep_finds_nontrivial(self):
        fan = load_fan("eikelberg")
        summary = run_sweep(fan, 2, jobs=2)
        assert summary.processed == 32
        assert summary.nontrivial
        found = {tuple(rec["branch_rays"]) for rec in summary.nontrivial}
        assert (0, 5) in found

    def test_expect_trivial_exit_code(self, runner):
        result = runner.invoke(
            main, ["pl", "sweep", "eikelberg", "-d", "2", "--expect-trivial"]
        )
        assert result.exit_code == 2

    def test_record_fields(self, fulton):
        rec = evaluate_assignment(fulton, spanning_tree(fulton), 2, 0)
        data = json.loads(rec.to_json())
        assert set(data) == {"index", "branch_rays", "profile", "dim_pl", "verdict", "cert"}
        assert data["index"] == 0


@pytest.mark.parametrize("command", [["pl", "sweep"], ["covers", "enumerate"]])
def test_fan_without_covers_fails_in_one_line(runner, command):
    result = runner.invoke(main, command + ["p2", "-d", "2"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("Error: 'p2' has no monodromy covers: spanning trees "
                             "are built over complete rank-3 fans\n")


def test_cover_directory_fails_in_one_line(runner, tmp_path):
    result = runner.invoke(main, ["pl", "solve", "fulton", "--cover", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    reason = os.strerror(errno.EISDIR)
    assert result.output == f"Error: cannot read cover {str(tmp_path)!r}: {reason}\n"


def test_cover_not_utf8_fails_in_one_line(runner, tmp_path):
    path = tmp_path / "cover.json"
    path.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(main, ["pl", "solve", "fulton", "--cover", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(
        f"Error: invalid cover: {path} is not JSON: 'utf-8' codec can't decode")
    assert result.output.count("\n") == 1


# Bundle files whose content is unusable, by the start of their one error line.
UNUSABLE_BUNDLES = {
    "a list": (b"[1]", "does not hold a JSON object\n"),
    "not UTF-8": (b"\xff\xfe{}", "is not JSON: 'utf-8' codec can't decode"),
    "cut JSON": (b'{"fan": ', "is not JSON: Expecting value"),
    "no rank": (b'{"fan": "fulton"}', "does not hold bundle data: KeyError('rank')"),
}


class TestBundleCommands:
    @pytest.mark.parametrize("command", ["verify", "chern", "cover"])
    def test_directory_fails_in_one_line(self, runner, tmp_path, command):
        result = runner.invoke(main, ["bundle", command, str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        reason = os.strerror(errno.EISDIR)
        assert result.output == f"Error: cannot read bundle {str(tmp_path)!r}: {reason}\n"

    @pytest.mark.parametrize("content", sorted(UNUSABLE_BUNDLES))
    @pytest.mark.parametrize("command", ["verify", "chern", "cover"])
    def test_unusable_content_fails_in_one_line(self, runner, tmp_path, command, content):
        data, message = UNUSABLE_BUNDLES[content]
        path = tmp_path / "bundle.json"
        path.write_bytes(data)
        result = runner.invoke(main, ["bundle", command, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"Error: invalid bundle: {path} {message}")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "chern", "cover"])
    def test_fan_directory_names_the_fan(self, runner, tmp_path, command):
        fan_dir = tmp_path / "fan"
        fan_dir.mkdir()
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"fan": str(fan_dir), "rank": 1}))
        result = runner.invoke(main, ["bundle", command, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        reason = os.strerror(errno.EISDIR)
        assert result.output == f"Error: cannot read fan {str(fan_dir)!r}: {reason}\n"

    def test_relative_fan_path_is_the_bundle_files(self, runner, tmp_path, monkeypatch):
        rel = tmp_path / "rel"
        rel.mkdir()
        data = json.loads((DATA / "p2_tangent.bundle.json").read_text())
        (rel / "b.json").write_text(json.dumps(dict(data, fan="p2.fan.json")))
        (rel / "p2.fan.json").write_text((DATA / "p2.fan.json").read_text())
        for cwd, path in ((tmp_path, "rel/b.json"), (rel, "b.json")):
            monkeypatch.chdir(cwd)
            result = runner.invoke(main, ["bundle", "verify", path])
            assert result.exit_code == 0, result.output
            assert "ok" in result.output

    def test_missing_fan_names_the_fan(self, runner, tmp_path):
        path = tmp_path / "bundle.json"
        missing = str(tmp_path / "missing.fan.json")
        path.write_text(json.dumps({"fan": missing, "rank": 1}))
        result = runner.invoke(main, ["bundle", "verify", str(path)])
        assert result.exit_code == 1
        assert result.output == f"Error: no such fan: {missing!r}\n"

    def test_verify_ok(self, runner):
        result = runner.invoke(main, ["bundle", "verify", "eikelberg"])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_verify_violation_exit_one(self, runner):
        result = runner.invoke(main, ["bundle", "verify", "fulton_rank3"])
        assert result.exit_code == 1
        assert "violation" in result.output
        assert "dimension screen: violation" in result.output

    def test_chern(self, runner):
        result = runner.invoke(main, ["bundle", "chern", "eikelberg"])
        assert result.exit_code == 0
        assert "nontrivial" in result.output
        assert "(15, -15, 3)" in result.output

    def test_cover(self, runner):
        result = runner.invoke(main, ["bundle", "cover", "eikelberg"])
        assert result.exit_code == 0
        assert "branched over rays [0, 5]" in result.output

    def test_p2_cover(self, runner):
        result = runner.invoke(main, ["bundle", "cover", "p2_tangent"])
        assert result.exit_code == 0
        assert "degree 2 cover" in result.output


def _edited_eikelberg(tmp_path, edit):
    data = json.loads((DATA / "eikelberg.bundle.json").read_text())
    edit(data)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    return path


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(data):
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


# Bundle fields the loader used to accept (exit 0) or refuse without naming
# them, by the message that now names the field (a repeated threshold was
# refused without naming its ray).
MALFORMED_BUNDLE_FIELDS = {
    "float threshold": (_set("filtrations", "1", 1, "threshold", 18.0),
                        "filtration of ray '1': threshold 18.0 is not an integer"),
    "bool threshold": (_set("filtrations", "1", 1, "threshold", True),
                       "filtration of ray '1': threshold True is not an integer"),
    "repeated threshold": (_set("filtrations", "1", 1, "threshold", -12),
                           "filtration of ray '1': thresholds must strictly increase"),
    "float subspace entry": (_set("filtrations", "1", 1, "subspace", [[1.0, 0]]),
                             "filtration of ray '1': subspace [[1.0, 0]] is not a list of "
                             "rows of 2 integers or 'p/q' strings"),
    "float u": (_set("splittings", "0", 0, "u", [15.0, -15, 3]),
                "splitting of cone '0': u [15.0, -15, 3] is not a list of 3 integers"),
    "long u": (_set("splittings", "0", 0, "u", [15, -15, 3, 7]),
               "splitting of cone '0': u [15, -15, 3, 7] is not a list of 3 integers"),
    "short u": (_set("splittings", "0", 0, "u", [15, -15]),
                "splitting of cone '0': u [15, -15] is not a list of 3 integers"),
    "long subspace row": (_set("splittings", "2", 1, "subspace", [[0, 1, 0]]),
                          "splitting of cone '2': subspace [[0, 1, 0]] is not a list of "
                          "rows of 2 integers or 'p/q' strings"),
    "unknown cone": (lambda data: data["splittings"].update({"99": data["splittings"]["0"]}),
                     "splitting of cone '99': the fan has no such maximal cone"),
}


@pytest.mark.parametrize("command", ["verify", "chern", "cover"])
@pytest.mark.parametrize("field", sorted(MALFORMED_BUNDLE_FIELDS))
def test_malformed_bundle_field_refused_by_name(runner, tmp_path, command, field):
    edit, message = MALFORMED_BUNDLE_FIELDS[field]
    path = _edited_eikelberg(tmp_path, edit)
    result = runner.invoke(main, ["bundle", command, str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: invalid bundle: {path}: {message}\n"


@pytest.mark.parametrize("command", ["chern", "cover"])
def test_disagreeing_splittings_fail_in_one_line(runner, tmp_path, command):
    # this used to end in a KlyachkoError traceback
    path = _edited_eikelberg(tmp_path, _set("splittings", "0", 0, "u", [1, 2, 3]))
    result = runner.invoke(main, ["bundle", command, str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: multisets of cones 0 and 2 disagree on their shared face\n"


FULTON_MONODROMY = {"degree": 2, "perms": [[1, 0]] + [[0, 1]] * 6}


@pytest.mark.parametrize(
    "content, message",
    [
        ({"fan": "sigma_prime", "monodromy": FULTON_MONODROMY},
         "is a cover of 'sigma_prime', not of 'fulton'"),
        ({"fan": "other.fan.json", "monodromy": FULTON_MONODROMY},
         "is a cover of 'other.fan.json', not of 'fulton'"),
        ({"fan": "fulton", "monodromy": FULTON_MONODROMY, "cells": []},
         "holds both 'cells' and 'monodromy'"),
        ({"fan": "fulton", "monodromy": {"degree": -1, "perms": [[0, 1]] * 7}},
         "invalid monodromy in {path}: degree must be a positive integer"),
    ],
    ids=["other-bundled-fan", "other-fan-file", "cells-and-monodromy", "negative-degree"],
)
def test_cover_file_of_another_kind_refused(runner, tmp_path, content, message):
    # a path is taken relative to the cover file: sigma_prime's rays, fulton's cones
    (tmp_path / "other.fan.json").write_text((DATA / "sigma_prime.fan.json").read_text())
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(content))
    result = runner.invoke(main, ["pl", "solve", "fulton", "--cover", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    expected = message.format(path=path) if "{path}" in message else f"{path} {message}"
    assert result.output == f"Error: {expected}\n"


def test_cover_file_naming_the_same_fan_by_path_accepted(runner, tmp_path):
    (tmp_path / "same.fan.json").write_text((DATA / "fulton.fan.json").read_text())
    outputs = []
    for name in ("same.fan.json", "fulton"):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({"fan": name, "monodromy": FULTON_MONODROMY}))
        result = runner.invoke(main, ["pl", "solve", "fulton", "--cover", str(path)])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


class TestErrorBoundary:
    """`main` turns the package's five error classes, and nothing else, into
    one `Error:` line with exit status 1."""

    @pytest.mark.parametrize("error", [FanError, CoverError, KlyachkoError, PLError, CacheError])
    def test_package_error_becomes_one_line(self, runner, monkeypatch, error):
        from fanbranch import commands

        def raising(fan):
            raise error("the message")

        monkeypatch.setattr(commands, "is_complete", raising)
        result = runner.invoke(main, ["fan", "validate", "fulton"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: the message\n"

    def test_broken_invariant_propagates(self, runner, monkeypatch):
        from fanbranch import commands

        def raising(fan):
            raise RuntimeError("broken invariant")

        monkeypatch.setattr(commands, "is_complete", raising)
        with pytest.raises(RuntimeError, match="broken invariant"):
            runner.invoke(main, ["fan", "validate", "fulton"], catch_exceptions=False)

    def test_expect_trivial_still_exits_two(self, runner):
        result = runner.invoke(main, ["pl", "sweep", "eikelberg", "-d", "2", "--jobs", "1",
                                      "--expect-trivial"])
        assert result.exit_code == 2
        assert "Error" not in result.output


class TestReproduce:
    def test_p2_tangent(self, runner):
        result = runner.invoke(main, ["paper", "reproduce", "p2-tangent"])
        assert result.exit_code == 0
        assert "all expectations matched" in result.output

    def test_eikelberg(self, runner):
        result = runner.invoke(main, ["paper", "reproduce", "eikelberg"])
        assert result.exit_code == 0

    def test_fulton_deg2(self, runner):
        result = runner.invoke(main, ["paper", "reproduce", "fulton-deg2", "-j", "1"])
        assert result.exit_code == 0
        assert "matrix rank: expected 9, got 9 [OK]" in result.output
        assert "orbit counts: expected [4, 12, 2], got [4, 12, 2] [OK]" in result.output

    def test_fulton_rank3_reports_discrepancy(self, runner):
        result = runner.invoke(main, ["paper", "reproduce", "fulton-rank3"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output
        assert "inconsistent" in result.output


def test_importing_the_engine_loads_neither_commands_nor_a_pool():
    """`fanbranch.cli` loads `click` and the subcommands only when `main` is
    asked for, and the worker pool's modules only for a sweep of two jobs or
    more, so that neither weighs on a cold start that does not use it."""
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, fanbranch.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(DATA.parents[1])},
        capture_output=True, text=True, check=True).stdout.split()
    assert "fanbranch.cli" in loaded
    assert not {"click", "fanbranch.commands", "multiprocessing", "concurrent.futures"} & set(loaded)
