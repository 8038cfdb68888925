"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from clusteralg.cli import main
from clusteralg.fixtures import (
    a2_matrix,
    a4_path_matrix,
    fork3,
    kronecker_matrix,
    path3,
)
from clusteralg.seeds import seed_from_json, seed_to_json


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, B in [
        ("a2", a2_matrix()),
        ("a4", a4_path_matrix()),
        ("kron", kronecker_matrix()),
        ("path3", path3(1, 1)),
        ("fork3", fork3(1, 1)),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(seed_to_json(B))
        paths[name] = str(p)
    bare = tmp_path / "bare.json"
    bare.write_text("[[0, 2], [-2, 0]]")
    paths["bare"] = str(bare)
    paths["dir"] = tmp_path
    return paths


class TestMutate:
    def test_prints_new_seed(self, files, capsys):
        assert main(["mutate", "--seed", files["a2"], "--sequence", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x[1] = (1 + x2)/x1"
        assert out[1] == "x[2] = x2"
        assert out[2] == "matrix:"
        assert out[3] == "  [  0  -1]"

    def test_bare_matrix_seed(self, files, capsys):
        assert main(["mutate", "--seed", files["bare"], "--sequence", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "x[1] = (1 + x2^2)/x1"

    def test_names_are_used(self, tmp_path, capsys):
        p = tmp_path / "named.json"
        p.write_text('{"n": 2, "matrix": [[0, 1], [-1, 0]], "names": ["a", "b"]}')
        assert main(["mutate", "--seed", str(p), "--sequence", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "x[1] = (1 + b)/a"

    @pytest.mark.parametrize(
        "payload",
        [
            '{"n": 2, "matrix": [[0, 1], [-1, 0]], "variables": ["a", "b"]}',
            "[[0, 1.7], [-1, 0]]",
            "[[0, true], [-1, 0]]",
            '[[0, "1"], [-1, 0]]',
            "[1, 2]",
        ],
    )
    def test_bad_seed_files_exit_one(self, tmp_path, capsys, payload):
        p = tmp_path / "bad.json"
        p.write_text(payload)
        assert main(["mutate", "--seed", str(p), "--sequence", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_index(self, files, capsys):
        assert main(["mutate", "--seed", files["a2"], "--sequence", "7"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["mutate", "--seed", missing, "--sequence", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--sequence", "1"])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


class TestOrbit:
    def test_closed_orbit(self, files, capsys):
        assert main(["orbit", "--seed", files["a2"], "--max-seeds", "50"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("orbit closed: 10 labeled seeds under mutations\n")

    def test_with_permutations(self, files, capsys):
        rc = main(["orbit", "--seed", files["a2"], "--max-seeds", "50",
                   "--with-permutations"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "10 labeled seeds under mutations and relabelings" in out

    def test_truncation(self, files, capsys):
        assert main(["orbit", "--seed", files["kron"], "--max-seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("orbit truncated at 4 seeds (budget 4)\n")


class TestPeriods:
    def test_swap_periods(self, files, capsys):
        rc = main(["periods", "--seed", files["a2"], "--sigma", "(1 2)",
                   "--max-len", "5"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2 seed period(s) for sigma=(1 2):"
        assert out[1] == "  1,2,1,2,1"
        assert out[2] == "  2,1,2,1,2"

    def test_no_periods(self, files, capsys):
        rc = main(["periods", "--seed", files["kron"], "--max-len", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("no seed periods for sigma=id up to length 4")

    def test_long_walk_beyond_recursion_limit(self, tmp_path, capsys):
        p = tmp_path / "r1.json"
        p.write_text('{"n": 1, "matrix": [[0]]}')
        rc = main(["periods", "--seed", str(p), "--max-len", "1500",
                   "--no-essential"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        out = captured.out.splitlines()
        assert out[0] == "750 seed period(s) for sigma=id:"
        assert out[1] == "  1,1"
        assert out[-1] == "  " + ",".join(["1"] * 1500)

    def test_matrix_only(self, files, capsys):
        rc = main(["periods", "--seed", files["a2"], "--max-len", "2",
                   "--matrix-only"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2 matrix period(s) for sigma=id:"
        assert out[1] == "  1,2"


class TestBelt:
    def test_return_and_type(self, files, capsys):
        assert main(["belt", "--seed", files["a2"], "--steps", "12"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sign pattern: + -"
        assert out[1] == "steps applied: 10 (requested 12)"
        assert out[2] == "returns to the initial seed at step 10"
        assert out[3] == "type A2, coxeter number 3"
        assert out[4] == "final seed:"

    def test_no_return(self, files, capsys):
        assert main(["belt", "--seed", files["kron"], "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "no return within the requested steps" in out


class TestClassifyCommand:
    def test_bare_matrix_json(self, files, capsys):
        rc = main(["classify", "--matrix", files["bare"], "--budget", "30"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finite_type"] == "no"
        assert payload["finite_mutation_type"] == "yes"
        assert payload["finite_type_witness"]["product"] == 4

    def test_seed_json_accepted(self, files, capsys):
        rc = main(["classify", "--matrix", files["a2"], "--budget", "100"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finite_type"] == "yes"
        assert payload["dynkin"] == "A2"


class TestGroupsCommand:
    def test_summary_json(self, files, capsys):
        rc = main(["groups", "--seed", files["a2"], "--budget", "100"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["saut_order"] == 5
        assert payload["aut_plus_order"] == 5
        assert payload["L_order"] == 2
        assert payload["P_order"] == 2
        assert payload["exactness_verified"] is True

    def test_budget_bound_summary(self, files, capsys):
        rc = main(["groups", "--seed", files["kron"], "--budget", "12"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["saut_order"] == "unknown(budget=12)"
        assert payload["exactness_verified"] is False


class TestRealizeCommand:
    def test_reversal_plan(self, files, capsys):
        rc = main(["realize", "--seed", files["a4"], "--sigma", "(1 4)(2 3)"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("stage 1/")
        assert out[-1] == "verified: replay reaches the relabeled seed"

    def test_bad_sigma(self, files, capsys):
        rc = main(["realize", "--seed", files["a4"], "--sigma", "(1 9)"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestDistinguishCommand:
    def test_separating_period(self, files, capsys):
        rc = main(["distinguish", "--seed-a", files["path3"],
                   "--seed-b", files["fork3"], "--depth", "2",
                   "--period-len", "10"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "conjugator: (empty)"
        assert out[1] == "period: 1,2,1,2,3,2,3,1,2,1"
        assert out[2] == "holds for seed 2 only"

    def test_budget_too_small(self, files, capsys):
        rc = main(["distinguish", "--seed-a", files["path3"],
                   "--seed-b", files["fork3"], "--depth", "0",
                   "--period-len", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "no separating period found (conjugators to depth 0, "
            "periods to length 2)"
        )

    def test_long_period_walk_beyond_recursion_limit(self, files, capsys):
        rc = main(["distinguish", "--seed-a", files["kron"],
                   "--seed-b", files["kron"], "--depth", "0",
                   "--period-len", "1500"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out.startswith(
            "no separating period found (conjugators to depth 0, "
            "periods to length 1500)"
        )


class TestErrorRouting:
    def test_belt_needs_bipartite(self, tmp_path, capsys):
        from clusteralg.fixtures import markov_matrix

        p = tmp_path / "markov.json"
        p.write_text(seed_to_json(markov_matrix()))
        assert main(["belt", "--seed", str(p), "--steps", "4"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2}')
        assert main(["mutate", "--seed", str(p), "--sequence", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRepl:
    def _run(self, files, monkeypatch, script: str) -> int:
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        return main(["repl", "--seed", files["a2"]])

    def test_mutate_undo_quit(self, files, monkeypatch, capsys):
        rc = self._run(files, monkeypatch, "m 1\nu\nq\n")
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("commands: m <k> | u | p <sigma> | info | save <file> | q")
        assert "(1 + x2)/x1" in out

    def test_undo_on_empty_history(self, files, monkeypatch, capsys):
        assert self._run(files, monkeypatch, "u\nq\n") == 0
        assert "nothing to undo" in capsys.readouterr().out

    def test_bad_index_reports_and_continues(self, files, monkeypatch, capsys):
        assert self._run(files, monkeypatch, "m 9\nq\n") == 0
        assert "error:" in capsys.readouterr().out

    def test_info_and_unknown(self, files, monkeypatch, capsys):
        assert self._run(files, monkeypatch, "info\nzap\nq\n") == 0
        out = capsys.readouterr().out
        assert "rank 2, v(B) = 1, skew-symmetric, symmetrizer [1, 1]" in out
        assert "unknown command: zap" in out

    def test_save_round_trips(self, files, monkeypatch, capsys):
        target = files["dir"] / "saved.json"
        script = f"m 2\nsave {target}\nq\n"
        assert self._run(files, monkeypatch, script) == 0
        assert f"saved matrix to {target}" in capsys.readouterr().out
        saved, _ = seed_from_json(target.read_text())
        assert saved.matrix == a2_matrix().mutate(2)

    def test_eof_exits_cleanly(self, files, monkeypatch, capsys):
        assert self._run(files, monkeypatch, "m 1\n") == 0
