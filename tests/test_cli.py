"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clusteralg import cli
from clusteralg.cli import main
from clusteralg.fixtures import (
    a2_matrix,
    a4_path_matrix,
    fork3,
    kronecker_matrix,
    path3,
)
from clusteralg.periodicity import period_set_distinguisher
from clusteralg.seeds import LabeledSeed, seed_from_json, seed_to_json
from clusteralg.verification import CheckResult


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

    @pytest.mark.parametrize("text", ["1,,2", "1;2"])
    def test_malformed_sequence_exits_one(self, files, capsys, text):
        assert main(["mutate", "--seed", files["a2"], "--sequence", text]) == 1
        err = capsys.readouterr().err
        assert f"'{text}'" in err and "comma-separated integers" in err
        assert "Traceback" not in err

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

    def test_a_search_past_the_table_cap_exits_one(self, files, capsys):
        # the size comes from the rank and the length before any step
        rc = main(["periods", "--seed", files["a4"], "--max-len", "60"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a period search to length 60 at rank 4 would hold "
            "411782264189296 walk states, past the cap of 131072\n"
        )

    @pytest.mark.parametrize("text", ["(+1 2)", "(\u0661 2)", "(1 a)", "(1 2) (3)"])
    def test_malformed_sigma_exits_one(self, files, capsys, text):
        rc = main(["periods", "--seed", files["path3"], "--sigma", text, "--max-len", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: bad cycle notation: {text!r}\n"

    def test_overlapping_cycles_exit_one(self, files, capsys):
        rc = main(["periods", "--seed", files["path3"], "--sigma", "(1 2)(1 2)",
                   "--max-len", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: cycles are not disjoint: 1 is in two of them\n"

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

    def test_rank2_large_product_finishes(self, tmp_path, capsys):
        p = tmp_path / "k3.json"
        p.write_text("[[0, 3], [-3, 0]]")
        rc = main(["groups", "--seed", str(p), "--budget", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["L_order"] == 2
        assert payload["P_order"] == 1


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

    def test_a_rank_2_search_of_length_100000_exits_1(self, files, capsys):
        # each layer holds two words, so only the letters of its words can bind
        rc = main(["distinguish", "--seed-a", files["kron"],
                   "--seed-b", files["kron"], "--depth", "0",
                   "--period-len", "100000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "letters in its words, past the cap" in captured.err
        assert captured.out == ""

    def test_a_seed_against_itself_at_length_18(self, tmp_path, capsys):
        # acyclic_triangle(1, 1, 2): each search walks 9 letters from each end
        p = tmp_path / "acyclic.json"
        p.write_text("[[0, 1, 2], [-1, 0, 1], [-2, -1, 0]]")
        rc = main(["distinguish", "--seed-a", str(p), "--seed-b", str(p),
                   "--depth", "1", "--period-len", "18"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "no separating period found (conjugators to depth 1, "
            "periods to length 18)\n"
        )


class TestErrorRouting:
    def test_belt_needs_bipartite(self, tmp_path, capsys):
        from clusteralg.fixtures import markov_matrix

        p = tmp_path / "markov.json"
        p.write_text(seed_to_json(markov_matrix()))
        assert main(["belt", "--seed", str(p), "--steps", "4"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix, err",
        [
            # A2 plus an isolated vertex: DecomposableMatrix
            (
                "[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]",
                "error: group enumeration needs an indecomposable exchange matrix\n",
            ),
            # b12 and b21 of one sign: NotSkewSymmetrizable
            ("[[0, 1], [1, 0]]", "error: sign incoherence at (1,2): 1 vs 1\n"),
        ],
        ids=["decomposable", "sign-incoherent"],
    )
    def test_groups_refuses_bad_matrices(self, tmp_path, capsys, matrix, err):
        p = tmp_path / "bad.json"
        p.write_text(matrix)
        assert main(["groups", "--seed", str(p), "--budget", "10"]) == 1
        assert capsys.readouterr() == ("", err)

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2}')
        assert main(["mutate", "--seed", str(p), "--sequence", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["orbit", "--seed", "A2"], "--max-seeds", "0"),
            (["classify", "--matrix", "A2"], "--budget", "0"),
            (["groups", "--seed", "A2"], "--budget", "-1"),
            (["periods", "--seed", "A2"], "--max-len", "-1"),
            (["belt", "--seed", "A2"], "--steps", "-2"),
            (["distinguish", "--seed-a", "A2", "--seed-b", "A2", "--period-len", "0"],
             "--depth", "-1"),
            (["distinguish", "--seed-a", "A2", "--seed-b", "A2", "--depth", "0"],
             "--period-len", "-3"),
            (["classify", "--matrix", "A2"], "--budget", "x"),
        ],
    )
    def test_out_of_range_values_name_their_flag(self, files, capsys, argv, flag, value):
        argv = [files["a2"] if a == "A2" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 1
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["periods", "--seed", "A2", "--max-len", "0"],
            ["belt", "--seed", "A2", "--steps", "0"],
            ["distinguish", "--seed-a", "A2", "--seed-b", "A2", "--depth", "0",
             "--period-len", "0"],
        ],
    )
    def test_zero_lengths_are_accepted(self, files, argv):
        assert main([files["a2"] if a == "A2" else a for a in argv]) == 0

    def test_library_rejects_negative_distinguisher_bounds(self):
        s = LabeledSeed.initial(a2_matrix())
        with pytest.raises(ValueError, match="depth"):
            period_set_distinguisher(s, s, depth=-1, period_len=3)
        with pytest.raises(ValueError, match="period_len"):
            period_set_distinguisher(s, s, depth=0, period_len=-3)


class TestVerifyPaperCommand:
    def test_table_shows_each_check_time(self, monkeypatch, capsys):
        results = [
            CheckResult(1, "first", True, "", 0.125),
            CheckResult(2, "second check", False, "a: broke", 12.5),
        ]
        monkeypatch.setattr(cli, "run_all", lambda: results)
        assert main(["verify-paper"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "[pass] check  1  first           0.12 s",
            "[FAIL] check  2  second check   12.50 s  (a: broke)",
            "1/2 checks passed",
        ]


class TestDeepNesting:
    @pytest.mark.parametrize(
        "payload",
        [
            "[" * 100000 + "]" * 100000,
            '{"n": 1, "matrix": ' + "[" * 100000 + "]" * 100000 + "}",
            # parses, then fails deeper down (the error message repr's the entry)
            "[[" + "[" * 950 + "]" * 950 + "]]",
        ],
        ids=["bare", "object", "near-limit-entry"],
    )
    def test_reported_as_input_error(self, tmp_path, capsys, payload):
        p = tmp_path / "deep.json"
        p.write_text(payload)
        assert main(["mutate", "--seed", str(p), "--sequence", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


# The CLI contract: malformed files and out-of-range flags exit 0, 1 or 2.
# Seeds keep rank <= 4 and entries in [-3, 3], and no drawn command
# mutates a seed more than three times in a row: on a dense rank-4 matrix
# with entries 3 a fourth mutation already takes tens of seconds.
ENTRY = st.integers(-3, 3)


def flags(top: int):
    """Flag values up to top, out-of-range values and non-integers."""
    return st.one_of(
        st.integers(1, top).map(str),
        st.integers(-2, top).map(str),
        st.sampled_from(["x", "", "1.5"]),
    )


@st.composite
def sign_coherent_matrices(draw):
    """Rank <= 4, entries in [-3, 3]; not always skew-symmetrizable."""
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = draw(ENTRY)
            rows[i][j] = a
            rows[j][i] = 0 if a == 0 else (-1 if a > 0 else 1) * draw(st.integers(1, 3))
    return rows


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | ENTRY | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)

MALFORMED = st.one_of(
    st.text(max_size=24),
    JSON_VALUES.map(json.dumps),
    st.lists(st.lists(ENTRY, max_size=4), max_size=4).map(json.dumps),
    st.builds(
        lambda rows, extra: json.dumps({"n": len(rows), "matrix": rows, **extra}),
        sign_coherent_matrices(),
        st.dictionaries(st.sampled_from(["n", "names", "variables", "x"]), JSON_VALUES,
                        min_size=1, max_size=2),
    ),
    st.integers(1, 100000).map(lambda k: "[" * k + "]" * k),
)

SEED_TEXTS = st.one_of(
    sign_coherent_matrices().map(json.dumps),
    sign_coherent_matrices().map(lambda rows: json.dumps({"n": len(rows), "matrix": rows})),
    MALFORMED,
)

SIGMAS = st.sampled_from(["id", "(1 2)", "(1 2)(3 4)", "(1 5)", "(1 1)", "junk"])


@st.composite
def invocations(draw):
    """A subcommand with {seed} and {seed2} file slots and drawn flag values."""
    command = draw(st.sampled_from(
        ["mutate", "orbit", "periods", "belt", "classify", "groups", "realize",
         "distinguish"]
    ))
    if command == "mutate":
        seq = draw(st.one_of(
            st.lists(st.integers(-1, 5), max_size=3).map(lambda s: ",".join(map(str, s))),
            st.text(max_size=5),
        ))
        return ["mutate", "--seed", "{seed}", "--sequence", seq]
    if command == "orbit":
        extra = draw(st.sampled_from([[], ["--with-permutations"]]))
        return ["orbit", "--seed", "{seed}", "--max-seeds", draw(flags(3))] + extra
    if command == "periods":
        extra = draw(st.sampled_from([[], ["--matrix-only"]]))
        return ["periods", "--seed", "{seed}", "--sigma", draw(SIGMAS),
                "--max-len", draw(flags(3))] + extra
    if command == "belt":
        return ["belt", "--seed", "{seed}", "--steps", draw(flags(3))]
    if command == "classify":
        return ["classify", "--matrix", "{seed}", "--budget", draw(flags(3))]
    if command == "groups":
        return ["groups", "--seed", "{seed}", "--budget", draw(flags(3))]
    if command == "realize":
        return ["realize", "--seed", "{seed}", "--sigma", draw(SIGMAS)]
    return ["distinguish", "--seed-a", "{seed}", "--seed-b", "{seed2}",
            "--depth", draw(flags(1)), "--period-len", draw(flags(2))]


class TestContract:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(invocations(), SEED_TEXTS, SEED_TEXTS)
    def test_exit_code_is_0_1_or_2(self, tmp_path, capsys, argv, text, text2):
        paths = {"{seed}": tmp_path / "seed.json", "{seed2}": tmp_path / "seed2.json"}
        paths["{seed}"].write_text(text)
        paths["{seed2}"].write_text(text2)
        argv = [str(paths[a]) if a in paths else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2)


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
