import csv
import io
import json
import math
import sys
import time

import pytest

from qaff import cli, toda
from qaff.bgg import FiniteSchubert
from qaff.cli import main
from qaff.quantum import QuantumAff
from qaff.roots import build_root_system


def run(capsys, *argv):
    """Exit code, stdout and stderr of one call; argparse's refusals exit by ``SystemExit``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChevalleyRoots:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "chevalley-roots", "--type", "A2")
        assert code == 0
        assert out.count("\n") >= 6

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "chevalley-roots", "--type", "B2", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert {"level", "finite", "coroot", "length", "word"} <= set(rows[0])

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "chevalley-roots", "--type", "G2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["roots"]) == 7


class TestCurveNbhd:
    def test_spec_example(self, capsys):
        code, out, _ = run(
            capsys, "curve-nbhd", "--type", "A1", "--u", "e", "--d", "1,1"
        )
        assert code == 0
        assert "s0s1" in out and "s1s0" in out

    def test_json_and_dot(self, capsys):
        code, out, _ = run(
            capsys,
            "curve-nbhd", "--type", "A1", "--u", "s0s1", "--d", "1,1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["components"]
        code, out, _ = run(
            capsys,
            "curve-nbhd", "--type", "A1", "--u", "e", "--d", "0,1",
            "--format", "dot",
        )
        assert code == 0
        assert "digraph" in out or "graph" in out

    def test_bad_degree_length(self, capsys):
        code, _, err = run(
            capsys, "curve-nbhd", "--type", "A2", "--u", "e", "--d", "1,1"
        )
        assert code == 2
        assert "error" in err


class TestGW:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys,
            "gw", "--type", "A1", "--i", "0", "--u", "s0", "--w", "e",
            "--d", "1,0",
        )
        assert code == 0
        assert out.strip().endswith("1")


class TestLambda:
    def test_golden_image(self, capsys):
        code, out, _ = run(capsys, "lambda", "--type", "A1", "--i", "0", "--w", "s0")
        assert code == 0
        assert "2" in out and "s1s0" in out and "q0" in out

    def test_truncation_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "lambda", "--type", "A1", "--i", "1", "--w", "s0s1", "--trunc", "2",
        )
        assert code == 3
        assert "truncation" in err and "--trunc" in err

    def test_modified_needs_finite_index(self, capsys):
        code, _, err = run(
            capsys,
            "lambda", "--type", "A2", "--i", "0", "--w", "s1", "--modified",
        )
        assert code == 2

    @pytest.mark.parametrize("flags,span", [([], "0..2"), (["--modified"], "1..2")])
    def test_index_out_of_range(self, capsys, flags, span):
        code, out, err = run(capsys, "lambda", "--type", "A2", "--i", "3", "--w", "s1", *flags)
        owner = "finite" if flags else "affine"
        assert (code, out, err) == (2, "", f"error: {owner} index 3 is not in {span}\n")


class TestProduct:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "product", "--type", "A2", "--u", "s1", "--v", "s1")
        assert code == 0
        assert "s2s1" in out and "q0" in out and "q1" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "product", "--type", "A2", "--u", "s1", "--v", "s1s2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        from qaff.quantum import quantum_aff

        ring = quantum_aff("A", 2)
        direct = ring.star(
            ring.basis(ring.FW.parse("s1")), ring.basis(ring.FW.parse("s1s2"))
        )
        assert payload["terms"] == direct.to_json_obj()

    def test_latex(self, capsys):
        code, out, _ = run(
            capsys,
            "product", "--type", "A2", "--u", "s2", "--v", "s2",
            "--format", "latex",
        )
        assert code == 0
        assert "\\sigma" in out

    def test_non_reduced_words_accepted(self, capsys):
        code, out, _ = run(
            capsys, "product", "--type", "A2", "--u", "s1s1s1", "--v", "e"
        )
        assert code == 0
        assert "sigma[s1]" in out or "s1" in out


class TestTable:
    def test_csv_has_36_entries(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "A2", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 37  # header + full ordered table

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "A1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["entries"]) == 4

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "A1", "--format", "latex")
        assert code == 0
        assert "\\begin" in out

    def test_cap_refuses_before_enumerating(self, capsys):
        # |W(A9)| = 10!; must bail out instantly, not build the group first
        start = time.monotonic()
        code, _, err = run(capsys, "table", "--type", "A9", "--cap", "100")
        assert code == 2
        assert "3628800" in err and "cap" in err
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("label", ["A100", "B100", "C100", "D100", "A2000"])
    def test_cap_refuses_large_ranks_without_the_root_system(self, capsys, label):
        # A-D have unbounded rank: |W| is read in closed form, never from their roots;
        # |W(A2000)| has more digits than an int may be printed with
        built = build_root_system.cache_info().misses
        start = time.monotonic()
        code, _, err = run(capsys, "table", "--type", label)
        assert code == 2
        assert "exceeds the table cap 48" in err and err.count("error:") == 1, err
        assert build_root_system.cache_info().misses == built
        assert time.monotonic() - start < 2.0

    def test_cap_refuses_a_rank_in_the_millions_at_once(self, capsys):
        # computing (10^6 + 1)! alone took 7 s; |W| >= 2^rank is past the cap already
        start = time.monotonic()
        code, out, err = run(capsys, "table", "--type", "A1000000")
        assert code == 2 and out == ""
        assert err == f"error: |W| >= 10^{10**6 * 30102 // 100000} exceeds the table cap 48\n"
        assert time.monotonic() - start < 0.5

    def test_cap_reads_two_to_the_rank_only_past_the_print_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least the interpreter allows
        try:
            # 10^662 <= 2^2200 has more than 640 digits: |W| itself is not computed
            with pytest.raises(ValueError, match=r"^\|W\| >= 10\^662 exceeds the table cap 48$"):
                cli.check_table_cap("A", 2200, 48)
            # 10^632 <= 2^2100 may be printed, so the order is read and named as before
            k = (math.factorial(2101).bit_length() - 1) * 30102 // 100000
            with pytest.raises(ValueError, match=rf"^\|W\| >= 10\^{k} exceeds the table cap 48$"):
                cli.check_table_cap("A", 2100, 48)
        finally:
            sys.set_int_max_str_digits(limit)


class TestQSharp:
    def test_a1_works_on_basis(self, capsys):
        code, out, _ = run(capsys, "qsharp", "--type", "A1", "--u", "s0", "--v", "s0")
        assert code == 0
        assert "q0" in out and "s1s0" in out

    def test_outside_span_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "qsharp", "--type", "A2", "--u", "s1s2", "--v", "s1"
        )
        assert code == 2
        assert "outside the subring" in err


class TestRelations:
    def test_verify_ok(self, capsys):
        code, out, _ = run(capsys, "relations", "--type", "A3", "--verify")
        assert code == 0
        assert out.count("Phi(H") == 3
        assert "FAIL" not in out

    def test_partial_type_listing(self, capsys):
        code, out, _ = run(capsys, "relations", "--type", "G2")
        assert code == 0
        assert "H" in out


class TestPresent:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "present", "--type", "B2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["status"] == "full"
        assert len(payload["relations"]) == 2

    def test_c2_has_the_b2_pair(self, capsys):
        code, out, _ = run(capsys, "present", "--type", "C2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "full" and "gap" not in payload
        assert [(e["name"], e["phi_zero"]) for e in payload["relations"]] == [
            ("H1", True), ("H2", True)]

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "present", "--type", "A2", "--format", "latex")
        assert code == 0
        assert "\\" in out

    def test_latex_builds_the_relation_set_once(self, capsys, monkeypatch):
        calls = []
        build = toda.relations_for

        def counted(letter, rank):
            calls.append((letter, rank))
            return build(letter, rank)

        monkeypatch.setattr(toda, "relations_for", counted)
        code, _, _ = run(capsys, "present", "--type", "A3", "--format", "latex")
        assert code == 0
        assert calls == [("A", 3)]

    def test_partial_gap_text(self, capsys):
        code, out, _ = run(capsys, "present", "--type", "C3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "partial"
        assert "quadratic" in payload["gap"]


class TestEveryRelationThroughPhi:
    """``present`` and the ``toda`` and ``quadratic`` suites read every answer,
    the classical part included, off one evaluation of Phi."""

    @pytest.fixture(autouse=True)
    def no_divisor_monomials(self, monkeypatch):
        def refused(self, mono):
            raise RuntimeError("FiniteSchubert.monomial_class called")

        monkeypatch.setattr(FiniteSchubert, "monomial_class", refused)

    @pytest.mark.parametrize("typ", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
    def test_present(self, capsys, typ):
        code, out, _ = run(capsys, "present", "--type", typ)
        assert code == 0
        rels = json.loads(out)["relations"]
        assert rels and all(e["phi_zero"] and e["classical_invariant"] for e in rels)

    @pytest.mark.parametrize("typ", ["A2", "B2", "G2", "C3"])
    def test_verify(self, capsys, typ):
        code, out, _ = run(capsys, "verify", "--type", typ, "--suite", "toda",
                           "--suite", "quadratic")
        assert code == 0
        assert "  ok   quadratic relation\n" in out and "FAIL" not in out


class TestJsonTypeIsCanonical:
    CALLS = {
        "product": ["--u", "s1", "--v", "s2"],
        "lambda": ["--i", "1", "--w", "s1"],
        "qsharp": ["--u", "s1", "--v", "s2"],
        "table": [],
        "chevalley-roots": [],
        "curve-nbhd": ["--u", "e", "--d", "1,1,1"],
        "gw": ["--i", "1", "--u", "s1", "--w", "e", "--d", "0,1,0"],
    }

    @pytest.mark.parametrize("command", list(CALLS))
    @pytest.mark.parametrize("typ", [" a2", "a02", "A2"])
    def test_type(self, capsys, command, typ):
        code, out, _ = run(capsys, command, "--type", typ, *self.CALLS[command],
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["type"] == "A2"


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--type", "A1", "--suite", "commutativity"
        )
        assert code == 0
        assert "expected-mod-q^c" in out
        assert "0 failed" in out

    def test_multiple_suites(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--type", "A2",
            "--suite", "quadratic", "--suite", "chevalley-roots",
        )
        assert code == 0
        assert out.count("suite ") == 2

    @pytest.mark.parametrize("typ", ["B3", "C3"])
    def test_intertwining_on_rank_three(self, capsys, typ):
        # pulls back w0, whose length exceeds the default truncation
        code, out, _ = run(capsys, "verify", "--type", typ, "--suite", "intertwining")
        assert code == 0
        assert "1 passed, 0 failed" in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--type", "A1", "--suite", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_unknown_suite_is_refused_before_any_suite_runs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--type", "A1", "--suite", "quadratic", "--suite", "nope"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_full_run_small_type(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "A1")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("suite ")]
        assert len(lines) == 10


# every refusal, with the one message of the code that owns the rule: argparse for
# text that is not ints, the library for the rest
REFUSALS = {
    "d-not-ints": (["curve-nbhd", "--type", "A2", "--u", "e", "--d", "1,x,0"],
                   "qaff curve-nbhd: error: argument --d: invalid degree value: '1,x,0'"),
    "d-wrong-length": (["curve-nbhd", "--type", "A2", "--u", "e", "--d", "1,1,1,1"],
                       "error: a degree is 3 non-negative ints (d0..d2), got (1, 1, 1, 1)"),
    "d-negative": (["curve-nbhd", "--type", "A2", "--u", "e", "--d", "1,-1,0"],
                   "error: a degree is 3 non-negative ints (d0..d2), got (1, -1, 0)"),
    "gw-d-wrong-length": (["gw", "--type", "A2", "--i", "1", "--u", "s0", "--w", "e", "--d", "1,0"],
                          "error: a degree is 3 non-negative ints (d0..d2), got (1, 0)"),
    "lambda-i": (["lambda", "--type", "A2", "--i", "-1", "--w", "s1"],
                 "error: affine index -1 is not in 0..2"),
    "lambda-modified-i": (["lambda", "--type", "A2", "--i", "-1", "--w", "s1", "--modified"],
                          "error: finite index -1 is not in 1..2"),
    "gw-i": (["gw", "--type", "A2", "--i", "3", "--u", "s0", "--w", "e", "--d", "1,0,0"],
             "error: affine index 3 is not in 0..2"),
    "product-letter": (["product", "--type", "A2", "--u", "s1s3", "--v", "e"],
                       "error: generator index 3 is not in 1..2"),
    "lambda-letter": (["lambda", "--type", "A2", "--i", "0", "--w", "s0s3"],
                      "error: generator index 3 is not in 0..2"),
    "type": (["product", "--type", "H3", "--u", "e", "--v", "e"],
             "error: bad Lie type 'H3': expected a letter A..G and an int rank"),
    "type-rank-not-ascii-digits": (["chevalley-roots", "--type", "A1_0"],
                                   "error: bad Lie type 'A1_0': expected a letter A..G and an int rank"),
    "table-cap": (["table", "--type", "B4"],
                  "error: |W| = 384 exceeds the table cap 48"),
    # refused from the closed-form |W|: enumerating W(E8) would not finish
    "table-cap-before-W": (["table", "--type", "E8"],
                           "error: |W| = 696729600 exceeds the table cap 48"),
}


class TestErrors:
    @pytest.mark.parametrize("argv,message", REFUSALS.values(), ids=REFUSALS.keys())
    def test_refusal_exits_2_with_its_owners_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(message + "\n") and err.count("error:") == 1, err

    def test_assertion_in_a_handler_exits_4(self, capsys, monkeypatch):
        def broken(args, letter, rank):
            raise AssertionError("cover row lost its weight")

        monkeypatch.setattr(cli, "cmd_gw", broken)
        code, out, err = run(capsys, "gw", "--type", "A2", "--i", "1", "--u", "s0", "--w", "e",
                             "--d", "1,0,0")
        assert (code, out, err) == (4, "", "internal error: cover row lost its weight\n")

    def test_bad_type_is_usage_error(self, capsys):
        code, _, err = run(capsys, "chevalley-roots", "--type", "Z9")
        assert code == 2
        assert "error" in err

    def test_bad_element(self, capsys):
        code, _, err = run(
            capsys, "product", "--type", "A2", "--u", "s9", "--v", "s1"
        )
        assert code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["lambda", "--type", "A1", "--i", "1", "--w", "s0", "--trunc", "-3"],
        ["qsharp", "--type", "A1", "--u", "s0", "--v", "s1", "--trunc", "-1"],
        ["curve-nbhd", "--type", "A2", "--u", "e", "--d", "1,1,1", "--format", "dot",
         "--graph-l", "-1"],
        ["table", "--type", "A2", "--cap", "-1"],
    ])
    def test_negative_bound_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be non-negative, got {argv[-1]}" in err

    def test_zero_bound_is_accepted(self, capsys):
        code, _, err = run(
            capsys, "lambda", "--type", "A1", "--i", "1", "--w", "e", "--trunc", "0")
        assert code == 3
        assert "configured L = 0" in err
        code, out, _ = run(
            capsys, "curve-nbhd", "--type", "A1", "--u", "e", "--d", "0,0",
            "--format", "dot", "--graph-l", "0")
        assert code == 0
        assert "graph" in out

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(self, w):
            raise AssertionError("lift correction grew")

        # a fresh ring, so no memo entry from an earlier test skips the lift; star
        # lifts the shorter factor, so both have length 2 and one needs a correction
        monkeypatch.setattr(cli, "quantum_aff", lambda letter, rank: QuantumAff(letter, rank))
        monkeypatch.setattr(QuantumAff, "_lift_correction", broken)
        code, out, err = run(capsys, "product", "--type", "A2", "--u", "s1s2", "--v", "s2s1")
        assert code == 4
        assert out == ""
        assert "internal error: lift correction grew" in err
        assert "Traceback" not in err

    def test_out_of_memory_is_an_internal_error(self, capsys, monkeypatch):
        def exhausted(args, letter, rank):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_product", exhausted)
        code, out, err = run(capsys, "product", "--type", "A2", "--u", "s1", "--v", "s2")
        assert code == 4
        assert out == ""
        assert err == "internal error: out of memory (product --type A2)\n"
        assert "Traceback" not in err


class TestAffineJsonRoundtrip:
    def test_lambda_json_reparses(self, capsys):
        code, out, _ = run(
            capsys,
            "lambda", "--type", "A1", "--i", "0", "--w", "s0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        from qaff.affine import affine_coh

        calc = affine_coh("A", 1, payload["trunc"])
        direct = calc.lambda_op(0, calc.basis(calc.W.parse("s0")))
        assert payload["terms"] == direct.to_json_obj()
