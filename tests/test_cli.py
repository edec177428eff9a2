import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from afcurves import af_invariant, contfrac, elliptic, exact_linalg, shell, zeta
from afcurves.cli import main

BUNDLED = str(Path(__file__).resolve().parent.parent / "data" / "cm_corpus.json")
SRC = Path(__file__).resolve().parent.parent / "src"
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}  # Python's stdout is then ASCII


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


def run_child(*argv, **env):
    """`python -m afcurves *argv` in a fresh interpreter, `env` added to the
    environment; the stream encoding comes from the locale alone."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "afcurves", *argv],
        env={**base, "PYTHONPATH": path, **env}, capture_output=True, check=False,
    )


def error_report(fmt, name, message):
    """The stderr of a refusal of type `name` in the given format."""
    if fmt == "text":
        return f"error: {name}: {message}\n"
    return json.dumps({"error": name, "message": message}, sort_keys=True, indent=2) + "\n"


def unprintable_error(fmt):
    """The stderr of a command whose output holds an integer over the
    PRINTABLE_DIGITS that int-to-str conversion prints."""
    message = f"the output has integers over {shell.PRINTABLE_DIGITS} digits"
    return error_report(fmt, "BudgetExceeded", message)


def bits_text(n):
    """How a refusal message names an integer past the digit limit."""
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


class TestSnfCommand:
    def test_reduction(self, capsys):
        code, payload, _ = run_json(capsys, "snf", "4,2;2,0")
        assert code == 0
        assert payload["diagonal"] == [2, 2]
        assert payload["verified"] is True

    def test_identity(self, capsys):
        code, payload, _ = run_json(capsys, "snf", "1,0;0,1")
        assert code == 0
        assert payload["diagonal"] == [1, 1]

    def test_divisor_chain(self, capsys):
        code, payload, _ = run_json(capsys, "snf", "6,2;2,2")
        assert payload["diagonal"] == [2, 4]

    def test_parse_error_has_position(self, capsys):
        code, out, err = run_cli(capsys, "snf", "1,x;2,3")
        assert code == 1
        assert "row 1, column 2" in err

    def test_unprintable_transforms_are_the_packages_refusal(self, capsys, wall_bound):
        # the seeded dense 48 x 48 matrix: P and Q reach ~17,700 bits, past the
        # 4,300 digits int-to-str conversion prints; the error line must be
        # BudgetExceeded, not the interpreter's own ValueError
        rng = random.Random(1)
        text = ";".join(
            ",".join(str(rng.randint(-50, 50)) for _ in range(48)) for _ in range(48)
        )
        with wall_bound(60):
            code, out, err = run_cli(capsys, "snf", text)
        assert (code, out, err) == (1, "", unprintable_error("text"))

    def test_printable_cap_is_exact(self, capsys):
        # a 1 x 1 matrix prints as its own diagonal entry, so 4,300 nines
        # print; diag(a, a + 1) with coprime 4,300-digit a has d_2 = a (a + 1),
        # near 8,600 digits, though every entry of P and Q prints
        nines = "9" * shell.PRINTABLE_DIGITS
        code, payload, _ = run_json(capsys, "snf", nines)
        assert code == 0 and payload["diagonal"] == [int(nines)]
        a = 10 ** (shell.PRINTABLE_DIGITS - 1)
        code, out, err = run_cli(capsys, "snf", f"{a},0;0,{a + 1}")
        assert (code, out, err) == (1, "", unprintable_error("text"))


class TestAbelianizeCommand:
    def test_bowen_franks_case(self, capsys):
        code, payload, _ = run_json(
            capsys, "abelianize", "5,2;2,1", "--poly", "-1,1"
        )
        assert code == 0
        assert payload["group"] == {"torsion": [2, 2], "free_rank": 0}

    def test_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "abelianize", "2,1;1,1", "--poly", "-1,1")
        assert code == 0
        assert "trivial" in out

    def test_x_plus_one(self, capsys):
        code, payload, _ = run_json(
            capsys, "abelianize", "5,2;2,1", "--poly", "1,1"
        )
        assert payload["group"] == {"torsion": [2, 4], "free_rank": 0}

    def test_bad_constant_term(self, capsys):
        code, out, err = run_cli(capsys, "abelianize", "5,2;2,1", "--poly", "0,1")
        assert code == 1
        assert "BadConstantTerm" in err

    def test_not_unimodular(self, capsys):
        code, out, err = run_cli(capsys, "abelianize", "2,2;1,1", "--poly", "-1,1")
        assert code == 1
        assert "NotUnimodular" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unprintable_group_is_the_packages_refusal(self, capsys, fmt):
        # p(A) = A^2 - A - I has ~6,000-digit entries, so the group does not print
        big = 10**3000
        code, out, err = run_cli(
            capsys, "abelianize", f"{big},1;{big - 1},1", "--poly=-1,-1,1", "--format", fmt
        )
        assert (code, out, err) == (1, "", unprintable_error(fmt))


class TestBowenFranksCommand:
    def test_standard(self, capsys):
        code, payload, _ = run_json(capsys, "bowen-franks", "5,2;2,1")
        assert code == 0
        assert payload["group"] == {"torsion": [2, 2], "free_rank": 0}
        assert payload["order"] == 4
        assert payload["det_a_minus_i"] == -4


class TestProbeCommand:
    def test_report_fields(self, capsys):
        code, payload, _ = run_json(
            capsys, "probe", "5,2;2,1", "--poly", "-1,1", "--trials", "25"
        )
        assert code == 0
        assert payload["matrix"] == "5,2;2,1"
        assert payload["polynomial"] == "-1,1"
        assert payload["trials"] == 25
        assert payload["failures"] == 0
        assert payload["group"] == {"torsion": [2, 2], "free_rank": 0}
        assert payload["seed"] == 1729  # default seed is printed

    def test_byte_stable(self, capsys):
        _, out1, _ = run_cli(
            capsys, "probe", "5,2;2,1", "--poly", "-1,1", "--format", "json"
        )
        _, out2, _ = run_cli(
            capsys, "probe", "5,2;2,1", "--poly", "-1,1", "--format", "json"
        )
        assert out1 == out2

    def test_seed_is_a_probe_option_only(self, capsys):
        code, payload, _ = run_json(
            capsys, "probe", "5,2;2,1", "--poly", "-1,1", "--trials", "5", "--seed", "3"
        )
        assert code == 0 and payload["seed"] == 3
        with pytest.raises(SystemExit) as exc:
            main(["snf", "--seed", "3", "4,2;2,0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert "afcurves: error: unrecognized arguments: --seed 4,2;2,0" in err

    def test_trials_over_the_cap_is_one_error_line(self, capsys, wall_bound):
        with wall_bound(2):
            code, out, err = run_cli(
                capsys, "probe", "5,2;2,1", "--poly", "-1,1", "--trials", "4097"
            )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: BudgetExceeded: ")


class TestCfCommand:
    def test_silver_with_matrix(self, capsys):
        code, payload, _ = run_json(capsys, "cf", "(1+sqrt(2))/1", "--matrix")
        assert code == 0
        assert payload["preperiod"] == []
        assert payload["period"] == [2]
        assert payload["matrix"] == "5,2;2,1"

    def test_golden(self, capsys):
        code, payload, _ = run_json(capsys, "cf", "(1+sqrt(5))/2")
        assert payload["period"] == [1]

    def test_perfect_square(self, capsys):
        code, out, err = run_cli(capsys, "cf", "sqrt(4)")
        assert code == 1
        assert "NotIrrational" in err

    def test_zero_denominator_is_one_value_error_line(self, capsys):
        assert run_cli(capsys, "cf", "(1+sqrt(2))/0") == (
            1, "", "error: ValueError: zero denominator in '(1+sqrt(2))/0'\n"
        )

    def test_over_the_state_cap_is_one_error_line(self, capsys, wall_bound):
        with wall_bound(2):
            code, out, err = run_cli(capsys, "cf", "sqrt(1000000000039)")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: BudgetExceeded: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unprintable_matrix_is_the_packages_refusal(self, capsys, wall_bound, fmt):
        # its entries have 21,199 bits, within the bits cap but over 4,300 digits
        with wall_bound(5):
            code, out, err = run_cli(
                capsys, "cf", "sqrt(1000000007)", "--matrix", "--format", fmt
            )
        assert (code, out, err) == (1, "", unprintable_error(fmt))

    def test_over_the_bits_cap_is_one_error_line(self, capsys, wall_bound):
        # a 124,134-term period: refused before its 212,308-bit product
        with wall_bound(2):
            code, out, err = run_cli(capsys, "cf", "sqrt(10000000019)", "--matrix")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: BudgetExceeded: ")


class TestTorsionCommand:
    def test_lambda_spec(self, capsys):
        code, payload, _ = run_json(capsys, "torsion", "lambda=-1")
        assert code == 0
        assert payload["group"] == {"torsion": [2, 2], "free_rank": 0}
        assert payload["includes_infinity"] is True
        assert payload["points"] == [["-1", "0"], ["0", "0"], ["1", "0"]]
        assert payload["j"] == "1728"

    def test_ab_spec(self, capsys):
        code, payload, _ = run_json(capsys, "torsion", "a=-4,b=0")
        assert payload["group"] == {"torsion": [2, 2], "free_rank": 0}

    def test_singular(self, capsys):
        code, out, err = run_cli(capsys, "torsion", "lambda=1")
        assert code == 1
        assert "SingularLambda" in err

    @pytest.mark.parametrize(
        "spec", ["a=-1000000000000,b=0", "lambda=1/100000000000000000000"]
    )
    def test_over_budget_is_one_error_line(self, capsys, wall_bound, spec):
        with wall_bound(5):
            code, out, err = run_cli(capsys, "torsion", spec)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: BudgetExceeded: ")


class TestJmapCommand:
    def test_lambda_branch(self, capsys):
        code, payload, _ = run_json(capsys, "jmap", "lambda=-1")
        assert code == 0
        assert payload["j"] == "1728"
        assert payload["orbit"] == ["-1", "1/2", "2"]

    def test_j_branch(self, capsys):
        code, payload, _ = run_json(capsys, "jmap", "j=1728")
        assert payload["lambdas"] == ["-1", "1/2", "2"]

    def test_j_zero(self, capsys):
        code, payload, _ = run_json(capsys, "jmap", "j=0")
        assert payload["lambdas"] == []

    def test_tiny_j(self, capsys, wall_bound):
        with wall_bound(5):
            code, payload, _ = run_json(capsys, "jmap", "j=1/10000000000")
        assert code == 0
        assert payload["lambdas"] == []


class TestZetaCommand:
    def test_two_primes(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "zeta", "lambda=-1", "5,2;2,1", "--primes", "5,3", "--order", "3",
        )
        assert code == 0
        assert [r["prime"] for r in payload] == [3, 5]  # ascending
        by_prime = {r["prime"]: r for r in payload}
        assert by_prime[3]["a_p"] == 0
        assert by_prime[5]["a_p"] == -2
        assert by_prime[5]["curve_counts"][0] == 8
        assert by_prime[5]["operator_counts"][0] == 6720
        assert by_prime[5]["match_flags"] == [False, False, False]
        assert by_prime[5]["curve_factor"] == {
            "numerator": [1, 2, 5],
            "denominator": [1, -6, 5],
        }
        assert by_prime[5]["operator_params"] == {
            "trace_power": 6726,
            "branch": "good",
            "alpha": None,
        }

    def test_prime_two_flagged(self, capsys):
        code, payload, _ = run_json(
            capsys, "zeta", "lambda=-1", "5,2;2,1", "--primes", "2", "--order", "2"
        )
        assert code == 0
        assert payload[0]["prime"] == 2
        assert payload[0]["error"] == "UnsupportedCharacteristic"

    def test_order_zero(self, capsys):
        code, payload, _ = run_json(
            capsys, "zeta", "lambda=-1", "5,2;2,1", "--primes", "3", "--order", "0"
        )
        assert payload[0]["curve_counts"] == []
        assert payload[0]["operator_counts"] == []

    def test_bad_reduction_flagged_per_prime(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "zeta", "a=-1,b=1", "5,2;2,1", "--primes", "23,3", "--order", "2",
        )
        assert code == 0
        by_prime = {r["prime"]: r for r in payload}
        assert by_prime[23]["error"] == "BadReduction"
        assert "error" not in by_prime[3]

    def test_non_prime_flagged(self, capsys):
        code, payload, _ = run_json(
            capsys, "zeta", "lambda=-1", "5,2;2,1", "--primes", "9", "--order", "1"
        )
        assert code == 0
        assert payload[0]["error"] == "ValueError"

    def test_bad_prime_token_has_position(self, capsys):
        code, out, err = run_cli(
            capsys, "zeta", "lambda=-1", "5,2;2,1", "--primes", "3,x"
        )
        assert (code, out) == (1, "")
        assert err == "error: MatrixParseError: bad prime 'x' at position 2\n"

    def test_bad_branch_odd_prime_needs_alpha(self, capsys):
        # tr([[3,2],[1,1]])^2 - 4 = 12: p = 3 takes the degenerate branch
        code, payload, _ = run_json(
            capsys, "zeta", "lambda=-1", "3,2;1,1", "--primes", "3", "--order", "2"
        )
        assert payload[0]["error"] == "AlphaRequired"
        code, payload, _ = run_json(
            capsys,
            "zeta", "lambda=-1", "3,2;1,1",
            "--primes", "3", "--order", "2", "--alpha", "-1",
        )
        assert payload[0]["operator_params"]["branch"] == "bad"
        assert payload[0]["operator_params"]["alpha"] == -1
        assert payload[0]["operator_counts"] == [2, 0]

    def test_unprintable_row_is_refused_before_the_trace(self, capsys, wall_bound):
        # tr(A^p) at p = 10007 has ~7,700 digits, past the 4,300 that int-to-str
        # conversion prints; the row says so instead of computing it
        with wall_bound(2):
            code, payload, _ = run_json(
                capsys, "zeta", "lambda=-1", "5,2;2,1", "--primes", "10007"
            )
        assert code == 0
        (row,) = payload
        assert sorted(row) == ["error", "message", "prime"]
        assert (row["prime"], row["error"]) == (10007, "BudgetExceeded")

    def test_refused_prime_leaves_the_other_rows_alone(self, capsys):
        argv = ("zeta", "lambda=-1", "5,2;2,1", "--format", "json", "--primes")
        _, alone, _ = run_cli(capsys, *argv, "31")
        _, both, _ = run_cli(capsys, *argv, "31,10007")
        assert both.startswith(alone.removesuffix("\n]\n") + ",\n")
        assert json.loads(both)[1]["error"] == "BudgetExceeded"

    @pytest.mark.parametrize("primes", ["2", "4", "3,5"])
    def test_negative_order_fails_the_command(self, capsys, primes):
        # whatever the primes: a row-level refusal must not mask a bad --order
        argv = ("zeta", "lambda=-1", "5,2;2,1", "--primes", primes, "--order", "-1")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: ValueError: order must be >= 0\n"

    def test_floor_branch_of_the_bits_bound(self, capsys, wall_bound):
        # ||A|| = 7, so at order 3 the floor is 3 * 2p, the operator side's own;
        # the first prime past 2^19 takes it, and forming 7^p (~184 KB) would
        # show in the traced peak
        a = af_invariant.validate_incidence(exact_linalg.parse_matrix("5,2;2,1"))
        p = next(q for q in range(2**19 + 1, 2**20) if zeta.is_prime(q))
        tracemalloc.start()
        try:
            bits = zeta.local_bits_bound(a, p, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (p, bits) == (524_309, 6 * p)
        assert peak < 2**16
        with wall_bound(2):
            code, payload, _ = run_json(
                capsys, "zeta", "lambda=-1", "5,2;2,1", "--primes", str(p)
            )
        assert code == 0
        assert payload == [{
            "prime": p, "error": "BudgetExceeded",
            "message": f"the row at p = {p} may print integers over 4300 digits",
        }]

    def test_prime_past_the_miller_rabin_bound_is_a_row(self, capsys):
        argv = ("zeta", "lambda=-1", "5,2;2,1", "--format", "json", "--primes")
        _, alone, _ = run_cli(capsys, *argv, "3")
        big = zeta.MILLER_RABIN_BOUND
        code, both, _ = run_cli(capsys, *argv, f"3,{big}")
        assert code == 0
        assert both.startswith(alone.removesuffix("\n]\n") + ",\n")
        with pytest.raises(exact_linalg.BudgetExceeded) as exc:
            zeta.is_prime(big)
        assert json.loads(both)[1] == {
            "prime": big, "error": "BudgetExceeded", "message": str(exc.value)
        }


# past the 4,300 digits the interpreter's int() reads from text
OVERLONG = "9" * 5000


class TestIntegersPastTheDigitLimit:
    """An integer too long for int() is the parser's own typed refusal, one
    error line, not the interpreter's bare ValueError; and a refusal whose
    message names a computed integer too long for str() names its bits."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,error",
        [
            (["cf", f"sqrt({OVERLONG})"], "SurdParseError"),
            (["cf", f"({OVERLONG}+sqrt(2))/1"], "SurdParseError"),
            (["torsion", f"a={OVERLONG},b=1"], "CurveSpecError"),
            (["torsion", f"a=1,b=-{OVERLONG}"], "CurveSpecError"),
            (["zeta", f"a={OVERLONG},b=1", "2,1;1,1", "--primes", "5"], "CurveSpecError"),
            (["zeta", "a=-1,b=0", f"{OVERLONG},1;1,1", "--primes", "5"], "MatrixParseError"),
        ],
        ids=["cf_short", "cf_full", "torsion_a", "torsion_b", "zeta_curve", "zeta_matrix"],
    )
    def test_one_typed_error_line(self, capsys, argv, error, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (1, "")
        if fmt == "text":
            assert err.count("\n") == 1 and err.startswith(f"error: {error}: ")
        else:
            assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", [["abelianize", "--poly=-1,1"], ["bowen-franks"]],
                             ids=["abelianize", "bowen_franks"])
    def test_a_long_determinant_is_named_by_its_bits(self, capsys, command, fmt):
        big = 10**3000  # det = big^2 - 1 has 6,000 digits
        argv = [command[0], f"{big},1;1,{big}", *command[1:], "--format", fmt]
        message = f"|det| must be 1, got det = {bits_text(big * big - 1)}"
        assert run_cli(capsys, *argv) == (1, "", error_report(fmt, "NotUnimodular", message))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_long_discriminant_is_named_by_its_bits_in_its_row(self, capsys, fmt):
        a = 3 * 10**1500
        argv = ["zeta", f"a={a},b=3", "5,2;2,1", "--primes", "3", "--format", fmt]
        message = f"p = 3 divides the discriminant {bits_text(-16 * (4 * a**3 + 27 * 9))}"
        if fmt == "text":
            out = f"- error: BadReduction\n  message: {message}\n  prime: 3\n"
        else:
            row = {"error": "BadReduction", "message": message, "prime": 3}
            out = json.dumps([row], sort_keys=True, indent=2) + "\n"
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_a_long_curve_is_named_by_its_bits(self, capsys, wall_bound):
        lam = 10**4000  # its Legendre curve's a and b pass the digit limit
        curve = elliptic.legendre_model(lam).curve
        message = (
            f"Nagell-Lutz window of y^2 = x^3 + {bits_text(curve.a)}*x + "
            f"{bits_text(curve.b)} over {elliptic._STEP_CAP} values"
        )
        with wall_bound(10):
            result = run_cli(capsys, "torsion", f"lambda={lam}")
        assert result == (1, "", error_report("text", "BudgetExceeded", message))

    def test_a_long_surd_is_named_by_its_bits(self, capsys, monkeypatch):
        # q does not divide d - p^2, so the surd is scaled to d q^2 (4,500
        # digits) over q^2; the expansion is cut at 8 states to reach the cap
        monkeypatch.setattr(contfrac, "_STATE_CAP", 8)
        p, d, q = 1, 10**2500 + 1, 10**1000 + 3
        theta = f"({p * q}+sqrt({bits_text(d * q * q)}))/{q * q}"
        message = f"{theta} repeats no state in its first 8"
        result = run_cli(capsys, "cf", f"({p}+sqrt({d}))/{q}")
        assert result == (1, "", error_report("text", "BudgetExceeded", message))


class TestTheDigitLimitIsThePackages:
    """main holds int() and str() to PRINTABLE_DIGITS for the whole call,
    whatever PYTHONINTMAXSTRDIGITS or an in-process caller set, and gives the
    caller's setting back however the call ends."""

    ADMITTED = ["cf", "sqrt(5000011)", "--matrix"]  # largest entry: 2,796 digits
    REFUSED = ["cf", "sqrt(1000000007)", "--matrix"]  # 21,199 bits, 6,382 digits

    def test_a_lower_environment_limit_refuses_nothing_more(self):
        low = run_child(*self.ADMITTED, PYTHONINTMAXSTRDIGITS="640")
        default = run_child(
            *self.ADMITTED, PYTHONINTMAXSTRDIGITS=str(sys.int_info.default_max_str_digits)
        )
        assert (low.returncode, low.stderr, default.returncode) == (0, b"", 0)
        assert low.stdout == default.stdout

    def test_no_environment_limit_admits_nothing_more(self):
        done = run_child(*self.REFUSED, PYTHONINTMAXSTRDIGITS="0")
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.decode("ascii") == unprintable_error("text")

    @pytest.mark.parametrize("caller", [640, 0, sys.int_info.default_max_str_digits])
    @pytest.mark.parametrize("argv,outcome", [(ADMITTED, 0), (REFUSED, 1), (["snf"], SystemExit)],
                             ids=["success", "refusal", "argparse_exit"])
    def test_the_callers_limit_is_restored(self, capsys, caller, argv, outcome):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(caller)
        try:
            if outcome is SystemExit:
                with pytest.raises(SystemExit):
                    main(list(argv))
            else:
                assert main(list(argv)) == outcome
            assert sys.get_int_max_str_digits() == caller
        finally:
            sys.set_int_max_str_digits(saved)
        capsys.readouterr()


class TestConjectureCommand:
    def test_bundled_corpus(self, capsys):
        code, payload, _ = run_json(capsys, "conjecture", BUNDLED)
        assert code == 0
        (report,) = payload
        assert report["lambda"] == "-1"
        assert report["j"] == "1728"
        assert report["theta"] == "(1+sqrt(2))/1"
        assert report["incidence"] == "5,2;2,1"
        assert report["computed_torsion"] == {"torsion": [2, 2], "free_rank": 0}
        assert report["expected_match"] is True
        assert report["invariants"][0]["verdict"] == "match"

    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("AFCURVES_CORPUS", BUNDLED)
        code, payload, _ = run_json(capsys, "conjecture")
        assert code == 0
        assert payload[0]["expected_match"] is True

    def test_no_corpus_anywhere(self, capsys, monkeypatch):
        monkeypatch.delenv("AFCURVES_CORPUS", raising=False)
        code, out, err = run_cli(capsys, "conjecture")
        assert code == 1

    def test_missing_corpus_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "conjecture", str(tmp_path / "absent.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: CorpusError: ")
        assert err.count("\n") == 1

    def test_empty_corpus(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, payload, _ = run_json(capsys, "conjecture", str(path))
        assert code == 0
        assert payload == []

    def test_ab_rows_and_failed_runs(self, capsys, tmp_path):
        # an a, b curve spec is echoed as a and b, and a row whose run fails
        # keeps its specs beside the error, in JSON and in text alike
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([
            {"label": "direct", "a": -4, "b": 0, "matrix": "5,2;2,1",
             "polynomials": ["-1,1"]},
            {"label": "singular", "a": 0, "b": 0, "matrix": "5,2;2,1",
             "polynomials": ["-1,1"]},
            {"label": "det 2", "lambda": "2", "matrix": "3,1;1,1",
             "polynomials": ["-1,1"]},
        ]))
        code, payload, err = run_json(capsys, "conjecture", str(path))
        z2z2 = {"free_rank": 0, "torsion": [2, 2]}
        assert (code, err) == (0, "")
        assert payload == [
            {"a": -4, "b": 0, "computed_torsion": z2z2, "curve": "a=-4,b=0",
             "incidence": "5,2;2,1", "j": "1728", "label": "direct",
             "matrix": "5,2;2,1",
             "invariants": [
                 {"group": z2z2, "polynomial": "-1,1", "verdict": "match"}
             ]},
            {"a": 0, "b": 0, "label": "singular", "matrix": "5,2;2,1",
             "error": "SingularCurve: discriminant vanishes for a=0, b=0"},
            {"error": "NotUnimodular: |det| must be 1, got det = 2",
             "label": "det 2", "lambda": "2", "matrix": "3,1;1,1"},
        ]
        assert run_cli(capsys, "conjecture", str(path)) == (0, (
            "- a: -4\n"
            "  b: 0\n"
            "  computed_torsion: Z_2 + Z_2\n"
            "  curve: y^2 = x^3 + -4*x + 0\n"
            "  incidence: 5,2;2,1\n"
            "  invariants:\n"
            "    - group: Z_2 + Z_2\n"
            "      polynomial: x - 1\n"
            "      verdict: match\n"
            "  j: 1728\n"
            "  label: direct\n"
            "  matrix: 5,2;2,1\n"
            "- a: 0\n"
            "  b: 0\n"
            "  error: SingularCurve: discriminant vanishes for a=0, b=0\n"
            "  label: singular\n"
            "  matrix: 5,2;2,1\n"
            "- error: NotUnimodular: |det| must be 1, got det = 2\n"
            "  label: det 2\n"
            "  lambda: 2\n"
            "  matrix: 3,1;1,1\n"
        ), "")

    def test_expected_mismatch_fails_run(self, capsys, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "label": "wrong expectation",
                        "lambda": "-1",
                        "matrix": "5,2;2,1",
                        "polynomials": ["-1,1"],
                        "expected_torsion": {"torsion": [4], "free_rank": 0},
                    }
                ]
            )
        )
        code, payload, _ = run_json(capsys, "conjecture", str(path))
        assert code == 1
        assert payload[0]["expected_match"] is False

    def test_conjecture_verdicts_do_not_affect_exit(self, capsys, tmp_path):
        # a Bowen-Franks mismatch is a finding, not a failure, as long as no
        # expected_torsion contradicts the computed group
        path = tmp_path / "finding.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "label": "mismatching pair",
                        "lambda": "-1",
                        "matrix": "2,1;1,1",
                        "polynomials": ["-1,1"],
                    }
                ]
            )
        )
        code, payload, _ = run_json(capsys, "conjecture", str(path))
        assert code == 0
        assert payload[0]["invariants"][0]["verdict"] == "mismatch"

    def test_entry_error_collected_and_run_continues(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "label": "p(0)=0",
                        "lambda": "-1",
                        "matrix": "5,2;2,1",
                        "polynomials": ["0,1"],
                    },
                    {
                        "label": "good",
                        "lambda": "-1",
                        "matrix": "5,2;2,1",
                        "polynomials": ["-1,1"],
                    },
                ]
            )
        )
        code, payload, _ = run_json(capsys, "conjecture", str(path))
        assert code == 0
        assert "error" in payload[0]
        assert payload[1]["invariants"][0]["verdict"] == "match"


class TestOneStdoutWrite:
    """main writes stdout once, after the command and its rendering succeed;
    what the stream's encoding cannot hold is backslash-escaped."""

    @pytest.fixture
    def cafe(self, tmp_path):
        row = {"label": "café λ", "lambda": "-1", "matrix": "5,2;2,1", "poly": "-1,1"}
        path = tmp_path / "corpus.json"
        path.write_bytes(json.dumps([row], ensure_ascii=False).encode("utf-8"))
        return str(path)

    def test_text_report_under_the_c_locale_is_whole(self, cafe):
        done = run_child("conjecture", cafe, **C_LOCALE)
        assert (done.returncode, done.stderr) == (0, b"")
        lines = done.stdout.decode("ascii").splitlines()
        assert len(lines) == 11 and "  label: caf\\xe9 \\u03bb" in lines
        utf8 = run_child("conjecture", cafe, PYTHONUTF8="1").stdout.decode("utf-8")
        assert done.stdout.decode("ascii") == utf8.replace("café λ", "caf\\xe9 \\u03bb")

    def test_json_report_is_the_same_bytes_under_the_c_locale(self, cafe):
        done = run_child("conjecture", cafe, "--format", "json", **C_LOCALE)
        assert (done.returncode, done.stderr) == (0, b"")
        utf8 = run_child("conjecture", cafe, "--format", "json", PYTHONUTF8="1")
        assert done.stdout == utf8.stdout

    def test_a_rendering_refusal_leaves_stdout_empty(self, capsys, monkeypatch):
        def refuse(value, text=False):
            raise ValueError("cannot render")

        monkeypatch.setattr(shell, "encode", refuse)
        assert run_cli(capsys, "snf", "4,2;2,0") == (
            1, "", "error: ValueError: cannot render\n"
        )


GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def test_json_outputs_are_byte_stable(capsys, tmp_path, monkeypatch):
    """Every golden argv reproduces its recorded JSON stdout, stderr and exit
    code, and in text mode (the same argv without `--format json`) its exit
    code, stdout and stderr.  `{root}` stands for the repository root and
    `{corpus}` for a file holding the case's inline `corpus` array."""
    monkeypatch.delenv("AFCURVES_CORPUS", raising=False)
    root = str(Path(__file__).resolve().parent.parent)
    corpus_path = tmp_path / "corpus.json"
    for case in json.loads(GOLDEN.read_text()):
        if "corpus" in case:
            corpus_path.write_text(json.dumps(case["corpus"]))
        argv = [
            tok.replace("{root}", root).replace("{corpus}", str(corpus_path))
            for tok in case["argv"]
        ]
        i = argv.index("--format")
        text_argv = argv[:i] + argv[i + 2 :]
        assert run_cli(capsys, *argv) == (
            case["code"], case["stdout"], case["stderr"]
        ), case["argv"]
        assert run_cli(capsys, *text_argv) == (
            case["text_code"], case["text_stdout"], case["text_stderr"]
        ), case["argv"]
