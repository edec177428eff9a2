"""Command-line frontend: what `python -m afcurves` and the `afcurves` script run.

Subcommands: snf, abelianize, bowen-franks, probe, cf, torsion, jmap, zeta,
conjecture.  Every command takes --format text|json and is deterministic for
fixed arguments and seed.  Each command returns one payload of domain objects
and its exit status and writes nothing; `encode` turns the payload into JSON
values, and text output is the sorted `key: value` rendering of the same
payload.  `main` alone writes stdout, once, after the command and its
rendering succeed; a refusal (always a ValueError) is one stderr report and
exit status 1.  For the whole call `main` holds the interpreter's int-to-str
digit limit at PRINTABLE_DIGITS, whatever the environment set, so int() reads
and str() writes integers of at most that many digits; the render turns a
longer one into BudgetExceeded.  JSON output is byte-stable (sorted keys,
rationals rendered p/q in lowest terms with positive denominator).  All
numeric I/O is exact: integers and p/q rationals only.

A call loads only what its command runs: this module imports exact_linalg
(the parsers and value types every command shares), each command imports
the modules it calls, and `encode` tests a value against another module's
class only once that module is loaded.  So `snf` loads neither the curve
modules nor `fractions`, `torsion` and `jmap` nothing from the AF layer, and
only `conjecture` loads the corpus reader and `csv`.  afcurves.cli is this
`main` with every module loaded up front.  `main` is run from
afcurves/__main__.py and the `afcurves` script only, not as `__main__` here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import exact_linalg

DEFAULT_SEED = 1729
CORPUS_ENV = "AFCURVES_CORPUS"
PRINTABLE_DIGITS = 4300  # the digit limit main sets, CPython's default
_PRINTABLE_BITS = (10**PRINTABLE_DIGITS).bit_length() - 1  # such ints always print


def encode(value, text: bool = False):
    """JSON-ready form of a payload: domain leaves become strings or small
    dicts, Records become dicts of their fields, tuples become lists.

    Rationals are `p/q` in lowest terms with positive denominator.  With
    text=True, polynomials, groups and curves take their readable forms
    (`x - 1`, `Z_2 + Z_2`, `y^2 = ...`) instead of the JSON encodings.
    """
    if value is None or isinstance(value, (int, str)):  # most leaves, kept as they are
        return value
    if isinstance(value, (_loaded("fractions", "Fraction"),
                          _loaded("afcurves.contfrac", "QuadraticIrrational"))):
        return str(value)
    if isinstance(value, exact_linalg.IntMatrix):
        return exact_linalg.format_matrix(value)
    if isinstance(value, exact_linalg.IntPolynomial):
        return str(value) if text else exact_linalg.format_poly(value)
    if isinstance(value, _loaded("afcurves.elliptic", "CurveQ")):
        return str(value) if text else f"a={value.a},b={value.b}"
    if text and isinstance(value, exact_linalg.AbelianGroup):
        return str(value)
    if isinstance(value, _loaded("afcurves.elliptic", "Point")):
        return [str(value.x), str(value.y)]
    if isinstance(value, exact_linalg.Record):  # e.g. AbelianGroup's two fields
        return {f: encode(getattr(value, f), text) for f in value._fields}
    if isinstance(value, dict):
        return {key: encode(item, text) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item, text) for item in value]
    return value


def _loaded(module: str, name: str):
    """The class `name` of `module` if that module is imported, else (), which
    no value is an instance of: a payload cannot hold an instance of a class
    whose module was never imported, so encode imports nothing to test one."""
    loaded = sys.modules.get(module)
    return () if loaded is None else getattr(loaded, name)


def _inline(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    return value if isinstance(value, str) else json.dumps(value)


def _text_lines(value, pad: str = ""):
    """Sorted `key: value` lines of an encoded payload.  Dicts and lists
    holding containers nest two spaces deeper; list items start with `- `."""
    if isinstance(value, dict):
        items = [(f"{key}:", value[key]) for key in sorted(value)]
    else:
        items = [("-", item) for item in value]
    for head, item in items:
        nested = isinstance(item, dict) or (
            isinstance(item, list) and any(isinstance(v, (dict, list)) for v in item)
        )
        if not nested:
            yield f"{pad}{head} {_inline(item)}"
        elif head == "-" and isinstance(item, dict):
            first, *rest = _text_lines(item, pad + "  ")
            yield f"{pad}- {first.lstrip()}"
            yield from rest
        else:
            yield f"{pad}{head}"
            yield from _text_lines(item, pad + "  ")


def _render(payload, fmt: str) -> str:
    """The whole stdout of a command; in text mode every line ends in a
    newline, so an empty payload renders as nothing.  An integer too long for
    int-to-str conversion makes it raise BudgetExceeded: the one rule for
    what the output may hold."""
    try:
        if fmt == "json":
            return json.dumps(encode(payload), sort_keys=True, indent=2) + "\n"
        return "".join(line + "\n" for line in _text_lines(encode(payload, text=True)))
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise exact_linalg.BudgetExceeded(
            f"the output has integers over {PRINTABLE_DIGITS} digits"
        ) from exc


def _emit_error(exc: Exception, fmt: str) -> int:
    name = type(exc).__name__
    if fmt == "json":
        error = {"error": name, "message": str(exc)}
        print(json.dumps(error, sort_keys=True, indent=2), file=sys.stderr)
    else:
        print(f"error: {name}: {exc}", file=sys.stderr)
    return 1


# --- subcommand implementations --------------------------------------------


def _cmd_snf(args) -> tuple:
    m = exact_linalg.parse_matrix(args.matrix)
    dec = exact_linalg.snf(m)
    return {
        "matrix": m,
        "diagonal": dec.d,
        "p_left": dec.p_left,
        "q_right": dec.q_right,
        "verified": True,  # snf raises unless the certificate verifies
    }, 0


def _cmd_abelianize(args) -> tuple:
    from . import af_invariant
    m = exact_linalg.parse_matrix(args.matrix)
    p = exact_linalg.parse_poly(args.poly)
    group = af_invariant.abelianize(af_invariant.validate_incidence(m), p)
    return {"matrix": m, "polynomial": p, "group": group}, 0


def _cmd_bowen_franks(args) -> tuple:
    from . import af_invariant
    m = exact_linalg.parse_matrix(args.matrix)
    group = af_invariant.bowen_franks(af_invariant.validate_incidence(m))
    det = exact_linalg.determinant(m - exact_linalg.IntMatrix.identity(m.n))
    return {"matrix": m, "group": group, "order": group.order(), "det_a_minus_i": det}, 0


def _cmd_probe(args) -> tuple:
    from . import af_invariant
    a = af_invariant.validate_incidence(exact_linalg.parse_matrix(args.matrix))
    p = exact_linalg.parse_poly(args.poly)
    report = af_invariant.invariance_probe(a, p, trials=args.trials, seed=args.seed)
    return report, 0 if report.failures == 0 else 1


def _cmd_cf(args) -> tuple:
    from . import contfrac
    theta = contfrac.parse_surd(args.surd)
    cf = contfrac.expand(theta)
    payload = {"surd": theta, "preperiod": cf.preperiod, "period": cf.period}
    if args.matrix:
        inc = contfrac.incidence_from_period(cf)
        payload["matrix"] = inc.m
        payload["positivity_power"] = inc.positivity_power
        payload["note"] = (
            "period taken from the earliest recurring state; cyclic rotations "
            "of the period give GL_2(Z)-similar matrices"
        )
    return payload, 0


def _cmd_torsion(args) -> tuple:
    from . import elliptic
    curve, model = elliptic.parse_curve_spec(args.curve)
    group, points = elliptic.torsion_subgroup(curve)
    payload = {
        "curve": curve,
        "j": curve.j_invariant(),
        "group": group,
        "points": [pt for pt in points if not pt.is_infinity],
        "includes_infinity": True,
    }
    if model is not None:
        payload["lambda"] = model.lam
        payload["model"] = {"u": model.u, "shift": model.shift}
    return payload, 0


def _cmd_jmap(args) -> tuple:
    from . import elliptic
    spec = args.spec.strip()
    if spec.startswith("lambda="):
        lam = elliptic.parse_spec_rational(spec, "lambda=")
        payload = {
            "lambda": lam,
            "j": elliptic.j_from_lambda(lam),
            "orbit": sorted(elliptic.lambda_orbit(lam)),
        }
    elif spec.startswith("j="):
        j = elliptic.parse_spec_rational(spec, "j=")
        payload = {"j": j, "lambdas": elliptic.rational_lambdas_from_j(j)}
    else:
        raise elliptic.CurveSpecError(
            f"cannot parse jmap spec {spec!r}; expected lambda=<rational> or j=<rational>"
        )
    return payload, 0


def _cmd_zeta(args) -> tuple:
    from . import af_invariant, elliptic, zeta
    curve, _model = elliptic.parse_curve_spec(args.curve)
    a = af_invariant.validate_incidence(exact_linalg.parse_matrix(args.matrix))
    primes = sorted(set(exact_linalg.parse_int_list(args.primes, "prime")))
    order = exact_linalg.exact_int_at_least(args.order, 0, "order")
    payload = []
    for p in primes:
        # With --order checked above and --alpha held to {-1, 0, 1} by the
        # parser, every ValueError here concerns p alone and becomes its row.
        try:
            if zeta.local_bits_bound(a, p, order) > _PRINTABLE_BITS:
                raise exact_linalg.BudgetExceeded(
                    f"the row at p = {p} may print integers over "
                    f"{PRINTABLE_DIGITS} digits"
                )
            payload.append(
                zeta.compare_local(curve, a, p, order, alpha=args.alpha)
            )
        except ValueError as exc:
            payload.append(
                {"prime": p, "error": type(exc).__name__, "message": str(exc)}
            )
    return payload, 0


def _conjecture_row(report) -> dict:
    """One corpus.ConjectureReport as a row of the conjecture payload."""
    from . import corpus
    entry = report.entry
    if isinstance(entry, corpus.InvalidEntry):
        return {"label": entry.label, "error": entry.error}
    row: dict = {"label": entry.label}
    if entry.lam is not None:
        row["lambda"] = entry.lam
    else:
        row["a"], row["b"] = entry.ab
    if entry.theta is not None:
        row["theta"] = entry.theta
    else:
        row["matrix"] = entry.matrix
    if report.error is not None:
        row["error"] = report.error
        return row
    row["j"] = report.j_invariant
    row["curve"] = report.curve
    row["incidence"] = report.incidence.m
    row["computed_torsion"] = report.computed_torsion
    if entry.expected_torsion is not None:
        row["expected_torsion"] = entry.expected_torsion
        row["expected_match"] = report.expected_match
    row["invariants"] = report.verdicts
    return row


def _cmd_conjecture(args) -> tuple:
    from . import corpus
    path = args.corpus or os.environ.get(CORPUS_ENV)
    if not path:
        raise corpus.CorpusError(
            f"no corpus file given and ${CORPUS_ENV} is not set"
        )
    reports = [corpus.run_entry(entry) for entry in corpus.load_corpus(path)]
    failed = any(r.expected_match is False for r in reports)
    return [_conjecture_row(r) for r in reports], 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="afcurves",
        description=(
            "Abelianized AF-algebra invariants, continued fractions, elliptic "
            "curve torsion, and local zeta comparisons, all in exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_snf = sub.add_parser("snf", parents=[common], help="Smith normal form")
    p_snf.add_argument("matrix", help="matrix text, e.g. '4,2;2,0'")
    p_snf.set_defaults(func=_cmd_snf)

    p_ab = sub.add_parser(
        "abelianize", parents=[common], help="Z^n / p(A) Z^n for an incidence matrix"
    )
    p_ab.add_argument("matrix")
    p_ab.add_argument("--poly", required=True, help="coefficients constant-first")
    p_ab.set_defaults(func=_cmd_abelianize)

    p_bf = sub.add_parser(
        "bowen-franks", parents=[common], help="Z^n / (A - I) Z^n"
    )
    p_bf.add_argument("matrix")
    p_bf.set_defaults(func=_cmd_bowen_franks)

    p_probe = sub.add_parser(
        "probe", parents=[common], help="similarity-invariance probe"
    )
    p_probe.add_argument("matrix")
    p_probe.add_argument("--poly", required=True)
    p_probe.add_argument("--trials", type=int, default=100)
    p_probe.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for the conjugates"
    )
    p_probe.set_defaults(func=_cmd_probe)

    p_cf = sub.add_parser(
        "cf", parents=[common], help="continued fraction of a quadratic irrational"
    )
    p_cf.add_argument("surd", help="(p+sqrt(d))/q or sqrt(d)")
    p_cf.add_argument(
        "--matrix", action="store_true", help="also build the incidence matrix"
    )
    p_cf.set_defaults(func=_cmd_cf)

    p_tor = sub.add_parser(
        "torsion", parents=[common], help="rational torsion subgroup"
    )
    p_tor.add_argument("curve", help="lambda=<rational> or a=<int>,b=<int>")
    p_tor.set_defaults(func=_cmd_torsion)

    p_jmap = sub.add_parser(
        "jmap", parents=[common], help="j-invariant and lambda orbit maps"
    )
    p_jmap.add_argument("spec", help="lambda=<rational> or j=<rational>")
    p_jmap.set_defaults(func=_cmd_jmap)

    p_zeta = sub.add_parser(
        "zeta", parents=[common], help="curve vs operator local zeta comparison"
    )
    p_zeta.add_argument("curve")
    p_zeta.add_argument("matrix")
    p_zeta.add_argument("--primes", required=True, help="comma-separated primes")
    p_zeta.add_argument("--order", type=int, default=3)
    p_zeta.add_argument("--alpha", type=int, choices=(-1, 0, 1), default=None)
    p_zeta.set_defaults(func=_cmd_zeta)

    p_conj = sub.add_parser(
        "conjecture", parents=[common], help="run a curve corpus"
    )
    p_conj.add_argument(
        "corpus", nargs="?", default=None, help=f"corpus path (default ${CORPUS_ENV})"
    )
    p_conj.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Before `--`, a token such as `-1,1` or `-4,2;2,0` is a value: a leading
    # space keeps argparse from reading it as an option, and parsers strip it.
    end = argv.index("--") if "--" in argv else len(argv)
    argv[:end] = [
        " " + t if t[:1] == "-" and t[1:2].isdigit() else t for t in argv[:end]
    ]
    caller_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(PRINTABLE_DIGITS)  # restored for the caller below
    try:
        args = build_parser().parse_args(argv)
        try:
            payload, status = args.func(args)
            out = _render(payload, args.format)
        except ValueError as exc:  # every refusal; stdout is still untouched
            return _emit_error(exc, args.format)
        # one write, outside the handler; what the locale cannot encode is
        # backslash-escaped, as CPython does on stderr (JSON is ASCII already)
        encoding = sys.stdout.encoding or "utf-8"
        sys.stdout.write(out.encode(encoding, "backslashreplace").decode(encoding))
        return status
    finally:
        sys.set_int_max_str_digits(caller_digits)
