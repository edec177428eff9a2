"""Command-line frontend.

Subcommands: snf, abelianize, bowen-franks, probe, cf, torsion, jmap, zeta,
conjecture.  Every command takes --format text|json and is deterministic for
fixed arguments and seed.  Each command builds one payload of domain objects;
`encode` turns it into JSON values, and text output is the sorted `key: value`
rendering of the same payload.  JSON output is byte-stable (sorted keys,
rationals rendered p/q in lowest terms with positive denominator).  All
numeric I/O is exact: integers and p/q rationals only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import af_invariant, contfrac, corpus, elliptic, exact_linalg, zeta

DEFAULT_SEED = 1729
CORPUS_ENV = "AFCURVES_CORPUS"


def encode(value, text: bool = False):
    """JSON-ready form of a payload: domain leaves become strings or small
    dicts, dataclasses become dicts of their fields, tuples become lists.

    Rationals are `p/q` in lowest terms with positive denominator.  With
    text=True, polynomials, groups and curves take their readable forms
    (`x - 1`, `Z_2 + Z_2`, `y^2 = ...`) instead of the JSON encodings.
    """
    if isinstance(value, (Fraction, contfrac.QuadraticIrrational)):
        return str(value)
    if isinstance(value, exact_linalg.IntMatrix):
        return exact_linalg.format_matrix(value)
    if isinstance(value, exact_linalg.IntPolynomial):
        return str(value) if text else exact_linalg.format_poly(value)
    if isinstance(value, elliptic.CurveQ):
        return str(value) if text else f"a={value.a},b={value.b}"
    if isinstance(value, af_invariant.AbelianGroup) and text:
        return str(value)
    if isinstance(value, elliptic.Point):
        return [str(value.x), str(value.y)]
    if is_dataclass(value):  # AbelianGroup's JSON form is its two fields
        return {f.name: encode(getattr(value, f.name), text) for f in fields(value)}
    if isinstance(value, dict):
        return {key: encode(item, text) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item, text) for item in value]
    return value


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


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(encode(payload), sort_keys=True, indent=2))
    else:
        for line in _text_lines(encode(payload, text=True)):
            print(line)


def _emit_error(exc: Exception, fmt: str) -> int:
    name = type(exc).__name__
    if fmt == "json":
        error = {"error": name, "message": str(exc)}
        print(json.dumps(error, sort_keys=True, indent=2), file=sys.stderr)
    else:
        print(f"error: {name}: {exc}", file=sys.stderr)
    return 1


# --- subcommand implementations --------------------------------------------


def _cmd_snf(args) -> int:
    m = exact_linalg.parse_matrix(args.matrix)
    dec = exact_linalg.snf(m)
    _emit(
        {
            "matrix": m,
            "diagonal": dec.d,
            "p_left": dec.p_left,
            "q_right": dec.q_right,
            "verified": True,  # snf raises unless the certificate verifies
        },
        args.format,
    )
    return 0


def _cmd_abelianize(args) -> int:
    m = exact_linalg.parse_matrix(args.matrix)
    p = exact_linalg.parse_poly(args.poly)
    group = af_invariant.abelianize(af_invariant.validate_incidence(m), p)
    _emit({"matrix": m, "polynomial": p, "group": group}, args.format)
    return 0


def _cmd_bowen_franks(args) -> int:
    m = exact_linalg.parse_matrix(args.matrix)
    group = af_invariant.bowen_franks(af_invariant.validate_incidence(m))
    det = exact_linalg.determinant(m - exact_linalg.IntMatrix.identity(m.n))
    _emit(
        {"matrix": m, "group": group, "order": group.order(), "det_a_minus_i": det},
        args.format,
    )
    return 0


def _cmd_probe(args) -> int:
    a = af_invariant.validate_incidence(exact_linalg.parse_matrix(args.matrix))
    p = exact_linalg.parse_poly(args.poly)
    report = af_invariant.invariance_probe(
        a, p, trials=args.trials, seed=args.seed, steps=args.steps
    )
    _emit(
        {
            "matrix": report.matrix,
            "polynomial": report.polynomial,
            "trials": report.trials,
            "failures": report.failures,
            "group": report.group,
            "seed": report.seed,
        },
        args.format,
    )
    return 0 if report.failures == 0 else 1


def _cmd_cf(args) -> int:
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
    _emit(payload, args.format)
    return 0


def _cmd_torsion(args) -> int:
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
    _emit(payload, args.format)
    return 0


def _cmd_jmap(args) -> int:
    spec = args.spec.strip()
    if spec.startswith("lambda="):
        lam = Fraction(spec[len("lambda=") :])
        payload = {
            "lambda": lam,
            "j": elliptic.j_from_lambda(lam),
            "orbit": sorted(elliptic.lambda_orbit(lam)),
        }
    elif spec.startswith("j="):
        j = Fraction(spec[len("j=") :])
        payload = {"j": j, "lambdas": elliptic.rational_lambdas_from_j(j)}
    else:
        raise elliptic.CurveSpecError(
            f"cannot parse jmap spec {spec!r}; expected lambda=<rational> or j=<rational>"
        )
    _emit(payload, args.format)
    return 0


def _cmd_zeta(args) -> int:
    curve, _model = elliptic.parse_curve_spec(args.curve)
    m = exact_linalg.parse_matrix(args.matrix)
    a = af_invariant.validate_incidence(m)
    primes = sorted({int(tok) for tok in args.primes.split(",") if tok.strip()})
    payload = []
    for p in primes:
        if not zeta.is_prime(p):
            payload.append(
                {"prime": p, "error": "ValueError", "message": f"{p} is not prime"}
            )
            continue
        try:
            payload.append(
                zeta.compare_local(curve, a, p, args.order, alpha=args.alpha)
            )
        except (
            zeta.BadReduction,
            zeta.UnsupportedCharacteristic,
            zeta.AlphaRequired,
        ) as exc:
            payload.append(
                {"prime": p, "error": type(exc).__name__, "message": str(exc)}
            )
    _emit(payload, args.format)
    return 0


def _conjecture_row(report: corpus.ConjectureReport) -> dict:
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


def _cmd_conjecture(args) -> int:
    path = args.corpus or os.environ.get(CORPUS_ENV)
    if not path:
        raise corpus.CorpusError(
            f"no corpus file given and ${CORPUS_ENV} is not set"
        )
    reports = corpus.run_corpus(corpus.load_corpus(path))
    _emit([_conjecture_row(r) for r in reports], args.format)
    failed = any(r.expected_match is False for r in reports)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for randomized commands"
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
    p_probe.add_argument("--steps", type=int, default=20)
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


_VALUE_OPTIONS = frozenset(
    ("--poly", "--primes", "--alpha", "--order", "--trials", "--steps",
     "--seed", "--format")
)


def _merge_option_values(argv):
    """Turn `--poly -1,1` into `--poly=-1,1` so values with a leading dash
    (negative coefficients) survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_option_values(list(argv)))
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        return _emit_error(exc, getattr(args, "format", "text"))


if __name__ == "__main__":
    sys.exit(main())
