"""Command-line frontend.

Subcommands: snf, abelianize, bowen-franks, probe, cf, torsion, jmap, zeta,
conjecture.  Every command takes --format text|json and is deterministic for
fixed arguments and seed; JSON output is byte-stable (sorted keys, rationals
rendered p/q in lowest terms with positive denominator).  All numeric I/O is
exact: integers and p/q rationals only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import af_invariant, contfrac, corpus, elliptic, zeta
from .exact_linalg import (
    IntMatrix,
    determinant,
    format_matrix,
    format_poly,
    parse_matrix,
    parse_poly,
    snf,
)

DEFAULT_SEED = 1729
CORPUS_ENV = "AFCURVES_CORPUS"


def frac_str(value) -> str:
    """Canonical rational text: lowest terms, positive denominator."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def group_dict(g: af_invariant.AbelianGroup) -> dict:
    return {"torsion": list(g.torsion), "free_rank": g.free_rank}


def point_json(pt: elliptic.Point):
    return [frac_str(pt.x), frac_str(pt.y)]


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _emit_error(exc: Exception, fmt: str) -> int:
    name = type(exc).__name__
    if fmt == "json":
        print(
            json.dumps(
                {"error": name, "message": str(exc)}, sort_keys=True, indent=2
            ),
            file=sys.stderr,
        )
    else:
        print(f"error: {name}: {exc}", file=sys.stderr)
    return 1


# --- subcommand implementations --------------------------------------------


def _cmd_snf(args) -> int:
    m = parse_matrix(args.matrix)
    dec = snf(m)
    payload = {
        "matrix": format_matrix(m),
        "diagonal": list(dec.d),
        "p_left": format_matrix(dec.p_left),
        "q_right": format_matrix(dec.q_right),
        "verified": dec.verify(m),
    }
    _emit(
        payload,
        args.format,
        [
            f"matrix:   {payload['matrix']}",
            f"diagonal: {', '.join(str(x) for x in dec.d)}",
            f"P:        {payload['p_left']}",
            f"Q:        {payload['q_right']}",
            f"check P*M*Q == diag: {'ok' if payload['verified'] else 'FAILED'}",
        ],
    )
    return 0


def _cmd_abelianize(args) -> int:
    m = parse_matrix(args.matrix)
    p = parse_poly(args.poly)
    a = af_invariant.validate_incidence(m)
    group = af_invariant.abelianize(a, p)
    payload = {
        "matrix": format_matrix(m),
        "polynomial": format_poly(p),
        "group": group_dict(group),
    }
    _emit(
        payload,
        args.format,
        [f"Ab_[{p}]({format_matrix(m)}) = {group}"],
    )
    return 0


def _cmd_bowen_franks(args) -> int:
    m = parse_matrix(args.matrix)
    a = af_invariant.validate_incidence(m)
    group = af_invariant.bowen_franks(a)
    det = determinant(m - IntMatrix.identity(m.n))
    payload = {
        "matrix": format_matrix(m),
        "group": group_dict(group),
        "order": group.order(),
        "det_a_minus_i": det,
    }
    _emit(
        payload,
        args.format,
        [
            f"Bowen-Franks group of {format_matrix(m)}: {group}",
            f"order: {group.order()}   |det(A - I)| = {abs(det)}",
        ],
    )
    return 0


def _cmd_probe(args) -> int:
    m = parse_matrix(args.matrix)
    p = parse_poly(args.poly)
    a = af_invariant.validate_incidence(m)
    report = af_invariant.invariance_probe(
        a, p, trials=args.trials, seed=args.seed, steps=args.steps
    )
    payload = {
        "matrix": format_matrix(report.matrix),
        "polynomial": format_poly(report.polynomial),
        "trials": report.trials,
        "failures": report.failures,
        "group": group_dict(report.group),
        "seed": report.seed,
    }
    _emit(
        payload,
        args.format,
        [
            f"matrix {payload['matrix']}, polynomial {report.polynomial}, "
            f"seed {report.seed}",
            f"trials: {report.trials}   failures: {report.failures}",
            f"invariant: {report.group}",
        ],
    )
    return 0 if report.failures == 0 else 1


def _cmd_cf(args) -> int:
    theta = contfrac.parse_surd(args.surd)
    cf = contfrac.expand(theta)
    payload = {
        "surd": str(theta),
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
    }
    lines = [
        f"theta = {theta}",
        f"preperiod: {list(cf.preperiod)}",
        f"period:    {list(cf.period)}",
    ]
    if args.matrix:
        inc = contfrac.incidence_from_period(cf)
        payload["matrix"] = format_matrix(inc.m)
        payload["positivity_power"] = inc.positivity_power
        payload["note"] = (
            "period taken from the earliest recurring state; cyclic rotations "
            "of the period give GL_2(Z)-similar matrices"
        )
        lines.append(f"incidence matrix: {payload['matrix']}")
        lines.append(f"positivity power: {inc.positivity_power}")
        lines.append(f"note: {payload['note']}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_torsion(args) -> int:
    curve, model = elliptic.parse_curve_spec(args.curve)
    group, points = elliptic.torsion_subgroup(curve)
    affine = [pt for pt in points if not pt.is_infinity]
    payload = {
        "curve": f"a={curve.a},b={curve.b}",
        "j": frac_str(curve.j_invariant()),
        "group": group_dict(group),
        "points": [point_json(pt) for pt in affine],
        "includes_infinity": True,
    }
    lines = [
        f"curve: {curve}   (j = {payload['j']})",
        f"torsion subgroup: {group}  (order {group.order()})",
        "points: infinity"
        + "".join(f", ({frac_str(pt.x)}, {frac_str(pt.y)})" for pt in affine),
    ]
    if model is not None:
        payload["lambda"] = frac_str(model.lam)
        payload["model"] = {"u": model.u, "shift": frac_str(model.shift)}
        lines.insert(
            0,
            f"lambda = {frac_str(model.lam)} -> integral model via "
            f"x -> u^2(x - {frac_str(model.shift)}), u = {model.u}",
        )
    _emit(payload, args.format, lines)
    return 0


def _cmd_jmap(args) -> int:
    spec = args.spec.strip()
    if spec.startswith("lambda="):
        lam = Fraction(spec[len("lambda=") :])
        j = elliptic.j_from_lambda(lam)
        orbit = sorted(elliptic.lambda_orbit(lam))
        payload = {
            "lambda": frac_str(lam),
            "j": frac_str(j),
            "orbit": [frac_str(x) for x in orbit],
        }
        _emit(
            payload,
            args.format,
            [
                f"j(E_{frac_str(lam)}) = {frac_str(j)}",
                f"orbit ({len(orbit)} values): "
                + ", ".join(frac_str(x) for x in orbit),
            ],
        )
        return 0
    if spec.startswith("j="):
        j = Fraction(spec[len("j=") :])
        lambdas = elliptic.rational_lambdas_from_j(j)
        payload = {
            "j": frac_str(j),
            "lambdas": [frac_str(x) for x in lambdas],
        }
        _emit(
            payload,
            args.format,
            [
                f"rational lambda with j = {frac_str(j)}: "
                + (", ".join(frac_str(x) for x in lambdas) if lambdas else "none")
            ],
        )
        return 0
    raise elliptic.CurveSpecError(
        f"cannot parse jmap spec {spec!r}; expected lambda=<rational> or j=<rational>"
    )


def _zeta_report_json(report: zeta.LocalZetaReport) -> dict:
    return {
        "prime": report.prime,
        "curve_counts": list(report.curve_counts),
        "a_p": report.a_p,
        "curve_factor": {
            "numerator": list(report.curve_factor.numerator),
            "denominator": list(report.curve_factor.denominator),
        },
        "operator_counts": list(report.operator_counts),
        "operator_params": {
            "trace_power": report.operator_params.trace_power,
            "branch": report.operator_params.branch,
            "alpha": report.operator_params.alpha,
        },
        "match_flags": list(report.match_flags),
    }


def _cmd_zeta(args) -> int:
    curve, _model = elliptic.parse_curve_spec(args.curve)
    m = parse_matrix(args.matrix)
    a = af_invariant.validate_incidence(m)
    primes = sorted({int(tok) for tok in args.primes.split(",") if tok.strip()})
    payload = []
    lines = []
    for p in primes:
        if not zeta.is_prime(p):
            payload.append(
                {"prime": p, "error": "ValueError", "message": f"{p} is not prime"}
            )
            lines.append(f"p={p}: error: not a prime")
            continue
        try:
            report = zeta.compare_local(curve, a, p, args.order, alpha=args.alpha)
        except (
            zeta.BadReduction,
            zeta.UnsupportedCharacteristic,
            zeta.AlphaRequired,
        ) as exc:
            payload.append(
                {"prime": p, "error": type(exc).__name__, "message": str(exc)}
            )
            lines.append(f"p={p}: error: {type(exc).__name__}: {exc}")
            continue
        payload.append(_zeta_report_json(report))
        lines.append(
            f"p={p}: a_p={report.a_p}  branch={report.operator_params.branch}"
        )
        lines.append(f"  curve counts:    {list(report.curve_counts)}")
        lines.append(f"  operator counts: {list(report.operator_counts)}")
        lines.append(f"  match flags:     {list(report.match_flags)}")
    _emit(payload, args.format, lines)
    return 0


def _conjecture_report_json(report: corpus.ConjectureReport) -> dict:
    entry = report.entry
    if isinstance(entry, corpus.InvalidEntry):
        return {"label": entry.label, "error": entry.error}
    out: dict = {"label": entry.label}
    if entry.lam is not None:
        out["lambda"] = frac_str(entry.lam)
    else:
        out["a"], out["b"] = entry.ab
    if entry.theta is not None:
        out["theta"] = str(entry.theta)
    else:
        out["matrix"] = format_matrix(entry.matrix)
    if report.error is not None:
        out["error"] = report.error
        return out
    out["j"] = frac_str(report.j_invariant)
    out["curve"] = f"a={report.curve.a},b={report.curve.b}"
    out["incidence"] = format_matrix(report.incidence.m)
    out["computed_torsion"] = group_dict(report.computed_torsion)
    if entry.expected_torsion is not None:
        out["expected_torsion"] = group_dict(entry.expected_torsion)
        out["expected_match"] = report.expected_match
    out["invariants"] = [
        {
            "polynomial": format_poly(v.polynomial),
            "group": group_dict(v.group),
            "verdict": v.verdict,
        }
        for v in report.verdicts
    ]
    return out


def _cmd_conjecture(args) -> int:
    path = args.corpus or os.environ.get(CORPUS_ENV)
    if not path:
        raise corpus.CorpusError(
            f"no corpus file given and ${CORPUS_ENV} is not set"
        )
    entries = corpus.load_corpus(path)
    reports = corpus.run_corpus(entries)
    payload = [_conjecture_report_json(r) for r in reports]
    lines = []
    for r in reports:
        label = r.entry.label
        if r.error is not None:
            lines.append(f"[{label}] error: {r.error}")
            continue
        lines.append(f"[{label}]")
        lines.append(f"  curve: {r.curve}   j = {frac_str(r.j_invariant)}")
        lines.append(
            f"  incidence: {format_matrix(r.incidence.m)} "
            f"(positivity power {r.incidence.positivity_power})"
        )
        expected = ""
        if r.entry.expected_torsion is not None:
            expected = (
                f"   expected: {r.entry.expected_torsion} "
                f"[{'ok' if r.expected_match else 'MISMATCH'}]"
            )
        lines.append(f"  torsion: {r.computed_torsion}{expected}")
        for v in r.verdicts:
            lines.append(f"  Ab at {v.polynomial}: {v.group}   verdict: {v.verdict}")
    _emit(payload, args.format, lines)
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
