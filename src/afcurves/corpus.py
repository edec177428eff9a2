"""Curve corpus: batch entries pairing a CM curve with an incidence matrix.

Each entry carries one curve spec (lambda or integral a, b), one incidence
spec (a quadratic irrational theta or an explicit matrix), the polynomials
to abelianize at, and optionally the expected torsion group.  Running an
entry computes the torsion subgroup on the curve side and the abelianized
invariant on the operator side, and records a verdict per polynomial.

Verdicts are findings, not assertions: only the x - 1 column is comparable
over Q (other polynomials would need torsion over an extension field, which
is out of computational reach here and reported as not_computed).
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

from .af_invariant import (
    AbelianGroup,
    BOWEN_FRANKS_POLY,
    IncidenceMatrix,
    abelianize,
    validate_incidence,
)
from .contfrac import QuadraticIrrational, expand, incidence_from_period, parse_surd
from .elliptic import CurveQ, legendre_model, to_fraction, torsion_subgroup
from .exact_linalg import (
    IntPolynomial,
    Record,
    exact_int,
    parse_int_list,
    parse_matrix,
    parse_poly,
)


class CorpusError(ValueError):
    pass


class CorpusEntry(Record):
    """One corpus row: a curve spec, an incidence spec, polynomials, and
    optionally the expected torsion group."""

    label: str
    lam: Fraction | None = None
    ab: tuple | None = None
    theta: QuadraticIrrational | None = None
    matrix: object = None  # IntMatrix | None
    polynomials: tuple = ()
    expected_torsion: AbelianGroup | None = None

    def __post_init__(self):
        if (self.lam is None) == (self.ab is None):
            raise CorpusError(
                f"{self.label!r}: exactly one of lambda / (a, b) required"
            )
        if (self.theta is None) == (self.matrix is None):
            raise CorpusError(
                f"{self.label!r}: exactly one of theta / matrix required"
            )
        if not self.polynomials:
            raise CorpusError(f"{self.label!r}: at least one polynomial required")
        for p in self.polynomials:
            if p.constant_term not in (1, -1):
                raise CorpusError(
                    f"{self.label!r}: polynomial {p} has constant term "
                    f"{p.constant_term}, need +1 or -1"
                )


class InvalidEntry(Record):
    """Placeholder for a corpus record that failed validation at load time."""

    label: str
    error: str


class PolynomialVerdict(Record):
    polynomial: IntPolynomial
    group: AbelianGroup
    verdict: str  # "match" | "mismatch" | "not_computed"


class ConjectureReport(Record):
    entry: CorpusEntry
    j_invariant: Fraction | None = None
    curve: CurveQ | None = None
    incidence: IncidenceMatrix | None = None
    computed_torsion: AbelianGroup | None = None
    verdicts: tuple = ()
    expected_match: bool | None = None  # None when no expected_torsion was given
    error: str | None = None


def _entry_curve(entry: CorpusEntry) -> CurveQ:
    if entry.lam is not None:
        return legendre_model(entry.lam).curve
    return CurveQ(*entry.ab)


def _entry_incidence(entry: CorpusEntry) -> IncidenceMatrix:
    if entry.theta is not None:
        return incidence_from_period(expand(entry.theta))
    return validate_incidence(entry.matrix)


def run_entry(entry) -> ConjectureReport:
    """Compute both sides for one entry; failures land in the error field."""
    if isinstance(entry, InvalidEntry):
        return ConjectureReport(entry, error=entry.error)
    try:
        curve = _entry_curve(entry)
        incidence = _entry_incidence(entry)
        torsion, _points = torsion_subgroup(curve)
        verdicts = []
        for p in entry.polynomials:
            group = abelianize(incidence, p)
            if p == BOWEN_FRANKS_POLY:
                verdict = "match" if group == torsion else "mismatch"
            else:
                verdict = "not_computed"
            verdicts.append(PolynomialVerdict(p, group, verdict))
        expected_match = None
        if entry.expected_torsion is not None:
            expected_match = torsion == entry.expected_torsion
        return ConjectureReport(
            entry=entry,
            j_invariant=curve.j_invariant(),
            curve=curve,
            incidence=incidence,
            computed_torsion=torsion,
            verdicts=tuple(verdicts),
            expected_match=expected_match,
        )
    except ValueError as exc:
        return ConjectureReport(entry, error=f"{type(exc).__name__}: {exc}")


def _parse_expected(raw) -> AbelianGroup | None:
    if raw is None or raw == "":
        return None
    if isinstance(raw, dict):
        return AbelianGroup(raw.get("torsion", ()), raw.get("free_rank", 0))
    text = str(raw).strip()
    if text.lower() == "trivial":
        return AbelianGroup(())
    return AbelianGroup(tuple(parse_int_list(text, "torsion")))


def _int_cell(value) -> int:
    """An integer from a CSV string cell or a JSON integer."""
    return int(value) if isinstance(value, str) else exact_int(value)


def _entry_from_mapping(record: dict) -> CorpusEntry:
    if not isinstance(record, dict):
        raise CorpusError(f"entry must be an object, got {type(record).__name__}")
    label = str(record.get("label", ""))
    lam = record.get("lambda")
    a, b = record.get("a", ""), record.get("b", "")  # a blank cell is absent
    ab = (_int_cell(a), _int_cell(b)) if a != "" and b != "" else None
    theta = record.get("theta")
    matrix = record.get("matrix")
    polys = record.get("polynomials")
    if polys is None and record.get("poly"):
        polys = [record["poly"]]
    if isinstance(polys, str):
        polys = [polys]
    return CorpusEntry(
        label=label,
        lam=to_fraction(lam) if lam not in (None, "") else None,
        ab=ab,
        theta=parse_surd(theta) if theta not in (None, "") else None,
        matrix=parse_matrix(matrix) if matrix not in (None, "") else None,
        polynomials=tuple(parse_poly(str(p)) for p in (polys or ())),
        expected_torsion=_parse_expected(record.get("expected")
                                         if "expected" in record
                                         else record.get("expected_torsion")),
    )


def load_corpus(path: str) -> list:
    """Load a corpus file: a JSON array of entries, or CSV with columns
    label, lambda, theta, poly, expected (and optionally a, b, matrix).

    Records that fail validation become InvalidEntry placeholders so one
    bad row cannot abort a batch run.  The file is read as UTF-8 whatever
    the locale, a leading byte-order mark dropped.  A file that cannot be
    read, is not UTF-8 or does not parse raises CorpusError.
    """
    is_csv = str(path).lower().endswith(".csv")
    try:
        with open(path, encoding="utf-8-sig", newline="" if is_csv else None) as fh:
            records = list(csv.DictReader(fh)) if is_csv else json.load(fh)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        kind = "CSV" if is_csv else "JSON"
        raise CorpusError(f"corpus file is not UTF-8 {kind}: {exc}") from None
    if not is_csv and not isinstance(records, list):
        raise CorpusError("corpus JSON must be an array of entries")
    entries = []
    for record in records:
        try:
            entries.append(_entry_from_mapping(record))
        except (ValueError, TypeError) as exc:
            label = str(record.get("label", "?")) if isinstance(record, dict) else "?"
            entries.append(InvalidEntry(label, f"{type(exc).__name__}: {exc}"))
    return entries
