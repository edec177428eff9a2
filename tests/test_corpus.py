import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from afcurves.af_invariant import AbelianGroup
from afcurves.contfrac import QuadraticIrrational
from afcurves.corpus import (
    CorpusEntry,
    CorpusError,
    InvalidEntry,
    load_corpus,
    run_entry,
)
from afcurves.exact_linalg import IntMatrix, IntPolynomial, parse_poly

BUNDLED = Path(__file__).resolve().parent.parent / "data" / "cm_corpus.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def gaussian_entry(**overrides):
    fields = dict(
        label="gaussian",
        lam=Fraction(-1),
        theta=QuadraticIrrational(1, 2, 1),
        polynomials=(IntPolynomial([-1, 1]),),
        expected_torsion=AbelianGroup((2, 2)),
    )
    fields.update(overrides)
    return CorpusEntry(**fields)


class TestCorpusEntry:
    def test_requires_exactly_one_curve_spec(self):
        with pytest.raises(CorpusError):
            gaussian_entry(ab=(-1, 0))
        with pytest.raises(CorpusError):
            gaussian_entry(lam=None)

    def test_requires_exactly_one_incidence_spec(self):
        with pytest.raises(CorpusError):
            gaussian_entry(matrix=IntMatrix([[5, 2], [2, 1]]))
        with pytest.raises(CorpusError):
            gaussian_entry(theta=None)

    def test_rejects_bad_polynomial(self):
        with pytest.raises(CorpusError):
            gaussian_entry(polynomials=(IntPolynomial([0, 1]),))


class TestRunEntry:
    def test_gaussian_row(self):
        report = run_entry(gaussian_entry())
        assert report.error is None
        assert report.j_invariant == 1728
        assert report.incidence.m == IntMatrix([[5, 2], [2, 1]])
        assert report.computed_torsion == AbelianGroup((2, 2))
        assert report.expected_match is True
        assert len(report.verdicts) == 1
        assert report.verdicts[0].verdict == "match"
        assert report.verdicts[0].group == AbelianGroup((2, 2))

    def test_non_bowen_franks_polynomials_are_not_compared(self):
        entry = gaussian_entry(
            polynomials=(IntPolynomial([-1, 1]), IntPolynomial([1, 1]))
        )
        report = run_entry(entry)
        verdicts = {str(v.polynomial): v.verdict for v in report.verdicts}
        assert verdicts == {"x - 1": "match", "x + 1": "not_computed"}

    def test_expected_mismatch_detected(self):
        report = run_entry(gaussian_entry(expected_torsion=AbelianGroup((4,))))
        assert report.expected_match is False

    def test_singular_lambda_becomes_error(self):
        report = run_entry(gaussian_entry(lam=Fraction(1)))
        assert report.error is not None
        assert "SingularLambda" in report.error

    def test_invalid_entry_passthrough(self):
        report = run_entry(InvalidEntry("broken", "BadConstantTerm: 0"))
        assert report.error == "BadConstantTerm: 0"
        assert report.computed_torsion is None


class TestLoadCorpus:
    def test_bundled_corpus(self):
        entries = load_corpus(str(BUNDLED))
        assert len(entries) == 1
        entry = entries[0]
        assert entry.lam == -1
        assert (entry.theta.p_num, entry.theta.d_rad, entry.theta.q_den) == (1, 2, 1)
        assert entry.polynomials == (IntPolynomial([-1, 1]),)
        assert entry.expected_torsion == AbelianGroup((2, 2))

    def test_bad_polynomial_row_becomes_invalid_entry(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "label": "bad poly",
                        "lambda": "-1",
                        "theta": "(1+sqrt(2))/1",
                        "polynomials": ["0,1"],
                    },
                    {
                        "label": "fine",
                        "lambda": "-1",
                        "matrix": "5,2;2,1",
                        "polynomials": ["-1,1"],
                    },
                ]
            )
        )
        entries = load_corpus(str(path))
        assert isinstance(entries[0], InvalidEntry)
        assert isinstance(entries[1], CorpusEntry)
        reports = [run_entry(entry) for entry in entries]
        assert reports[0].error is not None
        assert reports[1].error is None

    def test_csv_ingestion_matches_json(self, tmp_path):
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_text(
            "label,lambda,theta,poly,expected\n"
            'gaussian,-1,(1+sqrt(2))/1,"-1,1","2,2"\n'
        )
        json_path = tmp_path / "corpus.json"
        json_path.write_text(
            json.dumps(
                [
                    {
                        "label": "gaussian",
                        "lambda": "-1",
                        "theta": "(1+sqrt(2))/1",
                        "polynomials": ["-1,1"],
                        "expected_torsion": {"torsion": [2, 2], "free_rank": 0},
                    }
                ]
            )
        )
        assert load_corpus(str(csv_path)) == load_corpus(str(json_path))

    def test_csv_with_both_curve_columns_matches_json(self, tmp_path):
        # a lambda row leaves the a, b cells blank and an (a, b) row leaves
        # lambda blank; each blank cell reads as an absent key
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_text(
            "label,lambda,a,b,theta,matrix,poly,expected\n"
            'leg,-1,,,(1+sqrt(2))/1,,"-1,1","2,2"\n'
            'direct,,-1,0,,"5,2;2,1","-1,1",\n'
        )
        json_path = tmp_path / "corpus.json"
        json_path.write_text(
            json.dumps(
                [
                    {
                        "label": "leg",
                        "lambda": "-1",
                        "theta": "(1+sqrt(2))/1",
                        "polynomials": ["-1,1"],
                        "expected_torsion": {"torsion": [2, 2], "free_rank": 0},
                    },
                    {"label": "direct", "a": -1, "b": 0, "matrix": "5,2;2,1", "poly": "-1,1"},
                ]
            )
        )
        entries = load_corpus(str(csv_path))
        assert not any(isinstance(entry, InvalidEntry) for entry in entries)
        assert entries == load_corpus(str(json_path))

    def test_expected_trivial_keyword(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "label,lambda,matrix,poly,expected\n"
            'silver-fiber,2,"2,1;1,1","-1,1",trivial\n'
        )
        (entry,) = load_corpus(str(path))
        assert entry.expected_torsion == AbelianGroup(())
        report = run_entry(entry)
        # E_2 maps to y^2 = x^3 - x whose torsion is Z_2 + Z_2, while the
        # golden-period matrix has trivial Bowen-Franks group
        assert report.expected_match is False
        assert report.verdicts[0].verdict == "mismatch"

    def test_direct_ab_and_matrix_specs(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "label": "direct",
                        "a": -1,
                        "b": 0,
                        "matrix": "5,2;2,1",
                        "polynomials": ["-1,1"],
                    }
                ]
            )
        )
        (entry,) = load_corpus(str(path))
        report = run_entry(entry)
        assert report.computed_torsion == AbelianGroup((2, 2))
        assert report.verdicts[0].verdict == "match"

    def test_float_expected_torsion_becomes_invalid_entry(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "label": "float torsion",
                        "lambda": "-1",
                        "matrix": "5,2;2,1",
                        "polynomials": ["-1,1"],
                        "expected_torsion": {"torsion": [4.9], "free_rank": 0},
                    }
                ]
            )
        )
        (entry,) = load_corpus(str(path))
        assert isinstance(entry, InvalidEntry)
        assert entry.error.startswith("TypeError")

    def test_float_curve_coefficient_becomes_invalid_entry(self, tmp_path):
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_text('label,a,b,matrix,poly\ndirect,-1,0,"5,2;2,1","-1,1"\n')
        row = {"label": "direct", "a": -1, "b": 0, "matrix": "5,2;2,1", "poly": "-1,1"}
        json_path = tmp_path / "corpus.json"
        json_path.write_text(json.dumps([row, dict(row, a=-1.9)]))
        exact, truncated = load_corpus(str(json_path))
        # CSV cells are text and still parse as integers
        assert load_corpus(str(csv_path)) == [exact]
        assert exact.ab == (-1, 0)
        assert isinstance(truncated, InvalidEntry)
        assert truncated.error.startswith("TypeError")

    def test_float_lambda_becomes_invalid_entry(self, tmp_path):
        row = {"label": "exact", "lambda": "1/10", "matrix": "5,2;2,1", "poly": "-1,1"}
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([row, dict(row, label="float", **{"lambda": 0.1})]))
        exact, inexact = load_corpus(str(path))
        assert exact.lam == Fraction(1, 10)
        assert isinstance(inexact, InvalidEntry) and inexact.label == "float"
        assert inexact.error.startswith("TypeError")

    @pytest.mark.parametrize(
        "cell",
        [
            {"a": True, "b": 0},
            {"a": -1, "b": False},
            {"lambda": True},
            {"lambda": "-1", "expected_torsion": {"torsion": [True, 2]}},
            {"lambda": "-1", "expected_torsion": {"torsion": [2], "free_rank": False}},
        ],
        ids=["a", "b", "lambda", "torsion", "free_rank"],
    )
    def test_boolean_cell_becomes_invalid_entry(self, tmp_path, cell):
        row = {"label": "bool", "matrix": "5,2;2,1", "poly": "-1,1", **cell}
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([row]))
        (entry,) = load_corpus(str(path))
        assert isinstance(entry, InvalidEntry) and entry.label == "bool"
        assert entry.error.startswith("TypeError: bool ")

    def test_bad_expected_text_names_the_token(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "label,lambda,matrix,poly,expected\n"
            'gaussian,-1,"5,2;2,1","-1,1","2,x"\n'
        )
        (entry,) = load_corpus(str(path))
        assert entry == InvalidEntry(
            "gaussian", "MatrixParseError: bad torsion 'x' at position 2"
        )

    def test_non_object_row_becomes_invalid_entry(self, tmp_path):
        row = {"label": "fine", "lambda": "-1", "matrix": "5,2;2,1", "poly": "-1,1"}
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([1, row]))
        bad, fine = load_corpus(str(path))
        assert bad == InvalidEntry("?", "CorpusError: entry must be an object, got int")
        assert run_entry(fine).verdicts[0].verdict == "match"

    @pytest.mark.parametrize(
        "row,error",
        [
            ({"lambda": "1/0", "matrix": "5,2;2,1"}, "ValueError: zero denominator in '1/0'"),
            ({"lambda": "-1", "theta": "(1+sqrt(2))/0"},
             "ValueError: zero denominator in '(1+sqrt(2))/0'"),
        ],
    )
    def test_zero_denominator_row_is_a_value_error(self, tmp_path, row, error):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{"label": "zero", "poly": "-1,1", **row}]))
        assert load_corpus(str(path)) == [InvalidEntry("zero", error)]

    def test_missing_file_is_corpus_error(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read corpus file"):
            load_corpus(str(tmp_path / "absent.json"))

    def test_non_array_json_rejected(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"label": "x"}))
        with pytest.raises(CorpusError):
            load_corpus(str(path))

    def test_csv_with_a_byte_order_mark(self, tmp_path):
        # spreadsheet tools save CSV as UTF-8 with a BOM before the first header
        path = tmp_path / "corpus.csv"
        path.write_bytes(
            b"\xef\xbb\xbflabel,lambda,theta,poly,expected\n"
            b'gaussian,-1,(1+sqrt(2))/1,"-1,1","2,2"\n'
        )
        (entry,) = load_corpus(str(path))
        assert entry == gaussian_entry()

    def test_utf8_label_under_the_c_locale(self, tmp_path):
        row = {"label": "café λ", "lambda": "-1", "matrix": "5,2;2,1", "poly": "-1,1"}
        path = tmp_path / "corpus.json"
        path.write_bytes(json.dumps([row], ensure_ascii=False).encode("utf-8"))
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath, "LC_ALL": "C", "PYTHONUTF8": "0"}
        done = subprocess.run(
            [sys.executable, "-m", "afcurves", "conjecture", str(path), "--format", "json"],
            env=env, capture_output=True, check=False,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        (out,) = json.loads(done.stdout)
        assert out["label"] == "café λ"
        assert out["invariants"][0]["verdict"] == "match"

    @pytest.mark.parametrize(
        "name,data",
        [
            ("corpus.json", "[{\"label\": \"café\"}]".encode("latin-1")),
            ("corpus.csv", "label\ncafé\n".encode("latin-1")),
            ("corpus.json", b"[{\"label\": "),
            ("corpus.csv", b"label\n" + b"x" * 200_000 + b"\n"),  # over csv's field limit
        ],
    )
    def test_undecodable_file_is_corpus_error(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(CorpusError, match="corpus file is not UTF-8"):
            load_corpus(str(path))

    def test_parse_poly_is_what_corpus_uses(self):
        assert parse_poly("-1,1") == IntPolynomial([-1, 1])
