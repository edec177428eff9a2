import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcurves import af_invariant, exact_linalg
from afcurves.af_invariant import (
    AbelianGroup,
    BadConstantTerm,
    NegativeEntry,
    NeverStrictlyPositive,
    NotUnimodular,
    abelianize,
    bowen_franks,
    invariance_probe,
    quotient_group,
    validate_incidence,
)
from afcurves.exact_linalg import (
    BudgetExceeded,
    IntMatrix,
    IntPolynomial,
    determinant,
    mat_poly_eval,
    mat_pow,
    random_glnz,
    smith_diagonal,
    _MOVE_FACTORS,
    _poly_eval_rows,
)
from oracles import block_product, det_and_rank_mod, is_strictly_positive

A_STD = IntMatrix([[5, 2], [2, 1]])
X_MINUS_1 = IntPolynomial([-1, 1])


def nonnegative_unimodular_matrices(max_n=4):
    """Products of permutation matrices and elementary I + e_ij, n <= max_n:
    nonnegative and unimodular, primitive or not."""
    def build(args):
        n, factors = args
        m = IntMatrix.identity(n)
        for perm, (i, j) in factors:
            m = m @ IntMatrix([[int(perm[r] == c) for c in range(n)] for r in range(n)])
            m = m @ IntMatrix([[int(r == c or (r, c) == (i, j)) for c in range(n)]
                               for r in range(n)])
        return m

    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.permutations(range(n)),
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                ),
                max_size=6,
            ),
        )
    ).map(build)


def _least_positive_integer_power(m):
    """Least k <= 2n^2 with m^k strictly positive, by integer powers."""
    power = m
    for k in range(1, 2 * m.n * m.n + 1):
        if is_strictly_positive(power):
            return k
        power = power @ m
    return None


def incidence_matrices():
    """Small valid incidence matrices: period-block products, squared when
    not yet strictly positive (always nonnegative, unimodular, primitive)."""
    return st.lists(st.integers(1, 4), min_size=1, max_size=4).map(block_product)


class TestAbelianGroup:
    def test_normal_form_drops_ones(self):
        g = AbelianGroup.from_smith_diagonal((1, 2, 4, 0))
        assert g == AbelianGroup((2, 4), free_rank=1)

    def test_order(self):
        assert AbelianGroup((2, 4)).order() == 8
        assert AbelianGroup(()).order() == 1
        assert AbelianGroup((2,), free_rank=1).order() is None

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            AbelianGroup((4, 2))
        with pytest.raises(ValueError):
            AbelianGroup((1, 2))

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            AbelianGroup((2.5,))
        with pytest.raises(TypeError):
            AbelianGroup((2,), free_rank=0.5)

    def test_str(self):
        assert str(AbelianGroup((2, 2))) == "Z_2 + Z_2"
        assert str(AbelianGroup(())) == "trivial"
        assert str(AbelianGroup((3,), free_rank=2)) == "Z_3 + Z^2"

    @pytest.mark.parametrize("torsion,text", [((), "Z"), ((2, 4), "Z_2 + Z_4 + Z")])
    def test_str_of_free_rank_1(self, torsion, text):
        assert str(AbelianGroup(torsion, free_rank=1)) == text


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: AbelianGroup((2,), -1), ValueError, "free rank must be nonnegative"),
        (
            lambda: invariance_probe(validate_incidence(A_STD), X_MINUS_1, trials=0),
            ValueError,
            "trials must be >= 1",
        ),
        (
            lambda: validate_incidence(IntMatrix([[3, 1], [1, 1]])),
            NotUnimodular,
            "|det| must be 1, got det = 2",
        ),
    ],
    ids=["negative_free_rank", "no_trials", "det_2"],
)
def test_refusals(call, error, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


class TestValidateIncidence:
    def test_already_positive(self):
        assert validate_incidence(A_STD).positivity_power == 1

    def test_positive_at_second_power(self):
        assert validate_incidence(IntMatrix([[2, 1], [1, 0]])).positivity_power == 2

    def test_never_positive(self):
        with pytest.raises(NeverStrictlyPositive):
            validate_incidence(IntMatrix([[1, 1], [0, 1]]))

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_incidence(IntMatrix([[2, -1], [1, 1]]))

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            validate_incidence(IntMatrix([[2, 2], [1, 1]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_wielandt_matrix_reaches_the_bound(self, n):
        # the n-cycle plus one chord: primitive with exponent exactly (n-1)^2 + 1
        rows = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        rows[-1][1 % n] = 1
        assert validate_incidence(IntMatrix(rows)).positivity_power == (n - 1) ** 2 + 1

    @given(nonnegative_unimodular_matrices())
    @settings(deadline=None)
    def test_pattern_powers_match_integer_powers(self, m):
        expected = _least_positive_integer_power(m)
        if expected is None:
            with pytest.raises(NeverStrictlyPositive):
                validate_incidence(m)
        else:
            assert validate_incidence(m).positivity_power == expected


class TestAbelianize:
    def test_bowen_franks_case(self):
        assert abelianize(validate_incidence(A_STD), X_MINUS_1) == AbelianGroup((2, 2))

    def test_x_plus_one(self):
        g = abelianize(validate_incidence(A_STD), IntPolynomial([1, 1]))
        assert g == AbelianGroup((2, 4))

    def test_x_squared_minus_one(self):
        g = abelianize(validate_incidence(A_STD), IntPolynomial([-1, 0, 1]))
        assert g == AbelianGroup((4, 8))

    def test_bad_constant_term(self):
        with pytest.raises(BadConstantTerm):
            abelianize(validate_incidence(A_STD), IntPolynomial([0, 1]))
        with pytest.raises(BadConstantTerm):
            abelianize(validate_incidence(A_STD), IntPolynomial([2, 1]))

    def test_singular_p_of_a_reports_free_rank(self):
        # the Fibonacci block satisfies its characteristic polynomial
        # x^2 - x - 1, so p(A) = 0 and the quotient is all of Z^2
        block = validate_incidence(IntMatrix([[1, 1], [1, 0]]))
        g = quotient_group(block.m, IntPolynomial([-1, -1, 1]))
        assert g == AbelianGroup((), free_rank=2)


class TestBowenFranks:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[5, 2], [2, 1]], AbelianGroup((2, 2))),
            ([[2, 1], [1, 1]], AbelianGroup(())),
            ([[3, 2], [1, 1]], AbelianGroup((2,))),
        ],
    )
    def test_known_groups(self, rows, expected):
        assert bowen_franks(validate_incidence(IntMatrix(rows))) == expected

    @given(incidence_matrices())
    def test_equals_abelianize_at_x_minus_1(self, m):
        a = validate_incidence(m)
        assert bowen_franks(a) == abelianize(a, X_MINUS_1)

    @given(incidence_matrices())
    def test_order_is_det_a_minus_i(self, m):
        det = determinant(m - IntMatrix.identity(2))
        group = bowen_franks(validate_incidence(m))
        if det != 0:
            assert group.order() == abs(det)
        else:
            assert group.free_rank > 0


@given(incidence_matrices(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_conjugation_invariance(m, seed):
    a = validate_incidence(m)
    b, b_inv = random_glnz(2, seed=seed)
    conjugate = (b @ m) @ b_inv
    for coeffs in ((-1, 1), (1, 1), (-1, -1, 1)):
        p = IntPolynomial(coeffs)
        assert quotient_group(conjugate, p) == quotient_group(m, p)


UNIT_CONSTANT_POLYS = ((-1, 1), (1, 1), (-1, -1, 1), (1, -2, 0, 1), (1, 3), (-1, 0, 2))


def _product(x, y) -> IntMatrix:
    """x @ y for rectangular integer matrices given as lists of rows."""
    cols = list(zip(*y))
    return IntMatrix([[sum(a * b for a, b in zip(row, c)) for c in cols] for row in x])


@st.composite
def elementary_shift_pairs(draw):
    """(R, S), R n x m and S m x n with entries 0..3: A = RS and B = SR are
    elementary strong shift equivalent, of sizes n and m."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = st.integers(0, 3)
    r = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    s = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return r, s


@given(elementary_shift_pairs(), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_strong_shift_equivalence_invariance(rs, seed):
    # the paper's invariant is one of strong shift equivalence, which may change n:
    # for p(x) = +-1 + x q(x) and V = S q(RS), p(RS) = +-I_n + R V and
    # p(SR) = +-I_m + V R, and coker(+-I + R V) = coker(+-I + V R)
    r, s = rs
    a, b = _product(r, s), _product(s, r)
    g, g_inv = random_glnz(b.n, seed=seed)
    b = (g @ b) @ g_inv  # one more link in the chain: a GL_m(Z) conjugation
    for coeffs in UNIT_CONSTANT_POLYS:
        p = IntPolynomial(coeffs)
        assert quotient_group(a, p) == quotient_group(b, p)


def test_shift_equivalence_needs_a_unit_constant_term():
    # control: at p = x + 2 the pair RS = [[1, 1], [1, 1]], SR = [[2]] differs
    r, s = [[1], [1]], [[1, 1]]
    p = IntPolynomial([2, 1])
    groups = [
        AbelianGroup.from_smith_diagonal(smith_diagonal(mat_poly_eval(p, m)))
        for m in (_product(r, s), _product(s, r))
    ]
    assert groups == [AbelianGroup((8,)), AbelianGroup((4,))]
    with pytest.raises(BadConstantTerm):
        quotient_group(_product(s, r), p)


def test_bowen_franks_quotient_of_every_4x4_zero_one_matrix(wall_bound):
    # all 65,536 m over {0, 1}; never shrink the box to pass.  Every minor of
    # m - I, entries in {-1, 0, 1}, is at most 16 in absolute value (Hadamard),
    # so over F_37 the residue gives det(m - I) exactly and the rank is the
    # rank over Q.  31,499 of the m - I are singular and reduce modulo a minor.
    q, singular = 37, 0
    with wall_bound(60):
        for entries in itertools.product((0, 1), repeat=16):
            rows = [entries[i:i + 4] for i in range(0, 16, 4)]
            det, rank = det_and_rank_mod(
                [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)], q
            )
            group = quotient_group(IntMatrix(rows), X_MINUS_1)
            if det:
                assert (group.order(), group.free_rank) == (min(det, q - det), 0), rows
            else:
                singular += 1
                assert group.free_rank == 4 - rank, rows
    assert singular == 31_499


@given(incidence_matrices())
def test_order_matches_determinant_of_p_of_a(m):
    for coeffs in ((-1, 1), (1, 1), (1, -2, 0, 1)):
        p = IntPolynomial(coeffs)
        det = determinant(mat_poly_eval(p, m))
        group = quotient_group(m, p)
        if det != 0:
            assert group.order() == abs(det)


class TestInvarianceProbe:
    def test_standard_matrix_probe(self):
        report = invariance_probe(
            validate_incidence(A_STD), X_MINUS_1, trials=100, seed=11
        )
        assert report.trials == 100
        assert report.failures == 0
        assert report.group == AbelianGroup((2, 2))

    def test_trivial_group_case(self):
        report = invariance_probe(
            validate_incidence(IntMatrix([[2, 1], [1, 1]])),
            X_MINUS_1,
            trials=20,
            seed=3,
        )
        assert report.failures == 0
        assert report.group == AbelianGroup(())

    def test_deterministic_for_seed(self):
        a = validate_incidence(A_STD)
        r1 = invariance_probe(a, X_MINUS_1, trials=10, seed=42)
        r2 = invariance_probe(a, X_MINUS_1, trials=10, seed=42)
        assert r1 == r2

    def test_propagates_bad_constant_term(self):
        with pytest.raises(BadConstantTerm):
            invariance_probe(
                validate_incidence(A_STD), IntPolynomial([0, 1]), trials=1, seed=0
            )

    def test_trial_cap(self, monkeypatch):
        """The cap itself runs; one trial more raises before any quotient."""
        calls = []

        def counting(m, p):
            calls.append(m)
            return AbelianGroup((2, 2))

        def counting_diagonal(rows):
            calls.append(rows)
            return (2, 2)

        monkeypatch.setattr(af_invariant, "quotient_group", counting)
        monkeypatch.setattr(af_invariant, "_smith_diagonal", counting_diagonal)
        a = validate_incidence(A_STD)
        cap = af_invariant._TRIAL_CAP
        assert invariance_probe(a, X_MINUS_1, trials=cap).trials == cap
        assert len(calls) == cap + 1  # the base group, then one per trial
        calls.clear()
        with pytest.raises(BudgetExceeded, match=f"{cap + 1} trials"):
            invariance_probe(a, X_MINUS_1, trials=cap + 1)
        assert calls == []

    @pytest.mark.parametrize("n,admitted", [(2, 4096), (32, 4096), (33, 3734), (64, 512)])
    def test_work_cap(self, monkeypatch, n, admitted):
        """One rule, trials * max(n, 32)^3 <= 4096 * 32^3: at its boundary the
        admitted count runs, and one trial more raises before any quotient."""
        calls = []

        def counting(m, p):
            calls.append(m)
            return AbelianGroup(())

        def counting_diagonal(rows):
            calls.append(rows)
            return (1,) * n

        monkeypatch.setattr(af_invariant, "quotient_group", counting)
        monkeypatch.setattr(af_invariant, "_smith_diagonal", counting_diagonal)
        lower = IntMatrix([[int(j in (i - 1, i)) for j in range(n)] for i in range(n)])
        upper = IntMatrix([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
        a = validate_incidence(lower @ upper)  # tridiagonal, det 1
        with pytest.raises(BudgetExceeded, match=f"{admitted + 1} trials at n = {n}"):
            invariance_probe(a, X_MINUS_1, trials=admitted + 1)
        assert calls == []
        assert invariance_probe(a, X_MINUS_1, trials=admitted).trials == admitted
        assert len(calls) == admitted + 1  # the base group, then one per trial

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_a_trial_diagonal_unlike_the_base_is_a_failure(self, monkeypatch, every):
        # (1, 4) is a Smith chain of the base's order 4, but Z_4 is not Z_2 + Z_2
        true_diagonal = af_invariant._smith_diagonal
        trials = []

        def wrong_every_kth(rows):
            trials.append(rows)
            d = true_diagonal(rows)
            return (1, 4) if len(trials) % every == 0 else d

        monkeypatch.setattr(af_invariant, "_smith_diagonal", wrong_every_kth)
        report = invariance_probe(validate_incidence(A_STD), X_MINUS_1, trials=20, seed=5)
        assert len(trials) == 20
        assert report.failures == 20 // every
        assert report.group == AbelianGroup((2, 2))

    def test_trials_keep_the_determinant_check(self, monkeypatch):
        # the base group's diagonal gets the true det mod q, each trial's a
        # wrong one, which only the check inside the trial can see
        true_det_mod_q = exact_linalg._det_mod_q
        calls = []

        def wrong_after_the_base(rows):
            calls.append(rows)
            r = true_det_mod_q(rows)
            return r if len(calls) == 1 else (r + 1) % exact_linalg._CHECK_PRIME

        monkeypatch.setattr(exact_linalg, "_det_mod_q", wrong_after_the_base)
        with pytest.raises(RuntimeError, match="prod\\(d\\) == \\|det"):
            invariance_probe(validate_incidence(A_STD), X_MINUS_1, trials=5, seed=0)
        assert len(calls) == 2


def _conjugate(m, rng):
    """The probe's conjugate of m, af_invariant._conjugate_rows on m's rows,
    as an IntMatrix."""
    return IntMatrix(af_invariant._conjugate_rows(m.rows, rng, af_invariant._move_table(m.n)))


def _replayed_b(n, rng):
    """(B, B^-1) from the draws one _conjugate call takes from rng, each row
    step on B mirrored by its inverse column step on B^-1, as random_glnz
    builds them."""
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in b]
    for _ in range(20):
        # one 64-bit draw a move, read as the digits op (3), i (n), j (n - 1), k
        r = rng.getrandbits(64)
        op = r % 3 if n > 1 else 1
        r //= 3
        i = r % n
        if op == 1:
            b[i] = [-x for x in b[i]]
            for row in inv:
                row[i] = -row[i]
            continue
        r //= n
        j = r % (n - 1)
        j += j >= i
        if op == 0:
            b[i], b[j] = b[j], b[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            k = (-3, -2, -1, 1, 2, 3)[r // (n - 1) % 6]
            b[i] = [x + k * y for x, y in zip(b[i], b[j])]
            for row in inv:
                row[j] -= k * row[i]
    return IntMatrix(b), IntMatrix(inv)


class TestConjugate:
    """The probe's in-place moves against B A B^-1 with B rebuilt from the
    same draws; a wrong move would otherwise show only as probe failures."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_is_b_a_b_inverse(self, n):
        m = IntMatrix([[(3 * i + 5 * j) % 7 - 2 for j in range(n)] for i in range(n)])
        moved, replay = random.Random(n), random.Random(n)
        for _ in range(25):  # one stream across calls, as the probe draws it
            b, b_inv = _replayed_b(n, replay)
            assert b @ b_inv == IntMatrix.identity(n)
            assert _conjugate(m, moved) == (b @ m) @ b_inv

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_move_table_reads_the_divmod_digits(self, n):
        # oracle: the draw split by divmod into op (3), i (n), j (n - 1,
        # shifted past i) and k's place in _MOVE_FACTORS, as _replayed_b reads it
        table = af_invariant._move_table(n)
        assert len(table) == 18 * n * (n - 1)
        rng = random.Random(n)
        draws = [rng.getrandbits(64) for _ in range(3000)]
        draws += [2**64 - 1 - t for t in range(100)] + list(range(100))
        for r in draws:
            q, op = divmod(r, 3)
            q, i = divmod(q, n)
            q, j = divmod(q, n - 1)
            assert table[r % len(table)] == (op, i, j + (j >= i), _MOVE_FACTORS[q % 6])

    def test_move_table_at_n_1_only_negates(self):
        assert af_invariant._move_table(1) == ((1, 0, 0, 0),)

    def test_probe_conjugates_from_its_seed(self, monkeypatch):
        seen = []

        def recording(m, p):
            seen.append(m)
            return quotient_group(m, p)

        def recording_rows(coeffs, rows):
            seen.append(IntMatrix(rows))
            return _poly_eval_rows(coeffs, rows)

        monkeypatch.setattr(af_invariant, "quotient_group", recording)
        monkeypatch.setattr(af_invariant, "_poly_eval_rows", recording_rows)
        invariance_probe(validate_incidence(A_STD), X_MINUS_1, trials=5, seed=9)
        replay = random.Random(9)
        expected = [A_STD]
        for _ in range(5):
            b, b_inv = _replayed_b(2, replay)
            expected.append((b @ A_STD) @ b_inv)
        assert seen == expected

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ).map(IntMatrix)
        ),
        st.integers(0, 2**32),
    )
    @settings(deadline=None)
    def test_keeps_similarity_invariants(self, m, seed):
        c = _conjugate(m, random.Random(seed))
        assert determinant(c) == determinant(m)
        for k in range(1, m.n + 1):
            assert mat_pow(c, k).trace() == mat_pow(m, k).trace()
        for coeffs in ((-1, 1), (1, 1), (-1, -1, 1)):
            p = IntPolynomial(coeffs)
            assert quotient_group(c, p) == quotient_group(m, p)

    @pytest.mark.parametrize(
        "m", [A_STD, IntMatrix([[2, 1, 0], [1, 1, 1], [0, 1, 3]])]
    )
    def test_control_most_conjugates_move(self, m):
        rng = random.Random(0)
        moved = sum(_conjugate(m, rng) != m for _ in range(200))
        assert moved >= 180

