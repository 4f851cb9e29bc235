"""Acceptance suite: one test per exit criterion, each printing a PASS line.

All checks are exact (zero tolerance) except where a criterion is explicitly
about monotone convergence of exact rationals.  Known tensions between
recorded values and computed ones are exercised as WARN-style checks that
must report both values without failing the build (criterion 12).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

from fractions import Fraction

from frobpush import verify
from frobpush.catalog import (
    pushforward_hirzebruch,
    pushforward_linear_blowup,
    pushforward_product,
    pushforward_projective_space,
    pushforward_segre_cone,
    pushforward_veronese_cone,
)
from frobpush.combinat import PrimePower, binom, composition_count
from frobpush.restriction import restrict
from frobpush.localalg import (
    cone_pushforward,
    f_signature,
    f_signature_convergent,
    splitting_number,
)
from frobpush.picard import (
    Hirzebruch,
    LinearBlowup,
    Product,
    ProjSpace,
    RationalNormalCone,
    SegreCone,
    SegreConeBlowup,
    Spinor,
    VeroneseCone,
    VeroneseConeBlowup,
)
from frobpush.positivity import (
    VerdictStatus,
    ample_verdict,
    kernel_restriction_verdict,
    quadric_kernel_verdict,
    trace_kernel,
)
from frobpush.verify import (
    determinant_twist_sum,
    hirzebruch_block_multiplicities,
    hirzebruch_closed_multiplicities,
    volume_identity,
)

PRIMES = (2, 3, 5)


def fields(max_e, q_cap=None):
    out = []
    for p in PRIMES:
        for e in range(1, max_e + 1):
            fp = PrimePower(p, e)
            if q_cap is None or fp.q <= q_cap:
                out.append(fp)
    return out


def as_map(decomp):
    return {s.cls.coords: m for s, m in decomp.items()}


def test_c01_multiplicity_oracle_equivalence():
    checked = 0
    for fp in fields(max_e=4, q_cap=27):
        for d in (1, 2, 3):
            table = verify._coefficients(fp.q, d + 1)
            for i in range(-1, d + 2):
                for m in range(fp.q):
                    n = m + i * fp.q
                    assert composition_count(i, m, d, fp) == (table[n] if n >= 0 else 0)
                    checked += 1
    print(f"PASS criterion 1: closed form == convolution oracle ({checked} cases)")


def test_c02_sum_identity_and_support():
    for fp in fields(max_e=4, q_cap=27):
        q = fp.q
        for d in (1, 2, 3):
            for m in range(q):
                assert sum(composition_count(i, m, d, fp) for i in range(d + 1)) == q**d
                for i in range(-2, d + 3):
                    nonzero = composition_count(i, m, d, fp) != 0
                    assert nonzero == (0 <= m + i * q <= (d + 1) * (q - 1))
    print("PASS criterion 2: sum identity and support characterization")


def test_c03_shifted_sum_identity():
    for fp in fields(max_e=3):
        for d in (1, 2, 3, 4):
            for l in range(1, d + 1):
                swept = sum(composition_count(l - 1, j, d - 1, fp) for j in range(fp.q))
                assert swept == (
                    composition_count(l, 0, d, fp)
                    - composition_count(l, 0, d - 1, fp)
                    + composition_count(l - 1, 0, d - 1, fp)
                )
    print("PASS criterion 3: shifted residue-sum identity (d <= 4, e <= 3)")


def test_c04_hirzebruch_fixtures():
    for fp in fields(max_e=3):
        q = fp.q
        assert hirzebruch_block_multiplicities(1, fp) == (
            (q + 2) * (q - 1) // 2,
            (q - 2) * (q - 1) // 2,
        )
        if fp.p != 2:
            assert hirzebruch_block_multiplicities(2, fp) == (
                (q - 1) * (q + 1) // 4,
                (q - 1) * (2 * q + 2) // 4,
                (q - 1) * (q - 3) // 4,
            )
        else:
            assert hirzebruch_block_multiplicities(2, fp) == (
                (q // 2) ** 2,
                (q * q - 2) // 2,
                ((q - 2) // 2) ** 2,
            )
        got = hirzebruch_block_multiplicities(3, fp)
        if q == 3:
            assert got == (1, 3, 2, 0)
        elif q % 3 == 1:
            assert got == (
                q * (q - 1) // 6,
                (q + 1) * (q - 1) // 3,
                (q + 1) * (q - 1) // 3,
                (q - 4) * (q - 1) // 6,
            )
        elif q % 3 == 2:
            assert got == (
                (q + 1) * (q - 2) // 6,
                (q * q + 2) // 3,
                (q + 2) * (q - 2) // 3,
                (q - 3) * (q - 2) // 6,
            )
        else:
            assert got == (
                q * (q - 1) // 6,
                q * q // 3,
                (q * q - 3) // 3,
                (q - 3) * (q - 2) // 6,
            )
    # Small-q special row: the recorded value (1, 1, 0, 0) fails the block
    # summation, the mod-3 closed form, and a section count of the q-th
    # twist, which all give (0, 2, 0, 0); reported as a warning, asserted at
    # the reconciled value (see the fixtures verify suite and criterion 12).
    q2_row = hirzebruch_block_multiplicities(3, PrimePower(2, 1))
    assert q2_row == (0, 2, 0, 0)
    status, detail = verify.warn_hz_small_q_row(2, 1)
    assert status == "WARN" and "(1, 1, 0, 0)" in detail and "(0, 2, 0, 0)" in detail
    print("PASS criterion 4: ruled-surface fixture tables (q=2 row reconciled, WARN noted)")


def test_c05_sigma_closed_vs_blocks():
    for fp in fields(max_e=3):
        for eps in range(1, 7):
            assert hirzebruch_closed_multiplicities(
                eps, fp
            ) == hirzebruch_block_multiplicities(eps, fp)
    print("PASS criterion 5: sigma closed forms == four-block summation (eps <= 6, every q)")


def test_c06_rank_law():
    for fp in fields(max_e=2):
        q = fp.q
        for d in (1, 2, 3, 4):
            assert pushforward_projective_space(d, 0, fp).rank() == q**d
        for r in (1, 2):
            for s in (1, 2):
                assert pushforward_product(r, s, 0, 0, fp).rank() == q ** (r + s)
                assert pushforward_segre_cone(r, s, 0, 0, 0, fp).rank() == q ** (r + s + 1)
        for eps in range(0, 5):
            assert pushforward_hirzebruch(eps, 0, 0, fp).rank() == q**2
        for d in (2, 3, 4):
            for r in range(1, d):
                assert pushforward_linear_blowup(d, r, fp).rank() == q**d
        for d in (1, 2, 3, 4):
            for eps in (1, 2, 3, 4):
                if q >= eps:
                    assert (
                        pushforward_veronese_cone(d, eps, 0, 0, fp).rank() == q ** (d + 1)
                    )
    print("PASS criterion 6: rank law q^dim across the catalog")


def test_c07_cross_family_consistency():
    for fp in fields(max_e=2):
        blowup = pushforward_linear_blowup(2, 1, fp)
        mapped = {}
        for summand, mult in blowup.items():
            i, k = summand.cls.coords
            mapped[(i, i + k)] = mult  # H = C0 + f, H' = f
        assert mapped == as_map(pushforward_hirzebruch(1, 0, 0, fp))

        for eps in (1, 2, 3, 4):
            if fp.q < eps:
                continue
            cone = pushforward_veronese_cone(1, eps, 0, 0, fp)
            cone_mapped = {}
            for summand, mult in cone.items():
                a, b = summand.cls.coords
                cone_mapped[(a, a * eps + b)] = mult  # E = C0, H' = f
            assert cone_mapped == as_map(pushforward_hirzebruch(eps, 0, 0, fp))

        for d, r in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
            for l in range(d + 1):
                total = sum(
                    verify.blowup_multiplicity(i, l - i, d, r, fp)
                    for i in range(r + 1)
                    if 0 <= l - i <= d - r
                )
                assert total == composition_count(l, 0, d, fp)
    print("PASS criterion 7: cross-family consistency (blowup/ruled/cone collapse)")


def test_c08_chart_oracle():
    for p, e in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)):
        fp = PrimePower(p, e)
        q = fp.q
        assert q <= 16
        # Chart monomials x^i y^j, 0 <= i, j < q, with j <= i glue to O.
        trivial = sum(1 for i in range(q) for j in range(q) if j <= i)
        counts = (trivial, q * q - trivial)
        assert counts == (q * (q + 1) // 2, q * (q - 1) // 2)
        restricted = restrict(pushforward_linear_blowup(2, 1, fp))
        assert as_map(restricted) == {(0,): counts[0], (-1,): counts[1]}
    print("PASS criterion 8: chart oracle == restriction formulas (q <= 16)")


def test_c09_verdict_suite():
    for fp in fields(max_e=2):
        for d in (1, 2, 3, 4):
            assert (
                ample_verdict(trace_kernel(ProjSpace(d), fp)).status
                is VerdictStatus.AMPLE
            )
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                assert (
                    ample_verdict(trace_kernel(Product(r, s), fp)).status
                    is VerdictStatus.NEF_NOT_AMPLE
                )
        for eps in (1, 2, 3, 4, 5):
            verdict = kernel_restriction_verdict(Hirzebruch(eps), fp)
            assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
        for d in (2, 3, 4):
            for r in range(1, d):
                verdict = kernel_restriction_verdict(LinearBlowup(d, r), fp)
                assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
        for d in (1, 2, 3):
            for eps in (1, 2, 3, 4):
                if fp.q < eps:
                    continue
                verdict = kernel_restriction_verdict(VeroneseConeBlowup(d, eps), fp)
                assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
        for r in (1, 2):
            for s in (1, 2):
                verdict = kernel_restriction_verdict(SegreConeBlowup(r, s), fp)
                assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
    for p in PRIMES:
        for e in (1, 2, 3):
            fp = PrimePower(p, e)
            report = quadric_kernel_verdict(3, fp)
            if p == 2:
                assert (
                    report.support_verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
                )
                assert Spinor(1) in report.support.entries
            else:
                assert report.support_verdict.status is VerdictStatus.AMPLE
                spinor_present = Spinor(2) in report.support.entries
                assert spinor_present == ((e, p) != (1, 3))
            assert not report.disagreement  # d=3: both verdicts agree
    print("PASS criterion 9: verdict suite (ample / nef / witnessed, quadric d=3)")


def test_c10_local_algebra():
    assert splitting_number(SegreCone(1, 1), PrimePower(2, 1)) == 6
    # Two independent routes (composition-count sum vs coefficient
    # extraction) are compared inside splitting_number; exercise the sweep.
    for fp in fields(max_e=3, q_cap=9):
        for r in (1, 2):
            for s in (1, 2):
                number = splitting_number(SegreCone(r, s), fp)
                assert (
                    number
                    == cone_pushforward(SegreCone(r, s), fp).trivial_multiplicity()
                )
    for p in PRIMES:
        for e in (1, 2, 3):
            fp = PrimePower(p, e)
            assert splitting_number(RationalNormalCone(p), fp) == fp.q**2 // p

    convergence_cases = [
        (RationalNormalCone(2), 3),
        (RationalNormalCone(3), 2),
        (RationalNormalCone(3), 5),
        (RationalNormalCone(4), 3),
        (VeroneseCone(2, 2), 3),
        (VeroneseCone(2, 3), 5),
        (VeroneseCone(3, 2), 3),
        (SegreCone(1, 1), 2),
        (SegreCone(1, 2), 2),
        (SegreCone(2, 2), 2),
        (SegreCone(2, 2), 3),
    ]
    for kind, p in convergence_cases:
        target = f_signature(kind)
        if isinstance(kind, (RationalNormalCone, VeroneseCone)):
            assert target == Fraction(1, kind.eps)
        errors = [
            abs(f_signature_convergent(kind, PrimePower(p, e)) - target)
            for e in range(1, 5)
        ]
        assert all(x > y for x, y in zip(errors, errors[1:])), (kind, p, errors)
    assert f_signature(SegreCone(1, 1)) == Fraction(2, 3)
    assert f_signature(VeroneseCone(2, 3)) == Fraction(1, 3)
    print("PASS criterion 10: splitting numbers and F-signature convergence")


def test_c11_determinant_and_volume():
    for fp in fields(max_e=2):
        for d in (1, 2, 3):
            cls = determinant_twist_sum(d, fp)
            assert cls.coords == (-d * fp.q**d * (fp.q - 1) // 2,)
    for fp in fields(max_e=3):
        for d in (1, 2, 3):
            for a in (1, 2, 3):
                holds, _ = volume_identity(d, a, fp)
                assert holds
    for p in PRIMES:
        for a in (1, 2, 3):
            deficits = [volume_identity(1, a, PrimePower(p, e))[1] for e in range(1, 5)]
            assert all(x < y for x, y in zip(deficits, deficits[1:]))
            assert deficits[-1] < a
        for d in (2, 3):
            for a in (1, 2, 3):
                errors = [
                    abs(volume_identity(d, a, PrimePower(p, e))[1] - a**d)
                    for e in range(2, 5)
                ]
                assert all(x > y for x, y in zip(errors, errors[1:]))
    print("PASS criterion 11: determinant-sum and section-count identities")


def test_c12_known_tension_reporting():
    status, detail = verify.warn_quadric_p2_high_d(1, 4)
    assert status == "WARN"
    assert "Ample" in detail and "NotAmpleWithWitness" in detail

    status, detail = verify.warn_blowup_k0_claim(3, 1, 2, 1)
    assert status == "WARN"
    fp = PrimePower(3, 1)
    recorded = fp.q * binom(fp.q + 1, 1)
    computed = fp.q * (fp.q + 1) // 2
    assert str(recorded) in detail and str(computed) in detail

    status, detail = verify.warn_hz_small_q_row(2, 1)
    assert status == "WARN"
    assert "(1, 1, 0, 0)" in detail and "(0, 2, 0, 0)" in detail

    # The build stays green with warnings: the fixtures suite must contain
    # WARN rows and no FAIL rows.
    report = verify.run_suites(["fixtures"], max_d=3, max_e=2, primes=(2, 3, 5))
    (_, results), = report
    statuses = {res.status for res in results}
    assert "WARN" in statuses
    assert "FAIL" not in statuses
    print("PASS criterion 12: known tensions reported as WARN, build green")
