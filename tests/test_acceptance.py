"""Acceptance gate: the ten quantitative claims the package must certify.

Each test runs one criterion at full grid size and prints a PASS/FAIL line
(visible with `pytest -s`).  The same checks back the `gibonacci verify`
command, so `gibonacci verify all` is the standalone entry point.

Every comparison is exact; the only widths involved are the certified
128-bit enclosures used to match trigonometric closed forms against
Sturm-isolated intervals.
"""

from gibonacci.verify import SUITES

# check name -> (check, grid), from the table that `gibonacci verify`
# runs, so the gate and the command share one set of grids
FULL = {check.__name__: (check, grid) for suite in SUITES.values() for check, grid in suite}


def _run(name: str):
    check, grid = FULL[name]
    return check(**grid)


def _report(criterion: str, result) -> None:
    status = "PASS" if result.ok else "FAIL"
    print(f"{status}  {criterion}: {result.name}")
    for detail in result.details:
        print(f"      {detail}")
    assert result.ok, f"{criterion} failed: {result.details}"


def test_criterion_01_array_fixtures():
    # rows 0-9 of both integer triangles, and the entry rule on rows 2-60
    # of the one-pass rows for five rational seed pairs
    _report("criterion 1", _run("check_array_fixtures"))


def test_criterion_02_polynomial_fixtures():
    # the printed row-7 (seeds 2,1) and row-15 (seeds 1,1) polynomials
    _report("criterion 2", _run("check_polynomial_fixtures"))


def test_criterion_03_root_geometry():
    # five seed pairs, rows 2..40: count = floor(k/2), all roots inside
    # (0, B), offset-1 and offset-2 interlacing, largest roots increasing
    _report("criterion 3", _run("check_root_geometry"))


def test_criterion_04_closed_form_roots():
    # 128-bit cosine/sine enclosures land in exactly one isolating interval
    # for k <= 24, and the row-15 roots are the seven nested radicals
    _report("criterion 4", _run("check_closed_form_roots"))


def test_criterion_05_binet_agreement():
    # 200 random (seeds, k <= 30, x) and square-discriminant points agree
    # exactly with the recurrence, and the eigenvalue product/sum identities
    # hold in Q[t]/(t^2 - D)
    _report("criterion 5", _run("check_binet_agreement"))


def test_criterion_06_six_move_game():
    # the worked (5,2,7/2,8/7) game: all displayed symbolic pairs for both
    # openings, six moves to (-a,-b), five moves from the boundary pairs
    _report("criterion 6", _run("check_six_move_reproduction"))


def test_criterion_07_classification():
    # divergence certificates; both move counts realized around every
    # threshold for gaps j <= 8 over three seed pairs, confirmed by play;
    # exact play at largest roots k <= 10 with terminal formulas and the
    # twin identity in the quotient ring
    _report("criterion 7", _run("check_classification_suite"))


def test_criterion_08_poset_counts():
    # the 48-element figure poset and its rank polynomial, the two named
    # n=3 size sequences, and enumeration = formula = inclusion-exclusion
    # over the full grid n <= 5, alpha < n, k <= 6
    _report("criterion 8", _run("check_poset_counts"))


def test_criterion_09_identity_suite():
    # the five rank-polynomial identities (the unit-family expansion in its
    # corrected form, see the posets tests for the printed variant's
    # counterexample), the closed form for cardinalities, the (3;4)
    # triangle fixture, palindromic rows, positivity boundary, and the
    # meet/join closure dichotomy
    _report("criterion 9", _run("check_identity_suite"))


def test_criterion_10_value_at_four():
    # both x = 4 evaluation identities for m <= 50 and five rational ratios
    _report("criterion 10", _run("check_value_at_four"))


def test_supplement_recurrence_identities():
    # unit-family decomposition and the exact companion transform, whose
    # polynomial identity implies the companion root duality
    _report("supplement", _run("check_recurrence_identities"))


def test_supplement_lattice_relations():
    # the lattice verdict and extreme counts from the digit relations equal
    # the full pairwise scan of an unmarked copy, and a non-distributive
    # report names a failing pair, for n <= 5, k = 2..5, alpha < n, <= 800
    # elements
    _report("supplement", _run("check_lattice_relations"))


def test_supplement_root_brackets():
    # every root of rows k <= 40 of the five root-geometry seed pairs lies
    # in its bracket between the roots of the unit rows k-1 and k-2 (up to
    # B for the last), and the cut points between the brackets certify
    _report("supplement", _run("check_root_brackets"))
