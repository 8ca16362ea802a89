"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (visible with -s or -rA;
the -v test name itself doubles as the per-criterion line) and then
asserts.  The expensive finite-difference runs are session fixtures shared
with the solver tests.
"""

from fpknl import checks


def report(criterion: str, results) -> None:
    ok = all(r.passed for r in results)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for r in results:
        print("  " + r.line())


def assert_all(criterion, results):
    report(criterion, results)
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def test_criterion_1_reduction_correctness(ref_case, fd_base, fd_refined):
    params, packet = ref_case
    results = checks.check_fd_reduction(params, packet, base=fd_base,
                                        refined=fd_refined)
    assert_all("1 reduction-correctness", [r for r in results
                                           if r.name.startswith("reduction")])


def test_criterion_2_moment_decoupling(ref_case, fd_base):
    params, packet = ref_case
    results = [r for r in checks.check_fd_reduction(params, packet,
                                                    base=fd_base, refine=False)
               if r.name == "moment-decoupling"]
    assert_all("2 moment-decoupling", results)


def test_criterion_3_mass_conservation(ref_case, fd_base):
    params, packet = ref_case
    results = checks.check_mass_conservation(params, packet)
    results += [r for r in checks.check_fd_reduction(params, packet,
                                                     base=fd_base, refine=False)
                if r.name == "fd-mass"]
    assert_all("3 mass-conservation", results)


def test_criterion_4_matriciant_laws():
    assert_all("4 matriciant-laws", checks.check_matriciant_laws())


def test_criterion_5_riccati_residual():
    assert_all("5 riccati-residual",
               checks.check_riccati_residual())


def test_criterion_6_roundtrip(ref_case):
    params, packet = ref_case
    assert_all("6 evolution-left-inverse-roundtrip",
               checks.check_roundtrip(params, packet))


def test_criterion_7_symmetry_routes(ref_case):
    params, packet = ref_case
    assert_all("7 symmetry-routes-agree",
               checks.check_symmetry_routes(params, packet))


def test_criterion_8_symmetry_outputs_solve(ref_case):
    params, packet = ref_case
    assert_all("8 symmetry-outputs-are-solutions",
               checks.check_symmetry_residual(params, packet))


def test_criterion_9_small_coupling_continuity():
    assert_all("9 small-coupling-continuity", checks.check_kappa_continuity())
