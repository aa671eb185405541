"""The acceptance gate: one test per criterion, exact tolerances.

Each test prints a single pass/fail line for its criterion; the suite is
also reachable as ``connexa selftest``.
"""

from connexa import selftest


def _drive(name, fn, **kw):
    passed, detail = fn(**kw)
    print(f"{'pass' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, detail


def test_criterion_1_flatness_sweep():
    _drive("criterion 1 normal-form flatness sweep",
           selftest.criterion_flatness_sweep)


def test_criterion_2_round_trip():
    _drive("criterion 2 round-trip normalization",
           selftest.criterion_round_trip)


def test_criterion_3_elementary_dichotomy():
    _drive("criterion 3 elementary dichotomy",
           selftest.criterion_elementary_dichotomy)


def test_criterion_4_birkhoff_table():
    _drive("criterion 4 pencil decision table",
           selftest.criterion_birkhoff_table)


def test_criterion_5_malgrange_fidelity():
    _drive("criterion 5 deformation ODE fidelity",
           selftest.criterion_malgrange_fidelity)


def test_criterion_6_second_type_replay():
    _drive("criterion 6 second-type normal-form replay",
           selftest.criterion_holo_replay)


def test_criterion_7_euler_suite():
    _drive("criterion 7 rescaling-field suite",
           selftest.criterion_euler_suite)


def test_criterion_8_appendix_suite():
    _drive("criterion 8 solvable-problem suite",
           selftest.criterion_appendix_suite)


def test_criterion_9_cross_module():
    _drive("criterion 9 cross-module coherence",
           selftest.criterion_cross_module)
