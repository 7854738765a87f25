"""Rational parsing, filter/kernel construction and its refusals,
sampled nonnegativity, grids, JSON I/O."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from filtered_spectra.kernel import (Filter, IntervalPartition, Kernel,
                                     angular_grid, as_kernel, compass_filter,
                                     constant_kernel, kernel_from_filter,
                                     kernel_grid_matrix, rat,
                                     read_color_document, unit_partition,
                                     validate_kernel)
from conftest import BRANCH_KERNELS, rank_two_kernel, \
    seeded_two_interval_kernel, two_point_kernel


def test_interval_partition_validation():
    with pytest.raises(ValueError):
        IntervalPartition((0,))
    with pytest.raises(ValueError):
        IntervalPartition((0, Fraction(1, 2)))
    with pytest.raises(ValueError):
        IntervalPartition((0, Fraction(2, 3), Fraction(1, 3), 1))
    p = IntervalPartition((0, Fraction(1, 3), 1))
    assert p.n == 2
    assert p.lengths == (Fraction(1, 3), Fraction(2, 3))
    assert p.locate(0) == 0
    assert p.locate(Fraction(1, 3)) == 1
    assert p.locate(1) == 1
    with pytest.raises(ValueError):
        p.locate(2)


def test_compass_filter_taps():
    h = compass_filter()
    assert kernel_from_filter(h).band == 2
    assert h.l2_norm_sq() == 1
    assert h(1, 1) == Fraction(1, 2)
    assert h(1, -1) == Fraction(1, 2)
    assert h(0, 0) == 0
    assert h(2, 0) == 0


def test_filter_symmetry_enforced():
    with pytest.raises(ValueError, match="symmetry"):
        Filter({(1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="zero"):
        Filter({(1, 1): 0})
    # h(-i,-j) = h(j,i) pairs the tap at (1,0) with the one at (0,-1)
    h = Filter({(1, 0): Fraction(1, 3), (0, -1): Fraction(1, 3)})
    # taps one step out, but s_ij = sum h(i+c, j+d) h(c, d) has only the
    # modes (0, 0) and +-(1, 1): its band is 1
    assert kernel_from_filter(h).band == 1


def test_compass_kernel_coefficients():
    k = kernel_from_filter(compass_filter())
    # s = 4 cos^2(t1) cos^2(t2) = (1 + cos 2t1)(1 + cos 2t2)
    assert k.band == 2
    assert k.den == 4 and k.coeffs[(0, 0, 0, 0)] == (4, 0)
    for i, j, want in [(2, 0, Fraction(1, 2)), (0, -2, Fraction(1, 2)),
                       (2, 2, Fraction(1, 4)), (-2, 2, Fraction(1, 4)),
                       (1, 0, 0), (1, 1, 0)]:
        re, im = k.coeffs.get((i, j, 0, 0), (0, 0))
        assert Fraction(re, k.den) == want and im == 0
    assert k.l1_norm() == 1  # = ||h||_2^2
    assert k.sup_norm() == pytest.approx(4.0, abs=1e-12)
    assert k.amplitude() == pytest.approx(4.0, abs=1e-12)


def test_constant_kernel_basics():
    k = constant_kernel()
    assert k.band == 0
    assert k.partition.n == 1
    assert k.sup_norm() == pytest.approx(1.0)
    assert k.amplitude() == pytest.approx(2.0)
    assert k.l1_norm() == 1


def test_validate_accepts_the_house_kernels():
    for k in (constant_kernel(), kernel_from_filter(compass_filter()),
              rank_two_kernel(), two_point_kernel(),
              seeded_two_interval_kernel()):
        report = validate_kernel(k)
        assert report.ok, report.messages
        assert k.l1_norm() > 0


def test_validate_rejects_negative_kernel():
    bad = Kernel(unit_partition(), {(0, 0, 0, 0): -1})
    report = validate_kernel(bad)
    assert not report.ok
    assert not report.checks["nonnegative"]


def test_validate_rejects_a_kernel_a_hair_below_zero():
    # s = -1e-13 has ||s||_1 < 0; with the nondegeneracy check gone, the
    # slack scales with the kernel, so this still fails as negative
    bad = Kernel(unit_partition(), {(0, 0, 0, 0): "-1/10000000000000"})
    report = validate_kernel(bad)
    assert not report.ok
    assert report.messages == ["s < 0 (= -1.000e-13) at interval cell "
                               "(0,0), angles (0.0000, 0.0000)"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: nonnegativity is "
                   "sampled on T = max(4K + 1, 8) angles, not certified")
def test_validate_rejects_a_kernel_negative_between_the_grid_angles():
    # s = 19/10 + cos(t1 + pi/8) + cos(t2 + pi/8), with c = 0.462 + 0.191i
    # for e^(i pi/8)/2: its minimum is 1.9 - 4|c| = -0.100, but on the
    # 8-angle grid it is +0.052, so validate_kernel passes it today
    c, conj_c = ("0.462", "0.191"), ("0.462", "-0.191")
    k = Kernel(unit_partition(), {
        (0, 0, 0, 0): "19/10",
        (1, 0, 0, 0): c, (-1, 0, 0, 0): conj_c,
        (0, 1, 0, 0): c, (0, -1, 0, 0): conj_c})
    assert float(np.min(kernel_grid_matrix(k, 256))) < -0.09
    report = validate_kernel(k)
    assert not report.ok
    assert not report.checks["nonnegative"]


def test_validate_rejects_asymmetric_kernel():
    with pytest.raises(ValueError, match=re.escape(
            "entry (1, 0, 0, 0) breaks conj(s_ij) = s_(-i,-j): "
            "entry (-1, 0, 0, 0) is not its conjugate")):
        Kernel(unit_partition(), {(1, 0, 0, 0): 1, (0, 0, 0, 0): 2})


def test_validate_rejects_exchange_violation():
    # real and conjugate-symmetric but s_ij != s_ji with swapped intervals
    part = IntervalPartition((0, Fraction(1, 2), 1))
    with pytest.raises(ValueError, match=re.escape(
            "entry (0, 0, 0, 1) breaks s_ji(b, a) = s_ij(a, b): "
            "entry (0, 0, 1, 0) is not equal to it")):
        Kernel(part, {(0, 0, 0, 1): 1, (0, 0, 1, 0): 2,
                      (0, 0, 0, 0): 3, (0, 0, 1, 1): 3})


@pytest.mark.parametrize("coeffs", [{}, {(0, 0, 0, 0): 0},
                                    {(1, -1, 0, 0): ("0", "0")}])
def test_kernel_refuses_a_zero_table(coeffs):
    with pytest.raises(ValueError, match="kernel is identically zero"):
        Kernel(unit_partition(), coeffs)


@pytest.mark.parametrize("make, key, size", [
    (lambda key: Kernel(unit_partition(), {key: 1}), (0, 0, 0), 4),
    (lambda key: Kernel(unit_partition(), {key: 1}), (0, 0, 0, 0, 0), 4),
    (lambda key: Filter({key: 1}), (1,), 2),
    (lambda key: Filter({key: 1}), (0, 0, 0), 2),
    (lambda key: Filter({key: 1}), 0, 2)])
def test_malformed_keys_name_the_entry(make, key, size):
    # these raised a bare "not enough values to unpack" or "too many"
    with pytest.raises(ValueError, match=re.escape(
            f"entry {key!r} is not a tuple of {size} indices")):
        make(key)


@pytest.mark.parametrize("value", [(1,), (1, 0, 0)])
def test_kernel_values_of_the_wrong_length_name_the_entry(value):
    # these raised a bare "not enough values to unpack" or "too many"
    with pytest.raises(ValueError, match=re.escape(
            f"entry (0, 0, 0, 0) has value {value!r}, not a rational or "
            "an (re, im) pair")):
        Kernel(unit_partition(), {(0, 0, 0, 0): value})


@pytest.mark.parametrize("entry", [(-1, 0), (1, 0), (0, -2), (2, 1)])
def test_every_entry_gets_its_own_column(entry):
    # a band declared beside the table let an entry at (-1, 0) overwrite
    # s_00 through numpy's negative index in coeff_array; the band read
    # off the table has a column for every entry
    i, j = entry
    orbit = {(i, j), (-i, -j), (j, i), (-j, -i)}
    k = Kernel(unit_partition(), {(0, 0, 0, 0): 2}
               | {(a, b, 0, 0): 1 for a, b in orbit})
    K, arr = k.band, k.coeff_array()
    assert K == max(abs(i), abs(j))
    assert arr[K, K, 0, 0] == 2
    for a, b in orbit:
        assert arr[a + K, b + K, 0, 0] == 1
    assert np.count_nonzero(arr) == 1 + len(orbit)


@pytest.mark.parametrize("seed", range(8))
def test_sup_norm_bounds_the_kernel_on_a_fine_grid(seed):
    # sup_norm is an upper bound by construction; these kernels peak where
    # every mode is +-1, so the bound is also attained
    k = seeded_two_interval_kernel(seed)
    fine = float(np.max(kernel_grid_matrix(k, 256)))
    assert k.sup_norm() >= fine
    assert k.sup_norm() == pytest.approx(fine, rel=1e-12)


def test_grid_matrix_matches_coefficients():
    k = kernel_from_filter(compass_filter())
    T = 16
    grid = kernel_grid_matrix(k, T)
    th = angular_grid(T)
    want = 4.0 * np.cos(th[2]) ** 2 * np.cos(th[5]) ** 2
    assert grid[2, 5] == pytest.approx(want, abs=1e-12)
    wts = np.full(T, 1.0 / T)
    assert wts.sum() == pytest.approx(1.0)
    # integral of s against the product grid = l1 norm
    assert wts @ grid @ wts == pytest.approx(1.0, abs=1e-12)


def test_json_round_trip_filter():
    doc = {"type": "filter",
           "entries": [[1, -1, "1/2"], [1, 1, "1/2"],
                       [-1, 1, "1/2"], [-1, -1, "1/2"]]}
    h = read_color_document(doc)
    assert isinstance(h, Filter)
    assert h.taps == compass_filter().taps
    k = as_kernel(doc)
    assert k.coeffs == kernel_from_filter(h).coeffs


def test_json_round_trip_kernel():
    k = rank_two_kernel()
    doc = {"type": "kernel",
           "breakpoints": [str(b) for b in k.partition.breakpoints],
           "coeffs": [[i, j, a, b, f"{re}/{k.den}", f"{im}/{k.den}"]
                      for (i, j, a, b), (re, im) in k.coeffs.items()]}
    back = read_color_document(doc)
    assert back.band == k.band
    assert (back.coeffs, back.den) == (k.coeffs, k.den)
    assert read_color_document('{"type": "filter", "entries": [[0, 0, 1]]}') \
        .taps == {(0, 0): Fraction(1)}
    with pytest.raises(ValueError, match="unknown"):
        read_color_document({"type": "spline"})


TWO_HALVES = {"type": "kernel", "breakpoints": [0, "1/2", 1]}


@pytest.mark.parametrize("doc, message", [
    ({"breakpoints": [0, 1], "coeffs": []}, "no 'type'"),
    ({"type": "kernel", "coeffs": []}, "no 'breakpoints'"),
    ({"type": "kernel", "breakpoints": [0, 1]}, "no 'coeffs'"),
    ({"type": "filter"}, "no 'entries'"),
    ({"type": "filter", "entries": [[0, 0, 1], [1, 1]]},
     r"entries\[1\] = \[1, 1\]"),
    ({"type": "kernel", "breakpoints": [0, 1],
      "coeffs": [[0, 0, 0, 0, 1, 0, 0]]}, r"coeffs\[0\]"),
    ('{"type": "kernel", bad', "property name"),
    # a negative interval index aliased to the last interval, one past
    # the end raised a bare IndexError, fractions were truncated
    (TWO_HALVES | {"coeffs": [[0, 0, 0, 0, 1, 0], [0, 0, 1, 1, 1, 0],
                              [0, 0, -1, -1, 2, 0]]},
     r"\(0, 0, -1, -1\) has an interval index outside 0\.\.1"),
    (TWO_HALVES | {"coeffs": [[0, 0, 0, 2, 1, 0]]},
     r"\(0, 0, 0, 2\) has an interval index outside 0\.\.1"),
    (TWO_HALVES | {"coeffs": [[0.5, 0, 0, 0, 1, 0]]},
     r"\(0\.5, 0, 0, 0\) has an index that is not an integer"),
    (TWO_HALVES | {"coeffs": [[0, 0, True, 0, 1, 0]]},
     "index that is not an integer"),
    (TWO_HALVES | {"coeffs": [[0, [0], 0, 0, 1, 0]]},
     "index that is not an integer"),
    ({"type": "filter", "entries": [[1.7, 0, 1], [0, -1, 1]]},
     r"\(1\.7, 0\) has an index that is not an integer"),
    # null, true and list values raised a bare TypeError
    (TWO_HALVES | {"coeffs": [[0, 0, 0, 0, None, 0]]},
     "None is not a rational value"),
    (TWO_HALVES | {"coeffs": [[0, 0, 0, 0, 1, True]]},
     "True is not a rational value"),
    ({"type": "filter", "entries": [[0, 0, [1]]]},
     r"\[1\] is not a rational value"),
    ({"type": "filter", "entries": [[0, 0, True]]},
     "True is not a rational value"),
    ({"type": "kernel", "breakpoints": [0, None, 1], "coeffs": []},
     "None is not a rational value")])
def test_malformed_documents_name_the_key(doc, message):
    with pytest.raises(ValueError, match=message):
        read_color_document(doc)


def test_rat_names_what_it_refuses():
    assert rat(0.1) == Fraction(3602879701896397, 36028797018963968)
    assert rat(" -3/6 ") == rat("-0.5") == Fraction(-1, 2)
    for bad in (None, True, False, [1], 1j, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="is not a rational value"):
            rat(bad)
    with pytest.raises(ValueError, match="'1/x'"):
        rat("1/x")


def test_rat_refuses_a_zero_denominator():
    # Fraction("1/0") raised a bare ZeroDivisionError
    for bad in ("1/0", " -0/0 "):
        with pytest.raises(ValueError, match=re.escape(
                f"{bad!r} has a zero denominator")):
            rat(bad)


def _kernel_with(v):
    return Kernel(unit_partition(), {(0, 0, 0, 0): 1, (1, -1, 0, 0): v,
                                     (-1, 1, 0, 0): v})


@pytest.mark.parametrize("make, entry, value", [
    (_kernel_with, (1, -1, 0, 0), "1e999"),
    (lambda v: Kernel(unit_partition(), {
        (0, 0, 0, 0): 1, (1, 1, 0, 0): (0, v), (-1, -1, 0, 0): (0, "-" + v)}),
     (1, 1, 0, 0), "1e309"),
    (_kernel_with, (1, -1, 0, 0), 10 ** 400),
    (lambda v: Filter({(1, -1): v}), (1, -1), "2e308")])
def test_values_past_float64_are_refused_by_entry(make, entry, value):
    # float(value) overflowed later, in coeff_array or the sampler
    with pytest.raises(ValueError, match=re.escape(
            f"entry {entry!r} has value {value!r}, which does not fit "
            "a float64")):
        make(value)
    make("1e308")  # the largest decade that fits is accepted


def _canonical(kern):
    """Zero entries dropped, den > 0 in lowest terms."""
    parts = [x for v in kern.coeffs.values() for x in v]
    return all(v != (0, 0) for v in kern.coeffs.values()) and kern.den > 0 \
        and math.gcd(kern.den, *parts) == 1


def test_kernel_table_is_canonical():
    # one kernel in five spellings: equal tables, zeros dropped, den in
    # lowest terms
    part = IntervalPartition((0, Fraction(1, 4), 1))
    keys = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
            (1, -1, 1, 1)]
    want = {(0, 0, 0, 0): (6, 0), (0, 0, 0, 1): (1, 0),
            (0, 0, 1, 0): (1, 0), (0, 0, 1, 1): (16, 0)}
    for values in ([Fraction(3, 4), Fraction(1, 8), Fraction(1, 8), 2, 0],
                   ["3/4", "2/16", "1/8", "4/2", "0/5"],
                   ["0.75", "0.125", " 0.125", "2", "-0.0"],
                   [0.75, 0.125, 0.125, 2.0, 0.0],
                   [(Fraction(3, 4), 0), ("1/8", "0"), (0.125, 0),
                    (2, 0.0), (0, 0)]):
        k = Kernel(part, dict(zip(keys, values)))
        assert (k.coeffs, k.den) == (want, 8) and _canonical(k)
    k = Kernel(part, {keys[0]: 3, keys[3]: 0})
    assert (k.coeffs, k.den) == ({keys[0]: (3, 0)}, 1)
    with pytest.raises(ValueError, match="not its conjugate"):
        Kernel(part, {keys[0]: ("2/3", "-4/3")})


@pytest.mark.parametrize("name", list(BRANCH_KERNELS))
def test_coeff_array_rounds_each_part_once(name):
    kern = BRANCH_KERNELS[name]()
    K, arr = kern.band, kern.coeff_array()
    want = np.zeros_like(arr)
    for (i, j, a, b), (re, im) in kern.coeffs.items():
        want[i + K, j + K, a, b] = complex(float(Fraction(re, kern.den)),
                                           float(Fraction(im, kern.den)))
    assert arr.tobytes() == want.tobytes()


def test_text_not_starting_with_a_brace_is_a_path():
    with pytest.raises(FileNotFoundError, match=r"'\[1, 2\]'"):
        read_color_document("[1, 2]")


@st.composite
def filters(draw):
    pairs = draw(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                  st.fractions(min_value=Fraction(-1), max_value=Fraction(1),
                               max_denominator=4)),
        min_size=1, max_size=3))
    taps = {}
    for i, j, v in pairs:
        taps[(i, j)] = v
        taps[(-j, -i)] = v  # closes the h(-i,-j) = h(j,i) orbit
    if all(v == 0 for v in taps.values()):
        taps[(0, 0)] = Fraction(1)
    return Filter(taps)


@given(filters())
def test_filter_kernels_always_validate(h):
    k = kernel_from_filter(h)
    assert k.band == max(max(abs(i), abs(j)) for i, j, _, _ in k.coeffs)
    assert k.band <= 2 * max(max(abs(i), abs(j)) for i, j in h.taps)
    assert _canonical(k)
    report = validate_kernel(k)
    assert report.ok, report.messages
    assert Fraction(k.l1_norm()) == h.l2_norm_sq()
