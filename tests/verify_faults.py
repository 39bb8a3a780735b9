"""The fault table of the verify checks, FAULTS, read by ``test_cli``
and ``test_checks``, and its one census planter, ``bump_census``, which
``test_series`` also plants.

FAULTS has one row per check of ``invseq.checks.CHECKS``, with the
check's OK line, the depths of its order test and its planted faults.
A new check adds one row here, and the tests of both modules then cover
it: ``test_cli.py::test_every_check_prints_its_ok_and_fail_lines``
plants each fault after a warm ``invseq verify`` and in an emptied
registry, and ``test_checks.py::test_output_does_not_depend_on_request_order``
runs the checks at their depths in any order, all in one process and
each alone with its first fault planted.  A plant is a function of the
real value of the slot that returns the planted one."""

from invseq import checks, series, succession
from invseq.succession import SYSTEMS


def _bump_at(k, key=None):
    """A plant for a route that returns a sequence: add 1 to its entry
    k, when it has one, on the calls whose first argument is key when
    key is given."""
    def plant(real):
        def planted(*args):
            out = real(*args)
            if len(out) > k and (key is None or args[0] == key):
                out = list(out)
                out[k] += 1
            return out
        return planted
    return plant


def _bump_count(at):
    """A plant for the (k,F,F) step or the 201-210 kernel: one more in
    the count of the level at depth at, whose (k,F,F) slice has at + 1
    entries."""
    def plant(real):
        def planted(level):
            new, count = real(level)
            a = level[0] if isinstance(level, tuple) else level
            return new, count + (len(a) == at + 1)
        return planted
    return plant


def _raise_at(k):
    """A closed-form step raising at the state before x^k."""
    def plant(real):
        def planted(level):
            if level[0] == k:
                raise ArithmeticError("planted at x^%d" % k)
            return real(level)
        return planted
    return plant


def _bump_slice(length, at):
    """A step whose new slices, one entry longer than their input, get
    one more at entry ``at`` when they have the given length."""
    def plant(real):
        def planted(level):
            new, count = real(level)
            if len(new) == length:
                new = [*new[:at], new[at] + 1, *new[at + 1:]]
            return new, count
        return planted
    return plant


def _bump_fe(real):
    """The 011-201 slice step with one more uv^0 term at x^6."""
    def planted(slice_):
        out = real(slice_)
        if len(out) == 7:
            out = [out[0], [out[1][0] + 1, *out[1][1:]], *out[2:]]
        return out
    return planted


def bump_census(real):
    """The 201-210 kernel with one more (k,F,F) state at x^5 u^2, in the
    slices of the level it steps to."""
    def planted(level):
        new, accepted = real(level)
        a, b, c = succession._decode_201_210(new)
        if len(a) == 6:
            new = succession._encode_201_210(([*a[:2], a[2] + 1, *a[3:]],
                                              b, c))
        return new, accepted
    return planted


def _bump_system_step(real):
    """The step of the system prefix, handed the 201-210 kernel with one
    more (k,F,F) state at x^5 u^2 (see bump_census)."""
    def planted(prev, kernel, decode, axiom):
        return real(prev, bump_census(kernel), decode, axiom)
    return planted


def flip_010(real):
    """The sliced checker, made wrong on the word 010 only: bit 3 of the
    words of length 3 (see core._value_masks)."""
    return lambda n, lt: real(n, lt) ^ (1 << 3 if n == 3 else 0)


B_011_201 = ((0, 1, 1), (2, 0, 1))
SYSTEM_201_210 = vars(SYSTEMS["201-210"])
# The fault table, one row per check: (its OK line through n, the depths
# of its order test, its faults), each fault (namespace, planted slot,
# plant, warm depth, depth, FAIL line), the first one the plant of its
# order test.  A series name is planted in invseq.series, from which the
# check imports it when it runs, and a census step in invseq.checks.  A
# minpoly check's residual is keyed on the prefixes it reads, so a fault
# in the step of one of them reaches it.
FAULTS = {
    "gf-vs-rules": (
        "OK: closed form matches the rules through n=%d", (0, 2, 9, 40, 25),
        [(vars(series), "f_coefficients", _bump_at(3), 6, 6,
          "FAIL at n=3: closed form 7 != rules 6"),
         (vars(series), "_f_step", _raise_at(7), 30, 20,
          "FAIL: planted at x^7")]),
    "oracle-vs-rules": (
        "OK: oracle matches the rules for all three systems through n=%d",
        (0, 4, 8, 6),
        [(vars(checks), "count_sequence", _bump_at(5, B_011_201), 6, 6,
          "FAIL for 011-201 at n=5: oracle 52 != rules 51")]),
    "minpoly-A": (
        "OK: relation holds through n=%d", (0, 1, 13, 40, 64, 90),
        [(vars(checks), "_step_ff", _bump_count(4), 8, 8,
          "FAIL: residual first nonzero at order 4"),
         (vars(checks), "_step_ff", _bump_slice(5, 2), 40, 20,
          "FAIL: residual first nonzero at order 4")]),
    "minpoly-B": (
        "OK: relation holds through n=%d", (0, 1, 13, 40, 64, 90),
        [(vars(checks), "_step_ff", _bump_count(4), 8, 8,
          "FAIL: residual first nonzero at order 5"),
         (vars(checks), "_step_ff", _bump_slice(5, 2), 40, 20,
          "FAIL: residual first nonzero at order 5"),
         (SYSTEM_201_210, "kernel", bump_census, 40, 20,
          "FAIL: residual first nonzero at order 6")]),
    "minpoly-F": (
        "OK: relation holds through n=%d", (0, 1, 13, 40, 64, 90),
        [(SYSTEM_201_210, "kernel", _bump_count(4), 8, 8,
          "FAIL: residual first nonzero at order 5"),
         (SYSTEM_201_210, "kernel", bump_census, 40, 20,
          "FAIL: residual first nonzero at order 6")]),
    "system-201-210": (
        "OK: all seven bivariate identities hold through n=%d",
        (0, 1, 3, 13, 40, 64, 90, 5, 25),
        [(vars(checks), "_fast_step_201_210", bump_census, 8, 8,
          "FAIL: equation A first differs at x^5 u^2"),
         (vars(checks), "_fast_step_201_210", bump_census, 40, 20,
          "FAIL: equation A first differs at x^5 u^2"),
         (vars(series), "_system_step", _bump_system_step, 40, 20,
          "FAIL: equation A first differs at x^5 u^2")]),
    "structure-theorem": (
        "OK: checker agrees with pattern avoidance for all inversion "
        "sequences through n=%d", (0, 2, 3, 7, 5, 6),
        [(vars(checks), "_sliced_checker", flip_010, 4, 4,
          "FAIL at e=010: checker False, avoidance True")]),
    "fe-vs-rules": (
        "OK: functional-equation iteration matches the rules through n=%d",
        (0, 3, 30, 8, 5),
        [(vars(series), "iterate_fe", _bump_at(4, "010-100-120-210"), 6, 6,
          "FAIL for 010-100-120-210 at n=4: iteration 16 != rules 15"),
         (series._FE_STEP, "011-201", _bump_fe, 20, 10,
          "FAIL for 011-201 at n=6: iteration 190 != rules 189")]),
    "wilf-011-201": (
        "OK: the two systems agree through n=%d (evidence for the "
        "conjecture, not a proof)", (0, 5, 60, 7),
        [(vars(checks), "rule_counting_sequence",
          _bump_at(6, "010-100-120-210"), 8, 8,
          "FAIL at n=6: 011-201 gives 189, 010-100-120-210 gives 190")]),
    "conjecture-010-102": (
        "OK: conjectured cubic fits brute-force counts through n=%d "
        "(evidence, not a proof)", (0, 4, 11, 6),
        [(vars(checks), "count_sequence", _bump_at(5), 8, 8,
          "FAIL: cubic residual first nonzero at order 5")]),
}
