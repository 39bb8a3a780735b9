"""The per-process state of the structure-theorem check: each inversion
sequence goes to the structure checker and to pattern avoidance once per
process, whatever the order of the requests, and the printed lines are
those of a cold run.  The first test asks for a check that does not
exist.  The concurrency test also runs the system check, whose prefix
threads share in the same way, the last but one empties the whole
registry after every check, and the last plants a fault in a step after
a warm run, with no reset."""

import sys
import threading
from collections import Counter
from math import factorial

import pytest

from invseq import checks, series, succession
from invseq.checks import CHECKS, run_check
from invseq.prefix import _STATES, Prefix
from invseq.succession import SYSTEMS

# a word of length n has n! choices: 1 * 2 * ... * n
WORDS_THROUGH_8 = sum(map(factorial, range(9)))


def _count_calls(monkeypatch):
    """Wrap checks.avoids and checks.structure_check_201_210; the returned
    Counters get, per function, the words it was called on."""
    seen = {}
    for name in ("avoids", "structure_check_201_210"):
        calls = seen[name] = Counter()

        def counted(e, *args, _real=getattr(checks, name), _calls=calls):
            _calls[e] += 1
            return _real(e, *args)
        monkeypatch.setattr(checks, name, counted)
    return seen


def test_an_unknown_check_is_value_error_naming_the_checks(fresh_states):
    """run_check rejects a name outside CHECKS as get_system rejects an
    unknown system, with every name there is, before it runs anything."""
    have = ", ".join(sorted(CHECKS))
    for name in ("nope", "minpoly-a", ""):
        with pytest.raises(ValueError) as info:
            run_check(name, 5)
        assert str(info.value) == "unknown check %r (have: %s)" % (name, have)
    assert not _STATES


@pytest.mark.parametrize("order", [(5, 7, 6, 8), (8, 5)])
def test_each_word_goes_to_each_route_once(order, monkeypatch,
                                           fresh_states):
    seen = _count_calls(monkeypatch)
    for n in order:
        assert run_check("structure-theorem", n)[0], n
    assert WORDS_THROUGH_8 == 46234
    for name, calls in seen.items():
        assert sum(calls.values()) == WORDS_THROUGH_8, name
        assert set(calls.values()) == {1}, name
        assert max(map(len, calls)) == 8, name


def _planted_checker(monkeypatch):
    """Make the checker wrong on the word 010 only."""
    real = checks.structure_check_201_210
    monkeypatch.setattr(checks, "structure_check_201_210",
                        lambda e: real(e) != (e == (0, 1, 0)))


@pytest.mark.parametrize("planted", [False, True])
def test_output_does_not_depend_on_request_order(planted, monkeypatch,
                                                 fresh_states):
    """Requests at several depths, run cold one by one, then in ascending
    and in descending order in one process, get the same lines, with and
    without a planted fault."""
    if planted:
        _planted_checker(monkeypatch)
    depths = (0, 2, 3, 7, 5, 6)
    cold = {}
    for n in depths:
        fresh_states()
        cold[n] = run_check("structure-theorem", n)
    assert cold[7][0] is not planted
    for order in (sorted(depths), sorted(depths, reverse=True), depths):
        fresh_states()
        assert {n: run_check("structure-theorem", n) for n in order} == cold


def test_a_fault_planted_after_a_warm_run_prints_the_cold_line(
        monkeypatch, fresh_states):
    assert run_check("structure-theorem", 8) == (True, [
        "OK: checker agrees with pattern avoidance for all inversion "
        "sequences through n=8"])
    real = checks.structure_check_201_210
    _planted_checker(monkeypatch)
    fail = (False, ["FAIL at e=010: checker False, avoidance True"])
    for n in (8, 4, 3):
        assert run_check("structure-theorem", n) == fail, n
    assert run_check("structure-theorem", 2)[0]
    monkeypatch.setattr(checks, "structure_check_201_210", real)
    assert run_check("structure-theorem", 5)[0]
    assert list(_STATES) == ["structure-theorem"]


def test_concurrent_requests_share_consistent_states(fresh_states):
    """Eight threads request structure-theorem and system-201-210 at
    different depths at once; a tiny switch interval makes them
    interleave inside the checks.  Every answer is that of a cold run,
    and the states left behind are those of cold runs to their depths."""
    requests = [(name, n) for name, depths in (("structure-theorem", (3, 6)),
                                               ("system-201-210", (20, 45)))
                for n in depths for _ in range(2)]
    cold = {}
    for request in set(requests):
        fresh_states()
        cold[request] = run_check(*request)
    system = succession.get_system("201-210")
    dp = Prefix(system.start, system.kernel)
    census = [series._census_rows(m, dp.level(m)) for m in range(46)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fresh_states()
            barrier = threading.Barrier(len(requests))
            answers = []

            def serve(request):
                barrier.wait(timeout=30)
                answers.append((request, run_check(*request)))

            threads = [threading.Thread(target=serve, args=(r,))
                       for r in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert sorted(answers) == sorted((r, cold[r]) for r in requests)
            first = _STATES["structure-theorem"]._memo[0]
            assert len(first) in (4, 7) and not any(first)
            found, rows, checkpoints = _STATES["system-201-210"]._memo
            assert len(found) in (21, 46) and not any(found)
            assert rows[:3] == census[len(found) - 1]
            assert checkpoints == (([],) * 7,)
    finally:
        sys.setswitchinterval(switch)


def test_one_reset_makes_a_warm_process_cold(monkeypatch, fresh_states):
    """After every check has run at its default depth, emptying the
    registry and planting a fault in ``succession._suffix_sums``, which
    the 201-210 kernels read at call time, prints the FAIL lines of a
    cold run with the same fault."""
    real = succession._suffix_sums

    def planted(xs):
        out = real(xs)
        if len(out) > 3:
            out[3] += 1
        return out
    names = ("gf-vs-rules", "system-201-210")
    monkeypatch.setattr(succession, "_suffix_sums", planted)
    cold = {}
    for name in names:
        fresh_states()
        cold[name] = run_check(name)
    assert not any(ok for ok, _ in cold.values())
    monkeypatch.setattr(succession, "_suffix_sums", real)
    fresh_states()
    for name in CHECKS:
        assert run_check(name)[0], name
    fresh_states()
    monkeypatch.setattr(succession, "_suffix_sums", planted)
    assert {name: run_check(name) for name in names} == cold


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


def _bump_kernel(real):
    """The 201-210 kernel with one more (k,F,F) state at x^5 u^2."""
    def planted(level):
        (a, b, c), accepted = real(level)
        if len(a) == 6:
            a = [*a[:2], a[2] + 1, *a[3:]]
        return (a, b, c), accepted
    return planted


def _bump_system_step(real):
    """The step of the system prefix, handed the 201-210 kernel with one
    more (k,F,F) state at x^5 u^2 (see _bump_kernel)."""
    def planted(prev, kernel, axiom):
        return real(prev, _bump_kernel(kernel), axiom)
    return planted


# check[:step]: (namespace, key, plant, warm depth, depth, FAIL lines)
STEP_FAULTS = {
    "gf-vs-rules": (vars(series), "_f_step", _raise_at(7), 30,
                    20, ["FAIL: planted at x^7"]),
    "fe-vs-rules": (series._FE_STEP, "011-201", _bump_fe, 20, 10,
                    ["FAIL for 011-201 at n=6: iteration 190 != rules 189"]),
    "minpoly-A": (vars(series), "_step_ff", _bump_slice(5, 2), 40, 20,
                  ["FAIL: residual first nonzero at order 4"]),
    "minpoly-B:kernel": (vars(SYSTEMS["201-210"]), "kernel", _bump_kernel, 40,
                         20, ["FAIL: residual first nonzero at order 6"]),
    "minpoly-B:_step_ff": (vars(series), "_step_ff", _bump_slice(5, 2), 40,
                           20, ["FAIL: residual first nonzero at order 5"]),
    "minpoly-F": (vars(SYSTEMS["201-210"]), "kernel", _bump_kernel, 40, 20,
                  ["FAIL: residual first nonzero at order 6"]),
    "system-201-210": (vars(series), "_fast_step_201_210", _bump_kernel, 40,
                       20, ["FAIL: equation A first differs at x^5 u^2"]),
    "system-201-210:_system_step": (
        vars(series), "_system_step", _bump_system_step, 40, 20,
        ["FAIL: equation A first differs at x^5 u^2"]),
}


@pytest.mark.parametrize("name", sorted(STEP_FAULTS))
def test_a_fault_planted_in_a_step_after_a_warm_run_prints_the_cold_line(
        name, monkeypatch, fresh_states):
    """A fault planted in the step a prefix is keyed on, after a warm
    run deeper than the fault, is stepped cold at once: the check prints
    the FAIL line of a cold run, with no reset of the registry, and
    restoring the step restores the OK line.  A minpoly check's residual
    is keyed on the prefixes it reads, so a fault in the step of one of
    them reaches it the same way."""
    namespace, key, plant, warm, depth, lines = STEP_FAULTS[name]
    name = name.split(":")[0]
    real = namespace[key]
    monkeypatch.setitem(namespace, key, plant(real))
    assert run_check(name, depth) == (False, lines)
    fresh_states()
    monkeypatch.setitem(namespace, key, real)
    assert run_check(name, warm)[0]
    monkeypatch.setitem(namespace, key, plant(real))
    assert run_check(name, depth) == (False, lines)
    monkeypatch.setitem(namespace, key, real)
    assert run_check(name, depth)[0]
