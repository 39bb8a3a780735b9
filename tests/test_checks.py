"""The structure-theorem check, which keeps no state: each request
runs both sides of the sweep once per length through its depth, so the
printed lines are those of a cold run whatever came before, and a fault
planted in a sliced side or in the compiled groups the matcher reads
is seen by the next request, with no reset.  The first test asks for a
check that does not exist.  The concurrency test also runs the system
check, whose prefix threads share, the one after it empties the whole
registry after every check, and the next plants a fault in a step after
a warm run, with no reset.  The next one plants a mismatch in the first
system of oracle-vs-rules and fe-vs-rules, which then count no later
system.  The last four test the ODE fast path of the minpoly checks: a
unit planted in a source, a solution of the ODE that is no root of the
relation, a relation whose ODE the counts fail and a relation with no
ODE each print the line of the stateless residual, and the count of the
check's one relation route is that residual's."""

import sys
import threading
import types
from collections import Counter
from math import factorial
from operator import sub

import pytest

from invseq import checks, core, poly, series, succession
from invseq.checks import CHECKS, run_check
from invseq.prefix import _STATES, Prefix
from invseq.succession import SYSTEMS

STRUCTURE = "structure-theorem"


def _count_calls(monkeypatch):
    """Wrap the mask builder and the two sliced sides that the check
    reads from ``invseq.checks`` so that each counts the word lengths it
    is called for (its argument n); returns a Counter of lengths per
    name."""
    seen = {}
    for name, at in (("_order_masks", 0), ("_sliced_checker", 0),
                     ("_sliced_avoider", 1)):
        calls = seen[name] = Counter()

        def counted(*args, _real=getattr(checks, name), _calls=calls, _at=at):
            _calls[args[_at]] += 1
            return _real(*args)
        monkeypatch.setattr(checks, name, counted)
    return seen


def _index(e):
    """The bit of the word e among the words of its length."""
    w = 0
    for size, v in enumerate(e, 1):
        w = w * size + v
    return w


def _plant_word_fault(monkeypatch):
    """Make the sliced checker wrong on the word 010 only."""
    real = checks._sliced_checker
    monkeypatch.setattr(checks, "_sliced_checker", lambda n, lt: (
        real(n, lt) ^ (1 << _index((0, 1, 0)) if n == 3 else 0)))
    return False, ["FAIL at e=010: checker False, avoidance True"]


def _plant_group_fault(monkeypatch):
    """The hit test min(right) < max(left) (order -1) of every compiled
    group planted as max(right) > min(left) (order 1), which turns 201
    into 102."""
    real = core._compile

    def planted(basis):
        groups, searches = real(basis)
        return tuple((rel, tuple((right_rel, 1 if order == -1 else order)
                                 for right_rel, order in tests))
                     for rel, tests in groups), searches
    monkeypatch.setattr(core, "_compile", planted)
    return False, ["FAIL at e=0102: checker True, avoidance False"]


def _plant_checker_fault(monkeypatch):
    """The sliced checker handed e[a] <= e[b] wherever it reads
    e[a] < e[b]: "below the maximum" becomes "at most the maximum", and
    two entries always count as different."""
    real = checks._sliced_checker

    def planted(n, lt):
        full = (1 << factorial(n)) - 1
        return real(n, {(a, b): full ^ lt[b, a] for a, b in lt})
    monkeypatch.setattr(checks, "_sliced_checker", planted)
    return False, ["FAIL at e=000: checker False, avoidance True"]


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
    """Each request decides each word through its depth once on each
    side: the order masks and both sliced sides are run once per length
    0..n, whatever ran before, and the registry stays empty."""
    seen = _count_calls(monkeypatch)
    for n in order:
        for calls in seen.values():
            calls.clear()
        assert run_check(STRUCTURE, n)[0], n
        for name, calls in seen.items():
            assert calls == Counter(range(n + 1)), (n, name)
    assert not _STATES


@pytest.mark.parametrize("planted", [False, True])
def test_output_does_not_depend_on_request_order(planted, monkeypatch,
                                                 fresh_states):
    """Requests at several depths, run cold one by one, then in ascending
    and in descending order in one process, get the same lines, with and
    without a planted fault."""
    if planted:
        _plant_word_fault(monkeypatch)
    depths = (0, 2, 3, 7, 5, 6)
    cold = {}
    for n in depths:
        fresh_states()
        cold[n] = run_check(STRUCTURE, n)
    assert cold[7][0] is not planted
    for order in (sorted(depths), sorted(depths, reverse=True), depths):
        fresh_states()
        assert {n: run_check(STRUCTURE, n) for n in order} == cold


def test_a_fault_planted_after_a_warm_run_prints_the_cold_line(
        monkeypatch, fresh_states):
    """A fault planted in a sliced side, or in the compiled groups the
    matcher reads, after a warm run and with no reset, prints the FAIL
    line of a cold run at every depth that reaches its word; removing
    it prints the OK line again, and no request leaves a state."""
    assert run_check(STRUCTURE, 8) == (True, [
        "OK: checker agrees with pattern avoidance for all inversion "
        "sequences through n=8"])
    for plant in (_plant_word_fault, _plant_group_fault,
                  _plant_checker_fault):
        with monkeypatch.context() as planting:
            fail = plant(planting)
            for n in (8, 4):
                assert run_check(STRUCTURE, n) == fail, (plant, n)
            assert run_check(STRUCTURE, 2)[0], plant
            fresh_states()
            assert run_check(STRUCTURE, 8) == fail, plant
        assert run_check(STRUCTURE, 5)[0], plant
    assert not _STATES


def test_a_fault_in_a_compiled_group_reaches_the_verify_line(
        monkeypatch, fresh_states):
    """The sliced matcher reads the compiled groups of the basis: the hit
    test min(right) < max(left) planted as max(right) > min(left) there
    prints the line that the same inversion planted in the loop of
    core._middle_match prints, at 0102, the first word that holds 102."""
    fail = _plant_group_fault(monkeypatch)
    assert run_check(STRUCTURE, 6) == fail
    groups = core._compile(((2, 0, 1), (2, 1, 0)))[0]
    assert core._middle_match((0, 1, 0, 2), groups)
    assert not any(core._middle_match(e, groups) for e in
                   [(0, 1, 0, 1), (0, 0, 2, 3), (0, 1, 2)])


def test_a_fault_in_the_sliced_checker_reaches_the_verify_line(
        monkeypatch, fresh_states):
    """A sliced checker handed non-strict comparisons for strict ones
    fails the word 000 (two entries after a maximum, not below it), and
    the verify line names it."""
    fail = _plant_checker_fault(monkeypatch)
    assert run_check(STRUCTURE, 6) == fail


@pytest.mark.parametrize("plant", [_plant_group_fault, _plant_checker_fault],
                         ids=["_HIT_CODE", "_MAXIMUM_CODE"])
def test_one_reset_makes_the_generated_code_cold(plant, monkeypatch,
                                                 fresh_states):
    """A fault planted after a warm run in the hit test the matcher reads
    (id _HIT_CODE) or in the "below the maximum" test of the checker (id
    _MAXIMUM_CODE), the two tests the sweep once ran as generated code,
    prints the cold FAIL line once the registry is emptied, as it does
    with no reset, and no cache needs clearing."""
    assert run_check(STRUCTURE, 6)[0]
    fail = plant(monkeypatch)
    assert run_check(STRUCTURE, 6) == fail
    _STATES.clear()
    assert run_check(STRUCTURE, 6) == fail
    assert not _STATES


def test_concurrent_requests_share_consistent_states(fresh_states,
                                                    stored_levels):
    """Eight threads request structure-theorem and system-201-210 at
    different depths at once; a tiny switch interval makes them
    interleave inside the checks.  Every answer is that of a cold run,
    and the state left behind, its checkpoints too, is that of a cold
    run of the system check to its depth; structure-theorem leaves
    none."""
    requests = [(name, n) for name, depths in ((STRUCTURE, (3, 6)),
                                               ("system-201-210", (20, 45)))
                for n in depths for _ in range(2)]
    cold = {}
    for request in set(requests):
        fresh_states()
        cold[request] = run_check(*request)
    system = succession.get_system("201-210")
    dp = Prefix(system.start, system.kernel)
    census = [series._census_rows(m, dp.level(m)) for m in range(46)]
    levels = [(([],) * 3, None), *((rows, None) for rows in census)]
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
            assert STRUCTURE not in _STATES
            found, level, _ = _STATES["system-201-210"]._memo
            assert len(found) in (21, 46) and not any(found)
            assert level == levels[len(found)]
            stored = stored_levels(_STATES["system-201-210"])
            spacing = {21: 2, 46: 4}[len(found)]
            assert [d for d, _ in stored] == \
                list(range(0, len(found) + 1, spacing))
            assert stored == [(d, levels[d]) for d, _ in stored]
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


# -- the comparison of the sequence checks ----------------------------------

# check: (the module the check reads it from, the function it counts each
# system with, the FAIL line's word, the first system, the number of
# systems)
COUNTED = {"oracle-vs-rules": (checks, "count_sequence", "oracle", "201-210",
                               3),
           "fe-vs-rules": (series, "iterate_fe", "iteration", "011-201", 2)}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_a_mismatch_in_the_first_system_counts_no_later_one(
        name, monkeypatch, fresh_states):
    """The check counts every system when they all agree, and one more
    planted at x^3 of the first system's counts prints that system's
    FAIL line with no later system counted."""
    module, function, word, first, systems = COUNTED[name]
    real = getattr(module, function)
    calls = []
    bump = []

    def counted(*args):
        calls.append(args)
        counts = real(*args)
        if bump:
            counts[3] += 1
        return counts
    monkeypatch.setattr(module, function, counted)
    assert run_check(name, 8)[0]
    assert len(calls) == systems
    calls.clear()
    bump.append(1)
    rules = succession.rule_counting_sequence(first, 8)[3]
    assert run_check(name, 8) == (False, [
        "FAIL for %s at n=3: %s %d != rules %d" % (first, word, rules + 1,
                                                   rules)])
    assert len(calls) == 1


# -- the ODE fast path of the minpoly checks ---------------------------------

def _listed(values):
    """A source prefix whose count at depth k is values[k]."""
    return Prefix(0, lambda k: (k + 1, values[k]))


def _with_series(name, y, monkeypatch):
    """Make the sources of the minpoly check read y as the series it
    evaluates: the (k,F,F) slice for minpoly-A, the memo for minpoly-F,
    and for minpoly-B a memo of the (k,F,F) sums plus y.  The slice is
    planted in ``invseq.series``, from which minpoly-A imports it when it
    runs."""
    if name == "minpoly-A":
        monkeypatch.setattr(series, "_ff_slice_prefix", lambda: _listed(y))
        return
    if name == "minpoly-B":
        a = series._ff_slice_prefix().counts(len(y) - 1)
        y = [*map(sum, zip(a, y))]
    memo = _listed(y)
    monkeypatch.setattr(checks, "get_system",
                        lambda system_id: types.SimpleNamespace(memo=memo))


def _true_series(name, n):
    a = series._ff_slice_prefix().counts(n)
    f = succession.rule_counting_sequence("201-210", n)
    return {"minpoly-A": a, "minpoly-F": f,
            "minpoly-B": [*map(sub, f, a)]}[name]


def _residual_line(name, y):
    """What a check through len(y) - 1 prints from the stateless
    residual of its relation on y."""
    first = series.relation_residual(RELATIONS[name], y)
    if first is None:
        return (True, ["OK: relation holds through n=%d" % (len(y) - 1)])
    return (False, ["FAIL: residual first nonzero at order %d" % first])


def _ode_route(name):
    """(n0, the recurrence's order) of the check's relation prefix."""
    _, rec, _, _, n0, _ = _STATES[("relation", name)]._memo[1]
    return n0, len(rec[1]) - 1


def _residual_depth(name):
    """The depth through which the check's relation prefix has stepped
    the residual of its relation."""
    return len(_STATES[("relation", name)]._memo[1][5][0][0]) - 1


RELATIONS = {"minpoly-A": series.MINPOLY_A, "minpoly-B": series.MINPOLY_B,
             "minpoly-F": series.MINPOLY_F}


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_a_unit_planted_in_a_source_prints_the_stateless_line(
        name, monkeypatch, fresh_states):
    """One more in the series at each index through n0 + order + 2, and
    at x^150, makes an equation of the ODE fail, so the check reads the
    residual through n_max and prints what the stateless residual gives
    on the same series."""
    n = 160
    y = _true_series(name, n)
    assert run_check(name, n) == (True, ["OK: relation holds through n=160"])
    n0, order = _ode_route(name)
    assert (n0, order) == {"minpoly-A": (0, 1), "minpoly-B": (2, 7),
                           "minpoly-F": (2, 3)}[name]
    for at in [*range(n0 + order + 3), 150]:
        bumped = [*y[:at], y[at] + 1, *y[at + 1:]]
        _with_series(name, bumped, monkeypatch)
        expected = _residual_line(name, bumped)
        assert not expected[0], at
        assert run_check(name, n) == expected, at
        assert _residual_depth(name) == n, at
        assert _STATES[("relation", name)].count(n) == \
            series.relation_residual(RELATIONS[name], bumped), at


# the free term of each relation's ODE family: the values of the power
# series roots, and one value that no root takes
FREE_TERMS = {"minpoly-F": ((1, 2), 3), "minpoly-B": ((0, 1), 2)}


def _ode_solution(relation, free, n):
    """The solution of the relation's ODE through x^n whose free term at
    x^1 is the given value, from the recurrence of its ODE."""
    top, rows, const = poly.recurrence(poly.linear_ode(relation.coefficients))
    assert top == 0 and poly.nonnegative_roots(rows[0]) == [1]
    y = []
    for m in range(n + 1):
        if m == 1:
            y.append(free)
            continue
        s = (const[m] if m < len(const) else 0) + sum(
            poly.peval(row, m) * y[m - i]
            for i, row in enumerate(rows) if i and m >= i)
        c, rem = divmod(-s, poly.peval(rows[0], m))
        assert not rem
        y.append(c)
    return y


@pytest.mark.parametrize("name", sorted(FREE_TERMS))
def test_an_ode_solution_that_is_no_root_is_caught_through_n0(
        name, monkeypatch, fresh_states):
    """A solution of the ODE whose free term no root takes passes every
    equation, so the check reads the residual through n0 only, and that
    catches it, as the stateless residual does; the solutions whose free
    term a root takes are the roots."""
    n = 120
    roots, other = FREE_TERMS[name]
    for free in roots:
        y = _ode_solution(RELATIONS[name], free, n)
        assert _residual_line(name, y)[0], free
    assert _ode_solution(RELATIONS[name], roots[0], n) == _true_series(name, n)
    y = _ode_solution(RELATIONS[name], other, n)
    _with_series(name, y, monkeypatch)
    line = run_check(name, n)
    assert line == _residual_line(name, y) == (
        False, ["FAIL: residual first nonzero at order 2"])
    n0, _ = _ode_route(name)
    assert _residual_depth(name) == n0 == 2
    assert _STATES[("relation", name)].count(n) == \
        series.relation_residual(RELATIONS[name], y)


def test_a_corrupted_relation_falls_back_to_the_residual(fresh_states):
    """One coefficient of MINPOLY_F bumped still has an ODE, which the
    true counts fail, so the check steps the residual through n_max and
    prints its line."""
    polys = [list(p) for p in series.MINPOLY_F.coefficients]
    polys[1][0] += 1
    relation = series.PolyRelation("bumped", tuple(map(tuple, polys)))
    assert poly.linear_ode(relation.coefficients) is not None
    memo = succession.get_system("201-210").memo
    n = 60
    f = memo.counts(n)
    first = series.relation_residual(relation, f)
    assert checks._verify_minpoly(relation, n, memo) == (
        False, ["FAIL: residual first nonzero at order %d" % first])
    assert _residual_depth("bumped") == n
    assert _STATES[("relation", "bumped")].count(n) == first


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_a_relation_with_no_ode_steps_its_residual_through_n(
        name, monkeypatch, fresh_states):
    """A relation planted as its own square has a repeated factor, so no
    linear ODE: the check steps its residual through n_max, prints its
    OK line on the true series, and with a unit planted in its source
    the FAIL line of the stateless residual on the same terms."""
    n = 60
    p = RELATIONS[name].coefficients
    squared = series.PolyRelation(name, poly._ymul(p, p))
    assert poly.linear_ode(squared.coefficients) is None
    monkeypatch.setattr(series, "MINPOLY_" + name[-1], squared)
    assert run_check(name, n) == (True, ["OK: relation holds through n=60"])
    assert _residual_depth(name) == n
    y = _true_series(name, n)
    for at in (0, 1, 7, 20):
        bumped = [*y[:at], y[at] + 1, *y[at + 1:]]
        _with_series(name, bumped, monkeypatch)
        first = series.relation_residual(squared, bumped)
        assert first is not None, at
        assert run_check(name, n) == (
            False, ["FAIL: residual first nonzero at order %d" % first]), at
        assert _residual_depth(name) == n, at
