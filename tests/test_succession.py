import sys
import threading
from collections import Counter
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from invseq import checks, series, succession
from invseq.checks import run_check
from invseq.oracle import count_sequence, list_avoiders
from invseq.prefix import _STATES, Prefix
from invseq.succession import (
    SYSTEMS,
    RuleSystem,
    count_via_rules,
    emit_diagram,
    get_system,
    profile_text,
    rule_counting_sequence,
    state_profile,
    step,
)

F, T = False, True

SEQ_201_210 = [1, 1, 2, 6, 24, 116, 632, 3720, 23072, 148528, 983072]


def kernel_step(system, level):
    """One step of the system's dense kernel, on a dict level."""
    return system.to_dict(system.kernel(system.to_dense(level))[0])


def test_get_system():
    assert get_system("201-210").name == "201-210"
    with pytest.raises(ValueError):
        get_system("132")


def test_step_singleton_worked_example():
    sys_ = get_system("201-210")
    out = step(sys_, {(3, F, F): 1})
    assert out == {(4, F, F): 1, (3, F, F): 1, (2, F, F): 1, (1, F, F): 1,
                   (3, T, T): 1, (2, T, T): 2, (1, T, T): 3}


def test_step_axiom_and_empty():
    sys_ = get_system("201-210")
    assert step(sys_, {(0, F, F): 1}) == {(1, F, F): 1}
    assert step(sys_, {}) == {}
    assert kernel_step(sys_, {}) == {}


def test_step_rejects_impossible_state():
    with pytest.raises(ValueError):
        step(get_system("201-210"), {(2, F, T): 1})


def test_to_dense_rejects_an_unreachable_state():
    with pytest.raises(ValueError, match="unreachable"):
        get_system("201-210").to_dense({(2, F, T): 1})


def test_state_profile_pinned():
    profile = state_profile("201-210", 3)
    assert profile[(3, F, F)] == 1
    assert profile[(2, T, T)] == 2
    assert profile[(1, T, T)] == 4
    assert profile == {(3, F, F): 1, (2, F, F): 2, (1, F, F): 2,
                       (2, T, T): 2, (1, T, T): 4, (2, T, F): 1}
    assert state_profile("201-210", 0) == {(0, F, F): 1}
    assert state_profile("201-210", 1) == {(1, F, F): 1}


def test_count_via_rules_pinned():
    assert count_via_rules("201-210", 3) == 6
    assert count_via_rules("201-210", 7) == 3720
    assert count_via_rules("201-210", 10) == 983072
    assert count_via_rules("011-201", 5) == 51
    assert count_via_rules("010-100-120-210", 5) == 51


def test_rule_counting_sequence_pinned():
    assert rule_counting_sequence("201-210", 10) == SEQ_201_210


def test_no_impossible_state_is_ever_produced():
    sys_ = get_system("201-210")
    level = {sys_.axiom: 1}
    for _ in range(15):
        level = step(sys_, level)
        assert not any(ell is False and c is True for _, ell, c in level)


def test_oracle_equivalence_201_210():
    assert count_sequence(((2, 0, 1), (2, 1, 0)), 12) == \
        rule_counting_sequence("201-210", 12)


def test_bounce_census_matches_the_label_k_evidence():
    """Evidence, not proof: in every built-in system the first label k of
    an accepted depth-n state is the bounce n - max(e) of the sequences
    it stands for, and for 201-210 the second label ell says whether e
    has a descent e_i > e_(i+1), as far as a census can tell.  The census
    of bounces over the avoiders of the basis, paired with that flag for
    201-210, equals the census of k, or (k, ell), over the accepted
    states, weighted by multiplicity, for n = 0..9.  Only totals meet the
    oracle elsewhere, so a rule that moved counts between labels and kept
    every total would pass those checks.  For 201-210 ell is not the flag
    "some entry lies after the first maximum and below it": the census of
    (bounce, that flag) has 6 sequences at (1, F) for n = 4, where the
    rules have 5 at (1, F) and 1 at (1, T)."""
    for system_id, system in SYSTEMS.items():
        width = 2 if system_id == "201-210" else 1
        for n in range(10):
            bounces = Counter(
                (n - max(e, default=0), any(a > b for a, b in zip(e, e[1:])))[:width]
                for e in list_avoiders(system.basis, n))
            labels = Counter()
            for state, mult in state_profile(system_id, n).items():
                if system.accept(state):
                    labels[state[:width]] += mult
            assert bounces == labels, (system_id, n)


def test_step_fast_equals_step_from_axiom():
    for system_id in ("201-210", "011-201", "010-100-120-210"):
        sys_ = get_system(system_id)
        level = {sys_.axiom: 1}
        for depth in range(50):
            slow = step(sys_, level)
            fast = kernel_step(sys_, level)
            assert fast == slow, (system_id, depth)
            level = fast


@pytest.mark.parametrize("system_id",
                         ["201-210", "011-201", "010-100-120-210"])
def test_dense_stepping_equals_literal_steps(system_id):
    """state_profile and rule_counting_sequence step the dense kernels;
    both must match n literal step() calls from the axiom."""
    sys_ = get_system(system_id)
    counts = rule_counting_sequence(system_id, 12)
    level = {sys_.axiom: 1}
    for n in range(13):
        assert state_profile(system_id, n) == level, n
        assert counts[n] == sum(m for s, m in level.items() if sys_.accept(s))
        level = step(sys_, level)


_FLAGS = [(F, F), (T, F), (T, T)]

_state_3 = st.tuples(st.integers(0, 25), st.sampled_from(_FLAGS)).map(
    lambda t: (t[0],) + t[1])
_state_2 = st.tuples(st.integers(0, 25), st.integers(0, 25))
_counts = st.integers(min_value=1, max_value=10**9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_step_fast_equals_step_on_random_levels(data):
    system_id = data.draw(st.sampled_from(
        ["201-210", "011-201", "010-100-120-210"]))
    state = _state_3 if system_id == "201-210" else _state_2
    level = data.draw(st.dictionaries(state, _counts, max_size=8))
    sys_ = get_system(system_id)
    assert kernel_step(sys_, level) == step(sys_, level)


# ---------- the inverse step of 201-210 ----------


def test_back_inverts_the_kernel_from_the_axiom():
    """The 201-210 inverse takes every level the kernel steps to, through
    depth 301, back to the level it was stepped from."""
    system = get_system("201-210")
    level = system.start
    for depth in range(301):
        stepped = system.kernel(level)[0]
        assert system.back(stepped) == level, depth
        level = stepped


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_state_3, st.one_of(st.just(0), _counts),
                       max_size=8))
def test_back_inverts_the_kernel_on_random_levels(level):
    """Any dict level of reachable states, zero counts among them: the
    dense level's round trip drops only the zeros, and the inverse takes
    the level the kernel steps it to back to it."""
    system = get_system("201-210")
    dense = system.to_dense(level)
    assert system.to_dict(dense) == {s: m for s, m in level.items() if m}
    assert system.back(system.kernel(dense)[0]) == dense


@pytest.mark.parametrize("depth", [1, 2, 30])
def test_back_rejects_a_level_no_step_produces(depth):
    """A level the kernel steps to, with any one cell of v (the counts of
    (k,T,F) plus (k,T,T)) one more, is no step's result: the inverse
    raises ArithmeticError, from its checked halving or, at k = 0, from
    the cell that every step leaves at zero."""
    system = get_system("201-210")
    level = system.start
    for _ in range(depth):
        level = system.kernel(level)[0]
    a, t, v = level
    assert system.back(level) is not None
    for k in range(len(v)):
        bumped = (a, t, [*v[:k], v[k] + 1, *v[k + 1:]])
        with pytest.raises(ArithmeticError):
            system.back(bumped)


def test_a_profile_resumes_from_the_nearer_side_of_a_deep_memo():
    """On a 201-210 memo 701 deep, with checkpoints at 0, 64, ..., 640,
    the level at n with the system's inverse is the forward-only level,
    and it takes min(n - below, above - n) steps, forward from the
    checkpoint below n on a tie, back from the checkpoint or the level
    above n otherwise."""
    system = get_system("201-210")
    steps, backs = [0], [0]

    def kernel(level):
        steps[0] += 1
        return system.kernel(level)

    def back(level):
        backs[0] += 1
        return system.back(level)

    memo = Prefix(system.start, kernel)
    memo.counts(700)
    assert sorted(memo._memo[2]) == list(range(0, 641, 64))
    for n in (0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 600, 640, 669,
              670, 671, 672, 699, 700, 701):
        below = n - n % 64
        above = min(below + 64, 701)
        forward = memo.level(n)
        steps[0] = backs[0] = 0
        assert memo.level(n, back) == forward, n
        assert steps[0] + backs[0] == min(n - below, above - n), n
        assert backs[0] == (0 if n - below <= above - n else above - n), n


# ---------- the packed columns of the 2-parameter systems ----------

TRIANGLE_IDS = ("011-201", "010-100-120-210")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_levels_round_trip_and_step_literally(data):
    """Levels of either 2-parameter system with zero counts among counts
    up to 10^80: to_dict(to_dense(level)) is the level without its zero
    counts, and the packed kernel steps it as step() does."""
    system = get_system(data.draw(st.sampled_from(TRIANGLE_IDS)))
    level = data.draw(st.dictionaries(
        _state_2, st.one_of(st.just(0), st.integers(1, 10**80)),
        max_size=12))
    dense = system.to_dense(level)
    assert system.to_dict(dense) == {s: m for s, m in level.items() if m}
    assert system.to_dict(system.kernel(dense)[0]) == step(system, level)
    assert system.kernel(dense)[1] == sum(level.values())


@pytest.mark.parametrize("system_id", TRIANGLE_IDS)
def test_a_level_one_bit_under_its_lane_width_is_widened_first(system_id):
    """A packed level whose total has W - 1 bits leaves no room for the
    m-fold growth of a step: the kernel widens the lanes before it steps
    and still steps as step() does, and its total reads exactly."""
    system = get_system(system_id)
    level = {(3, 0): 2**70 - 5, (1, 2): 4, (2, 1): 1, (0, 3): 0}
    total = sum(level.values())
    w = total.bit_length() + 1
    assert w % 8 == 0
    lanes = {ell: [0] * 4 for ell in range(4)}
    for (k, ell), m in level.items():
        lanes[ell][k] = m
    packed = (w, [sum(m << (w * k) for k, m in enumerate(lanes[ell]))
                  for ell in range(4)])
    assert system.to_dict(packed) == {s: m for s, m in level.items() if m}
    (wide, cols), count = system.kernel(packed)
    assert wide > w and wide % 8 == 0
    assert count == total
    assert system.to_dict((wide, cols)) == step(system, level)


@pytest.mark.parametrize("system_id", TRIANGLE_IDS)
def test_to_dense_rejects_a_negative_count(system_id):
    with pytest.raises(ValueError, match="negative"):
        get_system(system_id).to_dense({(1, 0): 3, (2, 1): -1})


@pytest.mark.parametrize("system_id", TRIANGLE_IDS)
def test_profile_text_renders_the_packed_level_as_the_profile(system_id,
                                                              monkeypatch):
    """profile_text renders the packed level at depth 200 straight from
    its lanes: the text is that of state_profile, state by state in
    sorted order, each state written by state_str."""
    system = _fresh(system_id)
    monkeypatch.setitem(SYSTEMS, system_id, system)
    profile = state_profile(system_id, 200)
    assert profile_text(system_id, 200) == "".join(
        "%s %d\n" % (system.state_str(state), profile[state])
        for state in sorted(profile))


def test_profile_slices_match_state_profile():
    """The slices the decoder reads off the dense levels of a full run of
    the 201-210 kernel, stepped by a Prefix that the registry never
    holds, are the (k,F,F), (k,T,F) and (k,T,T) slices of the state
    profile."""
    system = get_system("201-210")
    dp = Prefix(system.start, system.kernel)
    for n in range(7):
        a, b, c = succession._decode_201_210(dp.level(n))
        profile = state_profile("201-210", n)
        assert {k: m for k, m in enumerate(a) if m} == \
            {k: m for (k, ell, com), m in profile.items() if not ell and not com}
        assert {k: m for k, m in enumerate(b) if m} == \
            {k: m for (k, ell, com), m in profile.items() if ell and not com}
        assert {k: m for k, m in enumerate(c) if m} == \
            {k: m for (k, ell, com), m in profile.items() if ell and com}


def test_diagram_depth_zero():
    text = emit_diagram("201-210", 0)
    assert '"L0 (0,F,F)"' in text
    assert "->" not in text


def test_diagram_depth_three():
    text = emit_diagram("201-210", 3)
    # the (2,F,F) state at depth 2 produces (1,T,T) twice
    assert '"L2 (2,F,F)" -> "L3 (1,T,T)" [mult=2];' in text
    counts = {}
    for line in text.splitlines():
        if "count=" in line:
            label = line.split('label="')[1].split('"')[0]
            count = int(line.split("count=")[1].split("]")[0])
            if line.strip().startswith('"L3'):
                counts[label] = count
    assert counts == {"(3,F,F)": 1, "(2,F,F)": 2, "(1,F,F)": 2,
                      "(2,T,T)": 2, "(1,T,T)": 4, "(2,T,F)": 1}


def test_diagram_deterministic():
    assert emit_diagram("011-201", 3) == emit_diagram("011-201", 3)


# ---------- the per-system memo ----------

SYSTEM_IDS = tuple(SYSTEMS)

ENTRY_POINTS = {
    "rule_counting_sequence": rule_counting_sequence,
    "count_via_rules": count_via_rules,
    "state_profile": state_profile,
}


KEEP = 8


def _fresh(system_id, calls=None):
    """A copy of a built-in system (see _copy) with an empty memo that
    keeps at most KEEP checkpoints besides depth 0, so that their
    spacing doubles at depths 9, 17 and 33 and is 8 from 33 to 64.  Its
    memo replaces the built-in system's in the registry, also when the
    copy keeps the built-in kernel, on which that memo is keyed too."""
    system = _copy(system_id, calls)
    _STATES.pop(system_id, None)
    system.memo._KEEP = KEEP
    return system


def _copy(system_id, calls=None):
    """A copy of a built-in system.  When calls is a dict, calls["kernel"]
    counts the calls made to the system's kernel and, when it has an
    inverse step, calls["back"] those made to it."""
    s = SYSTEMS[system_id]
    kernel, back = s.kernel, s.back
    if calls is not None:
        calls.update(kernel=0)

        def kernel(level):
            calls["kernel"] += 1
            return s.kernel(level)
        if back is not None:
            calls.update(back=0)

            def back(level):
                calls["back"] += 1
                return s.back(level)
    return RuleSystem(s.name, s.basis, s.axiom, s.successors, s.accept,
                      s.state_str, kernel, s.to_dense, s.to_dict, s.render,
                      back)


@cache
def _cold(system_id, n_max):
    """(counts, dict levels) for depths 0..n_max: one run of the
    system's kernel from the axiom, with no prefix."""
    system = SYSTEMS[system_id]
    counts, profiles, level = [], [], system.start
    for _ in range(n_max + 1):
        profiles.append(system.to_dict(level))
        level, count = system.kernel(level)
        counts.append(count)
    return counts, profiles


def _expected(name, system_id, n):
    counts, profiles = _cold(system_id, 60)
    return {"rule_counting_sequence": counts[:n + 1],
            "count_via_rules": counts[n],
            "state_profile": profiles[n]}[name]


def _spoil(answer):
    """Mutate a returned list or dict in place."""
    if isinstance(answer, list):
        answer[0] = -1
        answer.append(-1)
    elif isinstance(answer, dict):
        answer.clear()
        answer["spoiled"] = -1


_calls = st.lists(st.tuples(st.sampled_from(sorted(ENTRY_POINTS)),
                            st.sampled_from(SYSTEM_IDS),
                            st.integers(0, 60)),
                  min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(_calls)
def test_memo_answers_equal_a_cold_run(calls):
    """Any sequence of requests, served from one memo per system, gets
    the answers of a cold run from the axiom, even when the caller
    mutates every answer it gets."""
    with pytest.MonkeyPatch.context() as mp:
        for system_id in SYSTEM_IDS:
            mp.setitem(SYSTEMS, system_id, _fresh(system_id))
        for name, system_id, n in calls:
            answer = ENTRY_POINTS[name](system_id, n)
            assert answer == _expected(name, system_id, n), (name, system_id, n)
            _spoil(answer)


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_mutating_an_answer_leaves_the_memo_intact(system_id, monkeypatch):
    monkeypatch.setitem(SYSTEMS, system_id, _fresh(system_id))
    for n in (20, 12, 20, 25):
        _spoil(rule_counting_sequence(system_id, n))
        _spoil(state_profile(system_id, n))
    for name in ENTRY_POINTS:
        for n in (0, 12, 25, 30):
            assert ENTRY_POINTS[name](system_id, n) == \
                _expected(name, system_id, n), (name, n)


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_state_profile_around_the_memo_depth(system_id, monkeypatch):
    """Below the memo's depth state_profile resumes from a checkpoint, at
    it the memo's level is converted, above it the memo is advanced; all
    three equal literal step() calls from the axiom.  A count through 20
    leaves the memo 21 deep."""
    system = _fresh(system_id)
    monkeypatch.setitem(SYSTEMS, system_id, system)
    literal = [{system.axiom: 1}]
    for _ in range(30):
        literal.append(step(system, literal[-1]))
    rule_counting_sequence(system_id, 20)
    for n, memo_depth in ((20, 21), (7, 21), (0, 21), (25, 25), (20, 25),
                          (30, 30), (29, 30), (30, 30)):
        assert state_profile(system_id, n) == literal[n], n
        assert len(system.memo._memo[0]) == memo_depth, n


def test_negative_n_raises_and_leaves_the_memo(monkeypatch):
    system = _fresh("201-210")
    monkeypatch.setitem(SYSTEMS, "201-210", system)
    for warm in (False, True):
        if warm:
            rule_counting_sequence("201-210", 10)
        memo = system.memo._memo
        for fn in ENTRY_POINTS.values():
            with pytest.raises(ValueError):
                fn("201-210", -1)
            assert system.memo._memo is memo


# (entry point, n) -> (kernel, back) steps of test_kernel_calls_per_request
# for a system with an inverse step, where they differ from the kernel
# steps alone: the memo is then 61 deep, with checkpoints at 0, 8, ..., 56
TWO_WAY = {("state_profile", 13): (0, 3),     # back from 16, not on from 8
           ("state_profile", 7): (0, 1),      # back from 8, not on from 0
           ("state_profile", 60): (0, 1)}     # back from the level at 61


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
@pytest.mark.parametrize("first", sorted(ENTRY_POINTS))
def test_kernel_calls_per_request(system_id, first, monkeypatch):
    """A cold count through depth n steps the kernel n + 1 times, and a
    cold profile at depth n n times; a shorter prefix steps nothing; a
    request reaching k depths deeper than the memo steps k times; a
    profile below the memo's depth, 33 to 64 deep, steps n - c times
    from the checkpoint c = n - n % 8, or, for a system with an inverse
    step, steps back from the stored level above n when that is
    strictly nearer (the (kernel, back) steps of TWO_WAY)."""
    calls = {}
    monkeypatch.setitem(SYSTEMS, system_id, _fresh(system_id, calls))
    ENTRY_POINTS[first](system_id, 40)
    profile_first = first == "state_profile"
    two_way = "back" in calls
    assert calls == {"kernel": 40 if profile_first else 41,
                     **({"back": 0} if two_way else {})}
    for name, n, k in (("rule_counting_sequence", 25, 0),
                       ("count_via_rules", 40, 1 if profile_first else 0),
                       ("state_profile", 40, 0),
                       ("rule_counting_sequence", 47, 7),
                       ("count_via_rules", 50, 3),
                       ("count_via_rules", 13, 0),
                       ("state_profile", 61, 10),
                       ("state_profile", 13, 5),
                       ("state_profile", 40, 0),
                       ("state_profile", 0, 0),
                       ("state_profile", 7, 7),
                       ("state_profile", 60, 4),
                       ("state_profile", 56, 0)):
        calls.update(kernel=0, **({"back": 0} if two_way else {}))
        ENTRY_POINTS[name](system_id, n)
        if two_way:
            forward, back = TWO_WAY.get((name, n), (k, 0))
            assert calls == {"kernel": forward, "back": back}, (name, n)
        else:
            assert calls == {"kernel": k}, (name, n)


def test_minpoly_b_reads_the_201_210_memo():
    """minpoly-B takes its counts from the memo: once the memo holds
    depth n it steps no 201-210 level, and on an empty memo it steps each
    depth through n once."""
    for warm, requests in ((50, ((50, 0), (40, 0), (0, 0))),
                           (None, ((40, 41), (25, 0)))):
        calls = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(SYSTEMS, "201-210", _fresh("201-210", calls))
            if warm is not None:
                rule_counting_sequence("201-210", warm)
            for n, kernel in requests:
                calls.update(kernel=0)
                assert run_check("minpoly-B", n)[0], (warm, n)
                assert calls == {"kernel": kernel, "back": 0}, (warm, n)


@pytest.mark.parametrize("system_id", ["201-210", "011-201"])
def test_concurrent_requests_share_a_consistent_memo(system_id, monkeypatch,
                                                    stored_levels):
    """Four threads request different depths of one system at once; a
    tiny switch interval makes them interleave inside the DP.  The memo
    left behind holds the counts and levels of a cold run, and its
    checkpoints are the levels at their depths."""
    requests = [("rule_counting_sequence", 45), ("state_profile", 60),
                ("count_via_rules", 30), ("rule_counting_sequence", 55)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            system = _fresh(system_id)
            monkeypatch.setitem(SYSTEMS, system_id, system)
            barrier = threading.Barrier(len(requests))
            answers = {}

            def serve(name, n):
                barrier.wait(timeout=30)
                answers[name, n] = ENTRY_POINTS[name](system_id, n)

            threads = [threading.Thread(target=serve, args=r) for r in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert answers == {(name, n): _expected(name, system_id, n)
                               for name, n in requests}
            counts, level, _ = system.memo._memo
            depth = len(counts)
            cold_counts, cold_profiles = _cold(system_id, 60)
            assert depth >= 30
            assert counts == cold_counts[:depth]
            assert system.to_dict(level) == cold_profiles[depth]
            stored = stored_levels(system.memo)
            assert len(stored) == depth // 8 + 1
            for d, checkpoint in stored:
                assert system.to_dict(checkpoint) == cold_profiles[d]
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_extension_cuts_the_memo_back_to_its_last_checkpoint(system_id,
                                                            monkeypatch):
    """While a request extends the memo from depth 21 to 30, the memo is
    published after every step: when the kernel steps the level at depth
    d, the memo holds the counts through d - 1 and that very level, so it
    no longer holds any older level; afterwards it reaches the new
    depth."""
    seen, watching = [], []
    system = _fresh(system_id)
    kernel = system.kernel

    def watching_kernel(level):
        if watching:
            counts, deepest, _ = system.memo._memo
            seen.append((len(counts), deepest is level))
        return kernel(level)

    system.kernel = watching_kernel
    system.memo._KEEP = KEEP
    monkeypatch.setitem(SYSTEMS, system_id, system)
    rule_counting_sequence(system_id, 21)
    watching.append(True)
    rule_counting_sequence(system_id, 30)
    assert seen == [(d, True) for d in range(22, 31)]
    assert len(system.memo._memo[0]) == 31
    assert state_profile(system_id, 21) == _expected("state_profile",
                                                     system_id, 21)


def test_verify_routes_stay_off_the_memo(monkeypatch, fresh_states):
    """The census of the system check, a full run of the 201-210 kernel
    in a Prefix of its own, and the (k,F,F) slice that minpoly-A reads
    neither read nor write the memo, so verify's census is never served
    by the route it checks: they leave a fresh memo empty and ignore a
    poisoned one.  The census's (k,T,F) row at x^m is the second of the
    census rows its level at x^(m+1) holds, after the DP level."""
    n = 20
    system = _fresh("201-210")
    monkeypatch.setitem(SYSTEMS, "201-210", system)

    def tf_of_the_census():
        assert checks._check_system_violation(n) is None
        census = _STATES["system-201-210"]
        return [sum(census.level(m + 1)[1][1]) for m in range(n + 1)]
    tf = tf_of_the_census()
    ff = checks._ff_slice_prefix().counts(n)
    assert system.memo._memo is None
    levels = _cold("201-210", n)[1]
    for little, sums in ((F, ff), (T, tf)):
        assert sums == [
            sum(m for (_, ell, com), m in level.items()
                if ell == little and not com) for level in levels]
    junk = ([9], [9], [9])
    poison = ([-1] * 100, junk, (junk,) * (KEEP + 1))
    system.memo._memo = poison
    del _STATES["ff_slice_series"], _STATES["system-201-210"]
    assert tf_of_the_census() == tf
    assert checks._ff_slice_prefix().counts(n) == ff
    assert system.memo._memo is poison


def test_series_prefixes_stay_off_the_memo(monkeypatch, fresh_states):
    """The (k,F,F) slice and iterate_fe, served from empty series prefixes,
    leave fresh rules memos empty and ignore poisoned ones."""
    fresh = {system_id: _fresh(system_id) for system_id in SYSTEM_IDS}
    for system_id, system in fresh.items():
        monkeypatch.setitem(SYSTEMS, system_id, system)
    fe_ids = ("011-201", "010-100-120-210")

    def answers():
        for key in [key for key in _STATES if key not in fresh]:
            del _STATES[key]
        return (checks._ff_slice_prefix().counts(400),
                [series.iterate_fe(system_id, 30) for system_id in fe_ids])

    ff, fe = answers()
    assert all(system.memo._memo is None for system in fresh.values())
    assert ff[400] == comb(800, 400) // 401
    assert fe == [_cold(system_id, 30)[0] for system_id in fe_ids]
    poison = {}
    for system_id, system in fresh.items():
        junk = ([9], [9], [9]) if system_id == "201-210" else [[9]]
        poison[system_id] = system.memo._memo = (
            [-1] * 500, junk, (junk,) * (KEEP + 1))
    assert answers() == (ff, fe)
    assert {system_id: system.memo._memo for system_id, system in fresh.items()} \
        == poison
