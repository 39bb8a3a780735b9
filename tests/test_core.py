import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from invseq import core
from invseq.checks import run_check
from invseq.core import (
    avoids,
    contains,
    is_inversion_sequence,
    is_valid_pattern,
    parse_word,
    render_listing,
    render_word,
    standardize,
    structure_check_201_210,
    validate_pattern,
)


def all_inversion_sequences(n):
    return itertools.product(*[range(i + 1) for i in range(n)])


# -- parsing and rendering --------------------------------------------------

def test_parse_digit_string():
    assert parse_word("201") == (2, 0, 1)
    assert parse_word("0023136638899") == (0, 0, 2, 3, 1, 3, 6, 6, 3, 8, 8, 9, 9)
    assert parse_word("") == ()


def test_parse_comma_form():
    assert parse_word("10,2,0") == (10, 2, 0)
    assert parse_word("0,1") == (0, 1)


def test_parse_garbage_rejected():
    for bad in ("2x1", "1,", ",1", "1, 2,", "-1", "2,-1",
                "\u0660\u0661", "\u00b2", "\u0663,1", "+1,2", "1_0,2"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_render_word():
    assert render_word((2, 0, 1)) == "201"
    assert render_word((10, 2, 0)) == "10,2,0"
    assert render_word((-1, 0)) == "-1,0"
    assert render_word(()) == ""


@settings(max_examples=100)
@given(st.one_of(
    st.lists(st.tuples(), max_size=2),  # [] and [()], n = 0
    st.lists(st.lists(st.integers(min_value=-3, max_value=40), max_size=12)
             .map(tuple), max_size=8),
    st.lists(st.lists(st.integers(min_value=0, max_value=9), max_size=12)
             .map(tuple), max_size=8),
))
@example([(10,)])  # a value equal to the separator byte
@example([(0, 10, 2), (1,)])
def test_render_listing_matches_render_word(words):
    text = "\n".join(map(render_word, words))
    assert render_listing(words) == (text + "\n" if words else text)


def test_parse_render_round_trip():
    for w in ((0, 1, 2), (9,), (0, 11, 3), (0, 1, 10, 2), ()):
        assert parse_word(render_word(w)) == w
    # a lone value >= 10 renders without a comma, so the digit-string
    # reading wins on the way back; that ambiguity is documented behavior
    assert parse_word(render_word((10,))) == (1, 0)


# -- standardization --------------------------------------------------------

def test_standardize_worked_example():
    assert standardize(parse_word("43471993")) == parse_word("21230441")


def test_standardize_trivia():
    assert standardize(()) == ()
    assert standardize((5, 5, 5)) == (0, 0, 0)


words = st.lists(st.integers(min_value=0, max_value=30), max_size=12).map(tuple)


@settings(max_examples=200)
@given(words)
def test_standardize_preserves_order(w):
    s = standardize(w)
    assert len(s) == len(w)
    assert is_valid_pattern(s)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            assert (w[i] < w[j]) == (s[i] < s[j])
            assert (w[i] == w[j]) == (s[i] == s[j])


@settings(max_examples=120)
@given(words)
def test_standardize_idempotent(w):
    assert standardize(standardize(w)) == standardize(w)


# -- validity predicates ----------------------------------------------------

def test_is_inversion_sequence():
    assert is_inversion_sequence(parse_word("0002034"))
    assert is_inversion_sequence(parse_word("0023136638899"))
    assert is_inversion_sequence(())
    assert not is_inversion_sequence((1,))
    assert not is_inversion_sequence((0, 2))


def test_is_valid_pattern():
    assert is_valid_pattern(parse_word("101"))
    assert is_valid_pattern((0,))
    assert not is_valid_pattern(parse_word("202"))
    assert not is_valid_pattern((1, 2))
    assert not is_valid_pattern((-1, 0))


def test_validate_pattern():
    validate_pattern((1, 0, 1))
    with pytest.raises(ValueError):
        validate_pattern((2, 0, 2))
    with pytest.raises(ValueError, match="^-1,0 is not an inversion pattern"):
        validate_pattern((-1, 0))
    # containment of the empty pattern is left undefined on purpose
    with pytest.raises(ValueError):
        validate_pattern(())


# -- containment ------------------------------------------------------------

def test_contains_worked_examples():
    e = parse_word("0002034")
    assert contains(e, (1, 0, 2))      # e(4)e(5)e(7) = 204
    assert not contains(e, (0, 1, 1))


def test_contains_self_standardization():
    for e in ((0,), (0, 1), (0, 0, 2), (0, 1, 0, 3)):
        assert contains(e, standardize(e))


def test_contains_rejects_empty_pattern():
    with pytest.raises(ValueError):
        contains((0, 0), ())


def test_avoids():
    assert avoids((0, 1, 2), ((1, 0),))
    assert not avoids((0, 1, 0), ((0, 1, 0),))
    assert avoids((0, 1, 0), ())


def test_avoids_on_a_tuple_of_lists_agrees_with_tuples():
    """avoids turns each pattern of a basis into a tuple before it
    compiles the basis, so a tuple of lists is compiled, and answers, as
    the same tuples."""
    for e in ((0, 1, 0), (0, 0, 1)):
        assert avoids(e, ([0, 1, 0],)) == avoids(e, ((0, 1, 0),))


def test_contains_rejects_invalid_patterns_on_every_call():
    # valid calls fill the compiled-basis cache first; a bad pattern must
    # still raise each time, never be served from the cache
    for p in ((0, 1, 0), (1, 0), (0, 1, 2, 0)):
        contains((0, 1, 0, 2), p)
        avoids((0, 1, 0, 2), [list(p)])
    for _ in range(3):
        for bad in ((), (0, 2)):
            with pytest.raises(ValueError):
                contains((0, 1, 0, 2), bad)
            with pytest.raises(ValueError):
                avoids((0, 1, 0, 2), ((0, 1), bad))


# every valid pattern of length 1 to 4: 1 + 3 + 13 + 75
PATTERNS_1_4 = [p for k in range(1, 5) for p in itertools.product(range(k), repeat=k)
                if is_valid_pattern(p)]


def occurs(e, p):
    """The definition: some subsequence of e standardizes to p."""
    return any(standardize(sub) == p for sub in itertools.combinations(e, len(p)))


inversion_sequences = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(*[st.integers(min_value=0, max_value=i) for i in range(n)]))


@settings(max_examples=400)
@given(inversion_sequences, st.sampled_from(PATTERNS_1_4))
def test_contains_matches_brute_force(e, p):
    assert contains(e, p) == occurs(e, p)


@settings(max_examples=300)
@given(inversion_sequences,
       st.lists(st.sampled_from(PATTERNS_1_4), max_size=3),
       st.booleans())
def test_avoids_matches_definition(e, patterns, as_lists):
    # duplicates are allowed, and some bases arrive as lists of lists
    basis = [list(p) for p in patterns] if as_lists else tuple(patterns)
    assert avoids(e, basis) == (not any(occurs(e, p) for p in patterns))


# every basis of one or two length-3 patterns: 13 + 78
PATTERNS_3 = [p for p in PATTERNS_1_4 if len(p) == 3]
BASES_3 = [(p,) for p in PATTERNS_3] + list(itertools.combinations(PATTERNS_3, 2))


def test_the_generated_matcher_equals_the_loop():
    """The matcher core._avoider generates for a length agrees, on every
    inversion sequence of that length up to 6, with the loop of
    _middle_match for every basis of length-3 patterns."""
    assert len(BASES_3) == 91
    for basis in BASES_3:
        groups = core._compile(basis)[0]
        for n in range(7):
            avoid = core._avoider(basis, n)
            words = list(all_inversion_sequences(n))
            assert ([avoid(e) for e in words]
                    == [not core._middle_match(e, groups) for e in words]), basis


def test_only_length_3_patterns_have_a_generated_matcher():
    for basis in (((0, 1),), ((2, 0, 1), (0, 1, 0, 2))):
        with pytest.raises(ValueError):
            core._avoider(basis, 5)


def _any_word(n):
    """Words of length n with negative, out-of-range and huge values."""
    return st.lists(st.integers(min_value=-3, max_value=n + 3)
                    | st.sampled_from([-10**30, 10**30]),
                    min_size=n, max_size=n)


@settings(max_examples=100)
@given(st.lists(st.sampled_from([p for p in PATTERNS_1_4 if len(p) > 1]),
                min_size=1, max_size=3),
       st.integers(min_value=0, max_value=14).flatmap(_any_word))
def test_avoids_and_the_generated_matcher_match_definition_on_any_integer_word(
        patterns, e):
    """Bases mixing lengths 2 to 4, on any integer word up to 14 entries:
    avoids, and the matcher generated for the word's length from the
    basis's length-3 patterns."""
    assert avoids(e, patterns) == (not any(occurs(e, p) for p in patterns))
    basis = tuple(p for p in patterns if len(p) == 3)
    assert (core._avoider(basis, len(e))(tuple(e))
            == (not any(occurs(e, p) for p in basis)))


def test_only_the_sweep_generates_code_once_per_length_per_process(
        monkeypatch, fresh_states):
    """Single calls of the matcher and the structure checker generate
    nothing; a structure-theorem sweep through 6 generates one checker
    and one matcher per length 0 to 6, a second sweep none, and a sweep
    after the registry is emptied one of each again."""
    made = Counter()

    def counted(source, filename, *args, _real=compile):
        made[filename] += 1
        return _real(source, filename, *args)
    monkeypatch.setattr(core, "compile", counted, raising=False)
    basis = ((2, 0, 1), (2, 1, 0))
    for n in range(16):
        for e in ((0,) * n, tuple(range(n)), tuple(range(n))[::-1]):
            assert avoids(e, basis) == (not any(occurs(e, p) for p in basis))
            assert structure_check_201_210(e) == avoids(e, basis)
    assert not made
    once = Counter(["<middle-entry test, n=%d>" % n for n in range(7)]
                   + ["<structure checker, n=%d>" % n for n in range(7)])
    for resets in range(1, 3):
        for _ in range(2):
            assert run_check("structure-theorem", 6)[0]
        assert made == Counter({name: resets for name in once})
        fresh_states()


def test_contains_any_integer_word():
    # words outside inversion-sequence range are matched by value order
    assert contains((-3, 40, 7), (0, 2, 1))
    assert not contains((10**30, -5, 10**30), (0, 1, 0))
    assert contains((5, -1, 5, 2), (1, 0, 1))


@settings(max_examples=120)
@given(st.data())
def test_contains_monotone_under_extension(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    e = tuple(data.draw(st.integers(min_value=0, max_value=i)) for i in range(n))
    p = data.draw(st.sampled_from([(0, 1, 0), (1, 0, 2), (2, 0, 1), (1, 0)]))
    x = data.draw(st.integers(min_value=0, max_value=n))
    if contains(e, p):
        assert contains(e + (x,), p)


# -- structural characterization -------------------------------------------

def test_structure_check_worked_examples():
    assert structure_check_201_210(parse_word("00002204535377896966"))
    assert not structure_check_201_210(parse_word("00201"))
    assert structure_check_201_210(())


def two_smallest_check(e):
    """The structure check by another algorithm: sweep a word of
    non-negative values right to left keeping the two smallest distinct
    values to the right; a left-to-right maximum m (ties included) fails
    when the second-smallest of them is below m."""
    n = len(e)
    is_lr_max = [False] * n
    best = -1
    for i, v in enumerate(e):
        if v >= best:
            is_lr_max[i] = True
            best = v
    lo1 = lo2 = None  # two smallest distinct values strictly to the right
    for i in range(n - 1, -1, -1):
        if is_lr_max[i] and lo2 is not None and lo2 < e[i]:
            return False
        v = e[i]
        if lo1 is None or v < lo1:
            if lo1 is not None and v != lo1:
                lo2 = lo1 if (lo2 is None or lo1 < lo2) else lo2
            lo1 = v
        elif v != lo1 and (lo2 is None or v < lo2):
            lo2 = v
    return True


def test_the_generated_checker_equals_the_loops():
    """On every inversion sequence of length at most 8, the checker
    core._structure_checker generates for its length agrees with the
    bitmask loop of structure_check_201_210 and with the sweep of the
    two smallest suffix values."""
    words = [e for n in range(9) for e in all_inversion_sequences(n)]
    assert len(words) == 46234
    checked = [structure_check_201_210(e) for e in words]
    checkers = [core._structure_checker(n) for n in range(9)]
    assert checked == [checkers[len(e)](e) for e in words]
    assert checked == [two_smallest_check(e) for e in words]


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=16).flatmap(_any_word))
@example([-2, -10**30, -3])  # 201 once standardized
def test_structure_check_matches_avoidance_on_any_integer_word(e):
    """Any integer word up to 16 entries, with negative, out-of-range and
    huge values and ties: the loop, the checker and the matcher
    generated for its length, and avoids all agree."""
    basis = ((2, 0, 1), (2, 1, 0))
    expected = avoids(e, basis)
    assert structure_check_201_210(e) == expected
    assert core._structure_checker(len(e))(tuple(e)) == expected
    assert core._avoider(basis, len(e))(tuple(e)) == expected


def test_structure_check_matches_avoidance_small():
    # the exhaustive length <= 9 sweep lives in the acceptance tests
    basis = ((2, 0, 1), (2, 1, 0))
    for n in range(7):
        for e in all_inversion_sequences(n):
            assert structure_check_201_210(e) == avoids(e, basis)
