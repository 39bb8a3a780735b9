"""Inversion sequences, patterns, and classical containment.

An inversion sequence of length n is a word e(1)...e(n) of non-negative
integers with 0 <= e(i) < i for every position i (1-indexed).  Internally
words are plain tuples indexed from 0, so the bound reads e[i] <= i.

A pattern is a word that uses every value between 0 and its maximum, e.g.
101 is a pattern but 202 is not.  A sequence contains a pattern if some
(not necessarily consecutive) subsequence standardizes to it; otherwise it
avoids the pattern.  A subsequence standardizes to p exactly when every
pair of its entries compares (<, =, >) as the same pair of p does.

The matcher.  avoids(e, basis) is the one matcher; contains(e, p) is
avoids(e, (p,)) negated.  A basis is compiled once, through a small
cache keyed on it as a tuple of tuples, and each pattern is validated
there; a bad pattern is never cached, so it raises on every call.  The
matcher shares nothing with the oracle's bans and is checked in the
tests against the definition (standardize over itertools.combinations).

- Length 3, the middle-entry test.  Fix the position j of the middle
  entry of a would-be occurrence of (x, y, z).  Its first entry a lies
  in the left class {a before j : cmp(a, e[j]) = cmp(x, y)} and its last
  entry b in the right class {b after j : cmp(b, e[j]) = cmp(z, y)};
  the one comparison left, between a and b, must equal cmp(z, x).  Some
  pair of the two classes passes it exactly when the classes share a
  value (cmp(z, x) = 0), min(right) < max(left) (cmp(z, x) < 0), or
  max(right) > min(left) (cmp(z, x) > 0).  So one pass over j decides
  every length-3 pattern, with the classes held as bitmasks of values;
  patterns with the same cmp(x, y), such as 201 and 210, share the left
  class.
- Any other length: a depth-first, left-to-right search on an explicit
  stack.  Once the earlier entries of an occurrence are picked, the
  next value must equal one of them or lie strictly between two of
  them, both fixed by the pattern alone, so each pattern compiles to one
  such window per entry and a candidate costs two comparisons.

>>> standardize((4, 3, 4, 7, 1, 9, 9, 3))
(2, 1, 2, 3, 0, 4, 4, 1)
>>> contains((0, 0, 0, 2, 0, 3, 4), (1, 0, 2))
True
>>> avoids((0, 0, 0, 2, 0, 3, 4), ((0, 1, 1),))
True
"""

from functools import lru_cache
from itertools import chain, repeat


def digit_word(text, what="word"):
    """The word a string of ASCII digits spells, one value per digit.

    Anything else raises ValueError that names the text as `what`: the
    empty string, signs, spaces, and the other characters str.isdigit
    accepts, such as Arabic-Indic digits and superscripts.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError("bad %s '%s': non-digit content" % (what, text))
    return tuple(map(int, text))


def parse_word(text):
    """Parse a word from digit-string or comma-separated form.

    "0023136638899" and "0,0,2,3,1,3,6,6,3,8,8,9,9" denote the same word.
    A comma anywhere selects the comma form; otherwise every character is
    one single-digit value.  Whitespace around commas is tolerated.
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
        for part in parts:
            digit_word(part, "entry")  # int() alone would take signs and '_'
        return tuple(map(int, parts))
    return digit_word(text)


def render_word(word):
    """Inverse of parse_word: digit-string when every value is a digit
    0..9, else comma-separated."""
    if max(word, default=0) > 9 or min(word, default=0) < 0:
        return ",".join(map(str, word))
    return "".join(map(str, word))


# Bytes 0..9 are digit values and byte 10 ends a line.
_LISTING_BYTES = bytes(range(11))
_LISTING_TEXT = bytes.maketrans(_LISTING_BYTES, b"0123456789\n")


def render_listing(words):
    """The text of a listing: each word as render_word gives it, followed
    by a newline.  The empty listing is the empty string, and the listing
    of the empty word alone is one newline.

    words is a list of tuples of integers.  When every value is a digit
    0..9, as in any inversion sequence of length at most 10, the words
    become one bytes object with a 10 after each word.  One translate
    checks that it holds nothing above 10, a count that its only 10s are
    the separators, and one translate maps it to ASCII.  Any other listing
    (a negative value, which bytes() rejects, or one of 10 or more) is
    rendered word by word.

    >>> print(render_listing([(0, 0, 1), (0, 1, 2)]), end="")
    001
    012
    >>> print(render_listing([(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]), end="")
    0,1,2,3,4,5,6,7,8,9,10
    """
    try:
        data = bytes(chain.from_iterable(map(tuple.__add__, words, repeat((10,)))))
    except ValueError:  # a value below 0 or above 255
        data = None
    if (data is None or data.translate(None, _LISTING_BYTES)
            or data.count(10) != len(words)):
        return "".join([render_word(word) + "\n" for word in words])
    return data.translate(_LISTING_TEXT).decode("ascii")


def standardize(word):
    """Replace each entry by the rank of its value (smallest distinct value
    becomes 0, next becomes 1, and so on).

    >>> standardize((5, 5, 5))
    (0, 0, 0)
    """
    ranks = {v: r for r, v in enumerate(sorted(set(word)))}
    return tuple(ranks[v] for v in word)


def is_inversion_sequence(word):
    """True when 0 <= word[i] <= i for every 0-indexed position."""
    return all(0 <= v <= i for i, v in enumerate(word))


def is_valid_pattern(word):
    """True when the word uses every value from 0 to its maximum.

    The empty word is a valid (if useless) pattern under this test; callers
    that need a nonempty pattern must check that separately.
    """
    if not word:
        return True
    if min(word) < 0:
        return False
    return set(word) == set(range(max(word) + 1))


def validate_pattern(word):
    """Raise ValueError unless word is a valid nonempty pattern."""
    if not word:
        raise ValueError("empty pattern: containment of the empty pattern is undefined")
    if not is_valid_pattern(word):
        raise ValueError("%s is not an inversion pattern: it does not use every "
                         "value between 0 and its maximum" % render_word(word))


def _cmp(a, b):
    return (a > b) - (a < b)


def _windows(p):
    """Per entry t of p, the earlier entries that pin its value: (eq, lo, hi)
    is the index s < t with p[s] == p[t], else the indices of the largest
    earlier value below p[t] and of the smallest above it; -1 where absent.
    """
    windows = []
    for t, x in enumerate(p):
        eq = lo = hi = -1
        for s, y in enumerate(p[:t]):
            if y == x:
                eq = s
            elif y < x and (lo < 0 or y > p[lo]):
                lo = s
            elif y > x and (hi < 0 or y < p[hi]):
                hi = s
        windows.append((eq, lo, hi))
    return tuple(windows)


@lru_cache(maxsize=64)
def _compile(basis):
    """Validate each pattern of a basis (a tuple of tuples) once and turn it
    into matcher data: length-3 patterns grouped by the class of their
    left entry, windows for every other length."""
    groups = {}
    searches = []
    for p in dict.fromkeys(basis):
        validate_pattern(p)
        if len(p) == 3:
            x, y, z = p
            groups.setdefault(_cmp(x, y) + 1, []).append((_cmp(z, y) + 1, _cmp(z, x)))
        else:
            searches.append(_windows(p))
    return tuple((rel, tuple(tests)) for rel, tests in groups.items()), tuple(searches)


def _middle_match(e, groups):
    """Does e hold an occurrence of a length-3 pattern compiled into groups?

    Sets of values are bitmasks; right[j] holds the values after e[j].
    """
    n = len(e)
    if n < 3:
        return False
    if min(e) < 0 or max(e) >= n:
        e = standardize(e)  # values in 0..n-1 keep every mask within n bits
    right = [0] * n
    mask = 0
    for j in range(n - 1, 0, -1):
        right[j] = mask
        mask |= 1 << e[j]
    left = 1 << e[0]
    for j in range(1, n - 1):
        bit = 1 << e[j]
        # the values below, equal to and above e[j], indexed by cmp + 1;
        # -(bit << 1) sets every bit above e[j]
        classes = (bit - 1, bit, -(bit << 1))
        for rel, tests in groups:
            lc = left & classes[rel]
            if not lc:
                continue
            for right_rel, order in tests:
                rc = right[j] & classes[right_rel]
                if not rc:
                    continue
                if order == 0:  # a value in both classes
                    hit = lc & rc
                elif order < 0:  # min(right) < max(left)
                    hit = (rc & -rc).bit_length() < lc.bit_length()
                else:  # max(right) > min(left)
                    hit = rc.bit_length() > (lc & -lc).bit_length()
                if hit:
                    return True
        left |= bit
    return False


def _search(e, windows):
    """Does e hold an occurrence of the pattern compiled to windows?

    Depth first, left to right, on an explicit stack: depth t picks the
    position of the pattern's t-th entry, and its window bounds the value
    there by the values picked before it.
    """
    n, k = len(e), len(windows)
    if k > n:
        return False
    bottom, top = min(e), max(e)  # bounds for an entry with no window side
    vals = [0] * k
    nxt = [0] * k  # first position still to try at each depth
    t = 0
    while t >= 0:
        eq, lo, hi = windows[t]
        if eq >= 0:
            low = high = vals[eq]
        else:
            low = vals[lo] + 1 if lo >= 0 else bottom
            high = vals[hi] - 1 if hi >= 0 else top
        i, last = nxt[t], n - k + t  # leave room for the entries still needed
        while i <= last and not low <= e[i] <= high:
            i += 1
        if i > last:
            t -= 1
        elif t == k - 1:
            return True
        else:
            vals[t] = e[i]
            nxt[t] = i + 1
            t += 1
            nxt[t] = i + 1
    return False


def contains(e, p):
    """Does e contain the pattern p as a classical (subsequence) pattern?

    Raises ValueError unless p is a valid nonempty pattern.
    """
    return not avoids(e, (tuple(p),))


def avoids(e, basis):
    """True when e contains none of the patterns in basis.

    Raises ValueError, on every call, when a pattern of basis is empty or
    not a valid pattern.
    """
    if type(basis) is not tuple:
        basis = tuple(map(tuple, basis))
    try:
        groups, searches = _compile(basis)
    except TypeError:  # a pattern given as a list: the cache keys on tuples
        groups, searches = _compile(tuple(map(tuple, basis)))
    e = tuple(e)
    if groups and _middle_match(e, groups):
        return False
    for windows in searches:
        if _search(e, windows):
            return False
    return True


def structure_check_201_210(e):
    """Avoidance test for {201, 210} that never searches for an occurrence.

    A sequence avoids both 201 and 210 exactly when, for each left-to-right
    maximum, the entries strictly smaller and strictly to the right of it
    take at most one distinct value.  We sweep right to left keeping the two
    smallest distinct values of the suffix: a left-to-right maximum m fails
    the condition exactly when the second-smallest suffix value is below m.

    >>> structure_check_201_210((0, 0, 2, 0, 1))
    False
    """
    e = tuple(e)
    n = len(e)
    if n == 0:
        return True
    # prefix maxima mark the left-to-right maxima (ties included)
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
