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
cache keyed on it as a tuple of tuples that holds pattern data only,
and each pattern is validated there; a bad pattern is never cached, so
it raises on every call.  The matcher shares nothing with the oracle's
bans and is checked in the tests against the definition (standardize
over itertools.combinations).

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
  class.  avoids runs that pass as the loop of _middle_match.
- Any other length: a depth-first, left-to-right search on an explicit
  stack.  Once the earlier entries of an occurrence are picked, the
  next value must equal one of them or lie strictly between two of
  them, both fixed by the pattern alone, so each pattern compiles to one
  such window per entry and a candidate costs two comparisons.

The structure checker.  structure_check_201_210(e) decides {201, 210}
avoidance by the paper's structural description, never searching for an
occurrence: at each left-to-right maximum of e (ties included), the
smaller entries to its right take at most one value.  On every integer
word this is avoidance.  If a maximum e[p] has smaller entries
e[q] != e[r] to its right, q < r, then (e[p], e[q], e[r]) is an
occurrence of 201 (e[q] < e[r]) or of 210 (e[q] > e[r]).  Conversely, in
an occurrence (e[i], e[j], e[k]) of either, e[j] and e[k] are below e[i]
and differ, and the first position p <= i that holds max(e[..i]) is a
left-to-right maximum with e[p] >= e[i], so it has two smaller values
to its right.  With values as bits, b = 1 << e[i] and the values after
position i as the suffix mask s, the smaller ones are low = s & (b - 1),
and low & (low - 1) == 0 says that there is at most one.  A word with a
value below 0 or with a bit at or past those of n - 1 is standardized
first, which keeps its answer, as the matcher does.
structure_check_201_210 runs the test as a loop, right to left.

The sliced sweep.  The structure-theorem check compares the checker with
avoidance of {201, 210} on every inversion sequence through its depth,
on all the words of a length at once.  Word w of length n is bit w of an
n!-bit int, the words numbered in the order of
itertools.product(*map(range, range(1, n + 1))).  _value_masks(n) gives
at[i][v], the words with e[i] = v, each a periodic block pattern built
by doubling shifts, and _order_masks(n) turns them into lt[a, b], the
words with e[a] < e[b], and frees them.  Every other set of words is
then a few ANDs and ORs of lt masks:

- _sliced_avoider(basis, n, lt), the middle-entry test of
  _middle_match, read from the same compiled groups of a basis of
  length-3 patterns: an OR over a < j < b of the left class, the right
  class and the hit test, each a comparison of two entries;
- _sliced_checker(n, lt), taken from the structural description itself:
  the words where some left-to-right maximum e[p] has positions q < r
  after it holding two different values below it.

No code is generated.  The checker and the matcher share only the word
masks, in the sliced sweep, and standardize, in their loops, so the
structure-theorem check compares two independent routes; the tests pin
the shared masks against the product order and each sliced side against
its loop.

>>> standardize((4, 3, 4, 7, 1, 9, 9, 3))
(2, 1, 2, 3, 0, 4, 4, 1)
>>> contains((0, 0, 0, 2, 0, 3, 4), (1, 0, 2))
True
>>> avoids((0, 0, 0, 2, 0, 3, 4), ((0, 1, 1),))
True
"""

from functools import lru_cache
from itertools import chain, repeat
from math import factorial


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
    left entry, and windows for every other length."""
    groups = {}
    searches = []
    for p in dict.fromkeys(basis):
        validate_pattern(p)
        if len(p) == 3:
            x, y, z = p
            groups.setdefault(_cmp(x, y) + 1, []).append((_cmp(z, y) + 1, _cmp(z, x)))
        else:
            searches.append(_windows(p))
    groups = tuple((rel, tuple(tests)) for rel, tests in groups.items())
    return groups, tuple(searches)


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
    e = tuple(e)
    groups, searches = _compile(tuple(map(tuple, basis)))
    if groups and _middle_match(e, groups):
        return False
    for windows in searches:
        if _search(e, windows):
            return False
    return True


def structure_check_201_210(e):
    """Avoidance test for {201, 210} that never searches for an occurrence.

    A sequence avoids both 201 and 210 exactly when, for each left-to-right
    maximum (ties included), the entries strictly smaller and strictly to
    the right of it take at most one distinct value.  Right to left, with
    the values after position i held as a bitmask, the smaller ones are
    that mask and (bit of e[i]) - 1; where two or more of them are set,
    e[i] must not be a left-to-right maximum, the largest of e[:i + 1].

    >>> structure_check_201_210((0, 0, 2, 0, 1))
    False
    """
    e = tuple(e)
    if e and (min(e) < 0 or max(e) >= len(e)):
        e = standardize(e)  # values in 0..n-1 keep every mask within n bits
    after = 0  # the values after position i
    for i in range(len(e) - 1, -1, -1):
        bit = 1 << e[i]
        low = after & (bit - 1)
        if low & (low - 1) and max(e[:i + 1]) == e[i]:
            return False
        after |= bit
    return True


def _value_masks(n):
    """at[i][v], for each position i < n and value v <= i, over the words
    of length n numbered in the order of
    itertools.product(*map(range, range(1, n + 1))): the int whose bit w
    is set when word w has e[i] = v.

    Position i moves every stride = (i + 2)(i + 3)...n words, so at[i][v]
    is a block of stride ones every (i + 1) * stride bits, at offset
    v * stride: one block, doubled by shifts until it covers all n! bits.
    """
    size = factorial(n)
    full = (1 << size) - 1
    at = []
    stride = size
    for i in range(n):
        period, stride = stride, stride // (i + 1)
        mask = (1 << stride) - 1
        while period < size:
            mask |= mask << period
            period *= 2
        mask &= full
        at.append([mask << v * stride for v in range(i + 1)])
    return at


def _order_masks(n):
    """lt[a, b], for each two positions a != b below n: the words of
    length n, as bits numbered as in _value_masks, with e[a] < e[b].

    For a < b, lt[a, b] is the OR over v of at[a][v] and the words with
    e[b] > v, and lt[b, a] is what is left once the words with e[a] <=
    e[b] are taken away.  The value masks are freed on return.
    """
    at = _value_masks(n)
    full = (1 << factorial(n)) - 1
    lt = {}
    for b in range(1, n):
        above, greater = [], 0  # above[v]: the words with e[b] > v
        for mask in reversed(at[b]):
            above.append(greater)
            greater |= mask
        above.reverse()
        for a in range(b):
            less = equal = 0
            for v, mask in enumerate(at[a]):
                less |= mask & above[v]
                equal |= mask & at[b][v]
            lt[a, b] = less
            lt[b, a] = full ^ less ^ equal
    return lt


def _sliced_avoider(basis, n, lt):
    """The avoiders of basis, a tuple of length-3 patterns, among the
    words of length n, as a mask of bits numbered as in _value_masks,
    from lt = _order_masks(n); any other basis raises ValueError.

    It is the middle-entry test of _middle_match on every word at once,
    read from the same compiled groups: a word holds an occurrence when,
    for some positions a < j < b, e[a] is in the left class of e[j],
    e[b] in the right class, and e[b] compares with e[a] as the hit test
    asks.
    """
    groups, searches = _compile(basis)
    if searches:
        raise ValueError("only length-3 patterns have a sliced matcher")
    full = (1 << factorial(n)) - 1

    def compares(c, p, q):
        """The words with cmp(e[p], e[q]) = c."""
        if c:
            return lt[p, q] if c < 0 else lt[q, p]
        return full ^ lt[p, q] ^ lt[q, p]
    hits = 0
    for j in range(1, n - 1):
        for rel, tests in groups:
            for a in range(j):
                left = compares(rel - 1, a, j)
                for b in range(j + 1, n):
                    for right_rel, order in tests:
                        hits |= (left & compares(right_rel - 1, b, j)
                                 & compares(order, b, a))
    return full ^ hits


def _sliced_checker(n, lt):
    """structure_check_201_210 on every word of length n at once, as a
    mask of bits numbered as in _value_masks, from lt = _order_masks(n).

    Taken from the definition, not from the loop: a word fails when some
    left-to-right maximum e[p] (no earlier entry above it) has positions
    q < r after it that hold two different values below e[p].
    """
    full = (1 << factorial(n)) - 1
    fails = 0
    for p in range(n - 2):
        maximum = full
        for i in range(p):
            maximum &= ~lt[p, i]
        for q in range(p + 1, n - 1):
            below = maximum & lt[q, p]
            for r in range(q + 1, n):
                fails |= below & lt[r, p] & (lt[q, r] | lt[r, q])
    return full ^ fails
