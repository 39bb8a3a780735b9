"""The named cross-checks behind ``invseq verify``.

Each check compares two routes to the same numbers (closed form, rules,
oracle, series relations, functional equations, the core matcher)
through a depth n_max and returns (ok, lines).  The lines always include
the first counterexample on failure; checks that only gather evidence for
open conjectures say so explicitly on success.

Where the numbers come from, each state kept in the registry of
``invseq.prefix``:

  * the rules memo: gf-vs-rules, fe-vs-rules, wilf-011-201 and
    oracle-vs-rules read their rule counts from
    ``rule_counting_sequence``, and minpoly-F and minpoly-B read the
    memo's counts;
  * series prefixes, which never touch the memo: the closed form
    (gf-vs-rules), the (k,F,F) slice sums (minpoly-A, and minpoly-B
    subtracts them from the memo's counts), ``iterate_fe``
    (fe-vs-rules, on each system of ``series._FE_STEP``) and the census
    of the 201-210 system with the residual rows of its three equations,
    one x-degree per step (system-201-210, through
    ``_check_system_violation``, which proves the four cleared relations
    from those three);
  * relation prefixes: minpoly-A, minpoly-B and minpoly-F each read
    one route (``_relation_prefix``), keyed on the prefixes above that
    it reads, whose count is the first nonzero order of the relation's
    residual.  It checks the linear ODE of the relation, derived in its
    first step, one coefficient per step in O(order) big-integer
    operations, and steps the residual, one coefficient per step, only
    through the depth n0 that the ODE proves enough (0 for A and 2 for
    B and F on their counts), or through n_max once the ODE fails;
  * no state: the oracle is the ground truth, so oracle-vs-rules and
    conjecture-010-102 count with ``count_sequence`` from scratch on
    every request, and conjecture-010-102 evaluates its cubic with
    ``relation_residual``, which keeps no state; structure-theorem
    builds the order masks of each length through n_max afresh on every
    request (``_order_masks`` in ``invseq.core``) and runs the structure
    checker and the avoidance test of {201, 210} on every word of the
    length at once (``_sliced_checker`` and ``_sliced_avoider``), so a
    fault planted in either side, or in the compiled groups the
    avoidance test reads, is seen by the next request.

So a process serving many checks steps each depth of each route,
derives each ODE and evaluates each coefficient of each residual once,
and a check handed another route (a planted fault, say), or a relation
whose source was handed one, runs it cold.
gf-vs-rules, oracle-vs-rules, fe-vs-rules and wilf-011-201 compare
their sequences in one place (``_compare``), and oracle-vs-rules and
fe-vs-rules count a system only once the ones before it agree.

``invseq.series`` is not imported with this module: gf-vs-rules,
minpoly-A, minpoly-B, minpoly-F, system-201-210, fe-vs-rules and
conjecture-010-102 each import what they read of it in their own body,
so the first of them that runs loads it, and oracle-vs-rules,
structure-theorem and wilf-011-201 never do.  A fault planted in one of
those names is planted in ``invseq.series``, which they read at call
time.

``CHECKS`` maps each name to (check, default depth), and ``run_check``
runs one by name, the way the command line and the acceptance suite do:

>>> run_check("gf-vs-rules", 5)
(True, ['OK: closed form matches the rules through n=5'])
"""

from .core import _order_masks, _sliced_avoider, _sliced_checker, render_word
from .oracle import count_sequence
from .succession import get_system, rule_counting_sequence, SYSTEMS


def _compare(triples, fail, ok):
    """(False, [fail % (*label, n, x_n, y_n)]) for the first n at which
    some (label, xs, ys) of triples differs, the triples taken in
    order, each only once the ones before it agree; else (True, [ok])."""
    for label, xs, ys in triples:
        for n, (a, b) in enumerate(zip(xs, ys)):
            if a != b:
                return False, [fail % (*label, n, a, b)]
    return True, [ok]


def _verify_gf_vs_rules(n_max):
    from .series import f_coefficients
    return _compare(
        [((), f_coefficients(n_max), rule_counting_sequence("201-210", n_max))],
        "FAIL at n=%d: closed form %d != rules %d",
        "OK: closed form matches the rules through n=%d" % n_max)


def _verify_oracle_vs_rules(n_max):
    return _compare(
        (((system_id,), count_sequence(system.basis, n_max),
          rule_counting_sequence(system_id, n_max))
         for system_id, system in SYSTEMS.items()),
        "FAIL for %s at n=%d: oracle %d != rules %d",
        "OK: oracle matches the rules for all three systems through n=%d"
        % n_max)


def _verify_minpoly(relation, n_max, *sources):
    """Evaluate the relation at y_k = the count at k of the first source
    prefix minus those of the others: the count at n_max of its relation
    prefix, keyed on the bound count of each source (see
    ``_relation_prefix``).  Each source is reached to n_max first, so
    that every step of the route reads a stored count."""
    from .series import _relation_prefix
    for source in sources:
        source.count(n_max)
    first = _relation_prefix(
        relation, *[source.count for source in sources]).count(n_max)
    if first is not None:
        return False, ["FAIL: residual first nonzero at order %d" % first]
    return True, ["OK: relation holds through n=%d" % n_max]


def _verify_minpoly_a(n_max):
    from .series import _ff_slice_prefix, MINPOLY_A
    return _verify_minpoly(MINPOLY_A, n_max, _ff_slice_prefix())


def _verify_minpoly_b(n_max):
    from .series import _ff_slice_prefix, MINPOLY_B
    # B(x,1) = F(x) - A(x,1): the 201-210 rules accept (k,F,F) and (k,T,F)
    # and never reach (k,F,T), so a depth's count minus its (k,F,F) sum is
    # its (k,T,F) sum, the b slice of the 201-210 DP summed over k.
    return _verify_minpoly(MINPOLY_B, n_max, get_system("201-210").memo,
                           _ff_slice_prefix())


def _verify_minpoly_f(n_max):
    from .series import MINPOLY_F
    return _verify_minpoly(MINPOLY_F, n_max, get_system("201-210").memo)


def _verify_system(n_max):
    from .series import _check_system_violation
    violation = _check_system_violation(n_max)
    if violation is not None:
        return False, ["FAIL: equation %s first differs at x^%d u^%d" % violation]
    return True, ["OK: all seven bivariate identities hold through n=%d" % n_max]


def _verify_structure(n_max):
    """Compare the structure checker with pattern avoidance on every
    inversion sequence of length at most n_max, one length at a time and
    every word of a length at once: the two sides of ``invseq.core`` mark
    the words they pass as bits of one mask, numbered in the order of
    itertools.product, so the first word on which they disagree is the
    lowest bit where the masks differ, decoded by mixed radix."""
    basis = get_system("201-210").basis
    for n in range(n_max + 1):
        lt = _order_masks(n)
        checked = _sliced_checker(n, lt)
        avoided = _sliced_avoider(basis, n, lt)
        differ = checked ^ avoided
        if differ:
            w = index = (differ & -differ).bit_length() - 1
            e = []
            for size in range(n, 0, -1):
                index, v = divmod(index, size)
                e.append(v)
            return False, ["FAIL at e=%s: checker %s, avoidance %s"
                           % (render_word(e[::-1]), bool(checked >> w & 1),
                              bool(avoided >> w & 1))]
    return True, ["OK: checker agrees with pattern avoidance for all "
                  "inversion sequences through n=%d" % n_max]


def _verify_fe_vs_rules(n_max):
    from .series import _FE_STEP, iterate_fe
    return _compare(
        (((system_id,), iterate_fe(system_id, n_max),
          rule_counting_sequence(system_id, n_max))
         for system_id in _FE_STEP),
        "FAIL for %s at n=%d: iteration %d != rules %d",
        "OK: functional-equation iteration matches the rules through n=%d"
        % n_max)


def _verify_wilf(n_max):
    return _compare(
        [((), rule_counting_sequence("011-201", n_max),
          rule_counting_sequence("010-100-120-210", n_max))],
        "FAIL at n=%d: 011-201 gives %d, 010-100-120-210 gives %d",
        "OK: the two systems agree through n=%d "
        "(evidence for the conjecture, not a proof)" % n_max)


def _verify_conjecture(n_max):
    from .series import CUBIC_010_102, relation_residual
    residual = relation_residual(
        CUBIC_010_102, count_sequence(((0, 1, 0), (1, 0, 2)), n_max))
    if residual is not None:
        return False, ["FAIL: cubic residual first nonzero at order %d" % residual]
    return True, ["OK: conjectured cubic fits brute-force counts through "
                  "n=%d (evidence, not a proof)" % n_max]


CHECKS = {
    "gf-vs-rules": (_verify_gf_vs_rules, 60),
    "oracle-vs-rules": (_verify_oracle_vs_rules, 10),
    "minpoly-A": (_verify_minpoly_a, 200),
    "minpoly-B": (_verify_minpoly_b, 200),
    "minpoly-F": (_verify_minpoly_f, 200),
    "system-201-210": (_verify_system, 40),
    "structure-theorem": (_verify_structure, 9),
    "fe-vs-rules": (_verify_fe_vs_rules, 30),
    "wilf-011-201": (_verify_wilf, 200),
    "conjecture-010-102": (_verify_conjecture, 14),
}


def run_check(name, n_max=None):
    """Run the named check through n_max (its default depth when None)
    and return (ok, lines).

    An unknown name or a negative depth raises ValueError.  An
    arithmetic error inside the check, such as an inexact division, is a
    failure: (False, ["FAIL: <message>"]).
    """
    if name not in CHECKS:
        raise ValueError("unknown check %r (have: %s)"
                         % (name, ", ".join(sorted(CHECKS))))
    check, default_depth = CHECKS[name]
    if n_max is None:
        n_max = default_depth
    if n_max < 0:
        raise ValueError("n-max must be nonnegative")
    try:
        return check(n_max)
    except ArithmeticError as exc:
        return False, ["FAIL: %s" % exc]
