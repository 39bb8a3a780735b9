"""Reply checks, run after the timed loop has ended.

Every reply is compared against a second route wherever one exists:

* 201-210: replies from the rules and from the closed form are both
  checked against a sequence on which the two routes agree;
* 011-201 and 010-100-120-210: the two systems' rules must agree with
  each other and, at small n, with functional-equation iteration;
* oracle bases: against reference.json, whose entries for the three
  system bases must equal the rules and whose {010,102} entry must fit
  the conjectured cubic; the deep-thin bases have exactly one avoider,
  the all-zero word, at every length;
* list: as many lines as the count, each a valid inversion sequence of
  the right length, in strictly increasing order, and (at n <= 6)
  avoiding the basis under ``invseq.core.avoids``;
* profile: states in sorted order, accepted counts summing to the count;
* verify: every line reports OK.

Requests whose stdout digest was recorded in reference.json must also
reproduce it byte for byte.  A failed check never stops the run; it
makes the request count as failed.
"""

import hashlib
import json
import os
import re

from workloads import SYSTEM_BASES, THIN_FAST, THIN_GENERIC

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
FE_CHECK_DEPTH = 20
AVOIDS_CHECK_DEPTH = 6


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def parse_basis(text):
    return tuple(tuple(int(ch) for ch in word) for word in text.split(","))


def parse_word(line):
    if "," in line:
        return tuple(int(v) for v in line.split(","))
    return tuple(int(ch) for ch in line)


def _sequence_text(seq, req):
    n = req["n"]
    if req["kind"] == "count":
        return "%d\n" % seq[n]
    fmt = {"plain": "%(c)d\n", "csv": "%(n)d,%(c)d\n", "bfile": "%(n)d %(c)d\n"}
    line = fmt[req["format"]]
    return "".join(line % {"n": k, "c": c} for k, c in enumerate(seq[:n + 1]))


class Checker:
    """References for one run's requests, and the check of each reply."""

    def __init__(self, requests, reference):
        import invseq.series as series
        import invseq.succession as succession
        from invseq.core import avoids
        self._avoids = avoids
        self.digests = reference["digests"]
        self.problems = {}  # source -> why its references disagree
        self.seqs = {}      # system id or basis text -> counting sequence
        depth = {}
        for r in requests:
            key = r.get("system") or r.get("basis")
            if key:
                depth[key] = max(depth.get(key, 0), r["n"])

        def rules(system_id, n):
            return succession.rule_counting_sequence(system_id, n)

        if "201-210" in depth:
            n = depth["201-210"]
            gf = series.f_coefficients(n)
            if gf != rules("201-210", n):
                self.problems["201-210"] = "closed form != rules"
            self.seqs["201-210"] = gf
        pair = ("011-201", "010-100-120-210")
        if any(s in depth for s in pair):
            n = max(depth.get(s, 0) for s in pair)
            a, b = rules(pair[0], n), rules(pair[1], n)
            for s, seq in zip(pair, (a, b)):
                m = min(n, FE_CHECK_DEPTH)
                if a != b:
                    self.problems[s] = "the two systems' rules differ"
                elif series.iterate_fe(s, m) != seq[:m + 1]:
                    self.problems[s] = "iterate_fe != rules"
                self.seqs[s] = seq
        table = reference["counts"]
        for basis, n in depth.items():
            if basis in THIN_FAST + THIN_GENERIC:
                self.seqs[basis] = [1] * (n + 1)
            elif basis in table:
                seq = table[basis]
                self.seqs[basis] = seq
                if len(seq) <= n:
                    self.problems[basis] = "reference.json stops before n=%d" % n
                elif basis in SYSTEM_BASES and seq != rules(
                        SYSTEM_BASES[basis], len(seq) - 1):
                    self.problems[basis] = "reference.json != rules"
        if "010,102" in self.seqs:
            s = series.TruncatedSeries(self.seqs["010,102"])
            if series.relation_residual(series.CUBIC_010_102, s) is not None:
                self.problems["010,102"] = "reference.json misses the cubic"

    def check(self, req, reply):
        """None when the reply is right, else the reason it is not."""
        if reply["exc"]:
            return "raised " + reply["exc"]
        if reply["rc"] != 0:
            return "exit status %s: %s" % (reply["rc"], reply["err"].strip())
        out = reply["out"]
        key = " ".join(req["argv"])
        if key in self.digests and digest(out) != self.digests[key]:
            return "stdout differs from the recorded digest"
        kind = req["kind"]
        if kind == "verify":
            lines = out.splitlines()
            prefix = req["check"] + ": OK: "
            if not lines or not all(l.startswith(prefix) for l in lines):
                return "verify did not report OK"
            return None
        source = req.get("system") or req["basis"]
        if source in self.problems:
            return "no trusted reference: " + self.problems[source]
        if source not in self.seqs:
            return "no reference for " + source
        seq = self.seqs[source]
        if kind in ("count", "series"):
            if out != _sequence_text(seq, req):
                return "wrong counts"
        elif kind == "list":
            return self._check_list(req, seq, out)
        elif kind == "profile":
            return self._check_profile(req, seq, out)
        return None

    def _check_list(self, req, seq, out):
        n = req["n"]
        lines = out.split("\n")
        if lines.pop() != "":
            return "list output does not end in a newline"
        if len(lines) != seq[n]:
            return "listed %d words, count is %d" % (len(lines), seq[n])
        basis = parse_basis(req["basis"])
        prev = None
        for line in lines:
            w = parse_word(line)
            if len(w) != n or any(not 0 <= v <= i for i, v in enumerate(w)):
                return "%r is not an inversion sequence of length %d" % (line, n)
            if prev is not None and w <= prev:
                return "words not strictly increasing at %r" % line
            if n <= AVOIDS_CHECK_DEPTH and not self._avoids(w, basis):
                return "%r contains a basis pattern" % line
            prev = w
        return None

    def _check_profile(self, req, seq, out):
        three = req["system"] == "201-210"
        pattern = (re.compile(r"\((\d+),([TF]),([TF])\) (\d+)$") if three
                   else re.compile(r"\((\d+),(\d+)\) (\d+)$"))
        states, accepted = [], 0
        for line in out.splitlines():
            m = pattern.match(line)
            if not m:
                return "bad profile line %r" % line
            g = m.groups()
            count = int(g[-1])
            if count <= 0:
                return "nonpositive count in %r" % line
            if three:
                state = (int(g[0]), g[1] == "T", g[2] == "T")
                accepted += 0 if state[2] else count
            else:
                state = (int(g[0]), int(g[1]))
                accepted += count
            states.append(state)
        if any(a >= b for a, b in zip(states, states[1:])):
            return "profile states not strictly increasing"
        if accepted != seq[req["n"]]:
            return "accepted states sum to %d, count is %d" % (accepted, seq[req["n"]])
        return None
