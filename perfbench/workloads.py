"""The three workloads: seeded op streams, their execution and output checks.

Every workload is a closed loop with one client: ops come in rounds, the
next op starts when the previous one returns, and a round has a fixed
composition (only the inputs and their order depend on the seed), so runs
of different length measure the same mix.

- `kernel`: word-problem arithmetic through the Python API in A5 and D5
  (permutation models) and F4 and H4 (reflection model).  `garside` does the
  timed work; building the H4 table dominates set-up.
- `census`: the exact searches: witness search in B3, bounded censuses in
  A3 and B3, dihedral censuses in I2(m), and standard parabolic membership
  in B3.  Many short junction multiplies with hot memos, unlike `kernel`'s
  long normalisations.
- `graphs`: one-shot graph commands through in-process `cli.main`; the graph
  builders and the distance work in `metrics` dominate, and delta rows on
  the 10,413-vertex B3 quotient-Cayley graph drive peak memory.

An op is a tuple `(kind, *inputs)`.  `prepare` turns inputs into API
arguments outside the timed region, `execute` is the timed call, and
`check` returns None for a right answer, INCONCLUSIVE, or a message saying
what is wrong.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from garsidehyp import absorbable as ab
from garsidehyp import cli
from garsidehyp import coxeter
from garsidehyp import garside as gd
from garsidehyp import parabolic as pb
from garsidehyp.errors import CapExceeded

INCONCLUSIVE = "inconclusive"


class Raised:
    """An exception an op raised, kept as its result."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def verdict(self) -> str:
        if isinstance(self.exc, CapExceeded):
            return INCONCLUSIVE
        return f"raised {type(self.exc).__name__}: {self.exc}"


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def random_word(rng: random.Random, labels, lo: int, hi: int) -> str:
    """A word of lo..hi letters, each a generator to the power +1 or -1."""
    return " ".join(rng.choice(labels) + rng.choice(("", "^-1"))
                    for _ in range(rng.randint(lo, hi)))


def stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers in lo..hi, one drawn uniformly from each of n equal strata."""
    return [lo + int((j + rng.random()) * (hi - lo + 1) / n) for j in range(n)]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

class Kernel:
    groups = ("A5", "D5", "F4", "H4")
    # Ops per round, by kind: normal form, product, inverse, word problem.
    # ROADMAP 1 names normal_form, multiply and invert throughput as cases of
    # equal standing, so each kind takes about a quarter of a round's op time
    # and the same relative speed-up of any kind moves ops_per_s alike.  The
    # counts follow the mean latencies measured at the commit that defined
    # the benchmark on 2 vCPUs with Python 3.11.7 (nf 2.10 ms, eq 3.72 ms,
    # mul 0.093 ms, inv 0.026 ms); `time_share` in the run record shows the
    # split of every run.  Each kind's ops are spread evenly over the groups
    # and the words of each (kind, group) evenly over the word lengths
    # (stratified), so that rounds of different seeds cost about the same.
    mix = (("nf", 12), ("mul", 272), ("inv", 952), ("eq", 8))
    word_letters = (8, 64)
    pool_size = 64     # operands held per group: the latest normalised words
    golden_words = 50  # per group, for the digest of rendered normal forms

    def __init__(self, golden: dict):
        self.golden = golden
        self.group = {spec: coxeter.parse_group_spec(spec) for spec in self.groups}
        self.lengths: collections.Counter = collections.Counter()
        self.pool: dict[str, collections.deque] = {}
        self.held: dict[tuple[str, str], object] = {}   # (group, word) -> nf

    def rounds(self, seed: int):
        """Rounds of ops.  Products and inverses take their operands from a
        pool of words normalised earlier, as a client holding those elements
        would; the pool starts with a quarter of its size of fresh words."""
        rng = random.Random(f"kernel:{seed}")
        self.pool = {spec: collections.deque(maxlen=self.pool_size)
                     for spec in self.groups}
        for spec in self.groups:
            labels = self.group[spec].generators
            self.pool[spec].extend(random_word(rng, labels, *self.word_letters)
                                   for _ in range(self.pool_size // 4))
        while True:
            ops = [self._op(rng, kind, spec, letters)
                   for kind, n in self.mix for spec in self.groups
                   for letters in stratified(rng, *self.word_letters,
                                             n // len(self.groups))]
            rng.shuffle(ops)
            for op in ops:
                if op[0] == "nf":
                    self.pool[op[1]].append(op[2])
            yield ops

    def _op(self, rng: random.Random, kind: str, spec: str, letters: int) -> tuple:
        labels = self.group[spec].generators

        def word():
            return random_word(rng, labels, letters, letters)

        def operand():
            return rng.choice(self.pool[spec])

        if kind == "mul":
            return ("mul", spec, operand(), operand())
        if kind == "inv":
            return ("inv", spec, operand())
        if kind == "nf":
            return ("nf", spec, word())
        letters = word().split()
        i = rng.randrange(len(letters) + 1)
        if rng.random() < 0.5:
            # Inserting a cancelling pair keeps the element.
            s = rng.choice(labels)
            pair = [s, s + "^-1"] if rng.random() < 0.5 else [s + "^-1", s]
            other, equal = letters[:i] + pair + letters[i:], True
        else:
            # a s b = a t b only if s = t, so changing one letter's
            # generator changes the element.
            i = min(i, len(letters) - 1)
            base, sep, exp = letters[i].partition("^")
            new = rng.choice([lab for lab in labels if lab != base])
            other = letters[:i] + [new + sep + exp] + letters[i + 1:]
            equal = False
        return ("eq", spec, " ".join(letters), " ".join(other), equal)

    def _nf(self, spec: str, text: str):
        return gd.normal_form(gd.parse_word(self.group[spec], text))

    def _held(self, spec: str, text: str):
        got = self.held.get((spec, text))
        if got is None:
            got = self.held[spec, text] = self._nf(spec, text)
        return got

    def prepare(self, op: tuple):
        kind, spec = op[0], op[1]
        group = self.group[spec]
        if kind == "nf":
            return gd.parse_word(group, op[2])
        if kind == "mul":
            return self._held(spec, op[2]), self._held(spec, op[3])
        if kind == "inv":
            return self._held(spec, op[2])
        return gd.parse_word(group, op[2]), gd.parse_word(group, op[3])

    @staticmethod
    def execute(op: tuple, prep):
        kind = op[0]
        if kind == "nf":
            return gd.normal_form(prep)
        if kind == "mul":
            return gd.multiply(*prep)
        if kind == "inv":
            return gd.invert(prep)
        return gd.are_equal(gd.normal_form(prep[0]), gd.normal_form(prep[1]))

    def check(self, op: tuple, prep, result, seconds: float):
        if isinstance(result, Raised):
            return result.verdict()
        kind, spec = op[0], op[1]
        if kind == "nf":
            if gd.exponent_sum(result) != prep.signed_letter_count():
                return "exponent sum of the normal form differs from the word's"
            self.lengths[result.canonical_length] += 1
            if len(self.held) > 2 * self.pool_size * len(self.groups):
                self.held = {k: v for k, v in self.held.items()
                             if k[1] in self.pool.get(k[0], ())}
            self.held[spec, op[2]] = result
        elif kind == "mul":
            if not gd.are_equal(result, self._nf(spec, op[2] + " " + op[3])):
                return "multiply(nf(u), nf(v)) != nf(uv)"
        elif kind == "inv":
            if not gd.are_equal(gd.invert(result), prep):
                return "invert(invert(g)) != g"
            if gd.exponent_sum(result) != -gd.exponent_sum(prep):
                return "exponent sum of the inverse is not negated"
        elif result is not op[4]:
            return f"word problem answered {result}, expected {op[4]}"
        return None

    def golden_digest(self) -> str:
        rng = random.Random("kernel:golden")
        lines = []
        for spec in self.groups:
            labels = self.group[spec].generators
            for _ in range(self.golden_words):
                nf = self._nf(spec, random_word(rng, labels, *self.word_letters))
                lines.append(f"{spec}: {nf.render()}")
        return sha256_lines(lines)

    def final_checks(self) -> list[str]:
        if self.golden_digest() != self.golden["kernel"]["nf_digest"]:
            return ["digest of rendered normal forms differs from the golden one"]
        return []

    def properties(self) -> dict:
        return {"canonical_length_histogram":
                {str(k): v for k, v in sorted(self.lengths.items())}}


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class Census:
    groups = ("A3", "B3", "I2(5)", "I2(8)")
    member_subset = ("s1", "s2")
    outside = "s3"
    # A round has three parts, each about a third of its op time as measured
    # at the commit that defined the benchmark (2 vCPUs, Python 3.11.7; the
    # run record's `time_share` shows the split of every run):
    # - censuses ("enum"): A3 to sup 3, B3 to sup 2, and I2(m) to sup 2m,
    #   where the count is exact: 4m - 8;
    # - witness searches ("abs") by canonical length as (yes, no) counts,
    #   near each length's share of absorbable positives in B3 (43/46,
    #   380/724, 2719/9642), so that every round costs about the same;
    # - membership queries ("mem"), two members to one non-member.  About 80%
    #   of non-members come back CapExceeded (ROADMAP 5) at ten times the
    #   latency of a conclusive answer, so with equal halves the median op
    #   would sit on the edge between the two; at 2:1 it is a conclusive one.
    enumerations = (("A3", 3), ("B3", 2), ("I2(5)", 10), ("I2(8)", 16))
    abs_per_length = {1: (14, 1), 2: (15, 15), 3: (9, 22)}
    members, non_members = 9000, 4500

    def __init__(self, golden: dict):
        self.golden = golden["census"]
        self.group = {spec: coxeter.parse_group_spec(spec) for spec in self.groups}
        self.b3 = self.group["B3"]
        self.absorbable = frozenset(self.golden["b3_absorbable_positive"])
        self._words: dict[int, tuple[list[str], list[str]]] = {}
        self.abs_answers = collections.Counter()
        self.abs_seconds = collections.Counter()
        self.mem = collections.Counter()

    def labelled_words(self, length: int) -> tuple[list[str], list[str]]:
        """Positive normal forms of B3 of this canonical length, as words,
        split into (absorbable, not absorbable) by the golden census.

        Sorted as text, so the seeded choice does not depend on table indices.
        """
        if length not in self._words:
            tab = self.b3.table()
            labels = self.b3.generators
            split: tuple[list[str], list[str]] = ([], [])
            for tup in gd.iter_positive_factor_tuples(self.b3, length):
                word = " ".join(labels[s] for f in tup for s in tab.word[f])
                yes = gd.GarsideElement(self.b3, 0, tup).render() in self.absorbable
                split[0 if yes else 1].append(word)
            self._words[length] = (sorted(split[0]), sorted(split[1]))
        return self._words[length]

    def rounds(self, seed: int):
        rng = random.Random(f"census:{seed}")
        t_labels = self.member_subset
        while True:
            ops = [("enum", spec, bound) for spec, bound in self.enumerations]
            for length, counts in self.abs_per_length.items():
                for words, n, label in zip(self.labelled_words(length), counts,
                                           ("yes", "no")):
                    ops += [("abs", length, rng.choice(words), label)
                            for _ in range(n)]
            for _ in range(self.members):
                ops.append(("mem", random_word(rng, t_labels, 4, 20), True))
            for _ in range(self.non_members):
                middle = self.outside + rng.choice(("", "^-1"))
                word = " ".join((random_word(rng, t_labels, 2, 10), middle,
                                 random_word(rng, t_labels, 2, 10)))
                ops.append(("mem", word, False))
            rng.shuffle(ops)
            yield ops

    def prepare(self, op: tuple):
        kind = op[0]
        if kind == "enum":
            return self.group[op[1]]
        return gd.normal_form(gd.parse_word(self.b3, op[2] if kind == "abs" else op[1]))

    def execute(self, op: tuple, prep):
        kind = op[0]
        if kind == "abs":
            return ab.is_absorbable(prep)
        if kind == "enum":
            if op[1].startswith("I2"):
                return ab.dihedral_census(prep, op[2])
            return ab.enumerate_absorbable(prep, op[2])
        return pb.standard_membership(prep, self.member_subset)

    def check(self, op: tuple, prep, result, seconds: float):
        kind = op[0]
        if kind == "mem":
            self.mem["queries"] += 1
            self.mem["negative_inf"] += prep.inf < 0
        if isinstance(result, Raised):
            verdict = result.verdict()
            self.mem["inconclusive"] += kind == "mem" and verdict == INCONCLUSIVE
            return verdict
        if kind == "mem":
            if result is not op[2]:
                return f"membership answered {result}, expected {op[2]}"
            return None
        if kind == "enum":
            return self._check_census(op, result)
        status = result.status
        self.abs_answers[status] += 1
        self.abs_seconds[status] += seconds
        if status != op[3]:
            return f"is_absorbable answered {status}, expected {op[3]}"
        if status == "yes":
            x, ell = result.witness, prep.canonical_length
            xy = gd.multiply(x, prep)
            if not (x.inf == 0 and x.sup == ell and xy.inf == 0 and xy.sup == ell):
                return "witness fails the inf/sup equalities"
        return None

    def _check_census(self, op: tuple, result):
        want = self.golden[f"{op[1]}_sup{op[2]}"]
        if op[1].startswith("I2"):
            m = op[2] // 2
            if (result.m, result.count, result.expected) != (m, 4 * m - 8, 4 * m - 8):
                return f"I2({m}) census has {result.count} elements, expected {4 * m - 8}"
            elements = result.elements
        else:
            elements = [e.render() for e in result]
        if len(elements) != want["count"]:
            return f"census has {len(elements)} elements, expected {want['count']}"
        if sha256_lines(elements) != want["digest"]:
            return "digest of the census list differs from the golden one"
        return None

    def final_checks(self) -> list[str]:
        return []

    def properties(self) -> dict:
        queries = sum(self.abs_answers.values())
        total_s = sum(self.abs_seconds.values())
        mem_n = self.mem["queries"]
        return {
            "is_absorbable_queries": queries,
            "is_absorbable_no_share": self.abs_answers["no"] / queries if queries else None,
            "is_absorbable_no_time_share":
                self.abs_seconds["no"] / total_s if total_s else None,
            "membership_queries": mem_n,
            "membership_negative_inf_share":
                self.mem["negative_inf"] / mem_n if mem_n else None,
            "membership_inconclusive_share":
                self.mem["inconclusive"] / mem_n if mem_n else None,
        }


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def read_graph(path: Path) -> tuple[dict, str]:
    """An exported graph and the digest of its vertices and edges."""
    graph = json.loads(path.read_bytes())
    data = json.dumps([graph["vertices"], graph["edges"]])
    return graph, hashlib.sha256(data.encode()).hexdigest()


def is_connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    if n:
        seen[0] = True
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return all(seen)


def vertex_box(key: str) -> tuple[int, int]:
    """(inf, canonical length) of a rendered normal form 'D^p | w1 | ...'."""
    parts = key.split(" | ")
    return int(parts[0][2:]), len(parts) - 1


class Graphs:
    groups = ("A3", "A4", "B3")
    delta_sample = 50
    delta_seeds = (1, 2, 3, 4)   # each with its golden delta
    cparab_p0 = ("std:s1,s2", "std:s2,s3", "std:s3,s4")

    def __init__(self, golden: dict, tmp: Path):
        self.golden = golden["graphs"]
        self.tmp = tmp
        self.n_out = 0
        self.sizes: dict[str, list[int]] = {}

    def rounds(self, seed: int):
        # A fixed order: the seed picks only the delta sample's seed and P0.
        # The delta command builds and exports the B3 quotient-Cayley graph
        # with len-bound 3, so one command covers both.  The Simples ball
        # runs three times, spread through the round, next to the median.
        rng = random.Random(f"graphs:{seed}")
        ball = ("ball", "A3", "Simples", 3, 2)
        while True:
            yield [
                ball,
                ("delta-estimate", "B3", 3, rng.choice(self.delta_seeds)),
                ("ball", "A3", "XNP", 2, 1),
                ball,
                ("quotient-cayley", "A3", 3),
                ball,
                ("quotient-cayley", "B3", 2),
                ("cparab", "A4", rng.choice(self.cparab_p0)),
            ]

    def prepare(self, op: tuple):
        """The argv of the command; graphs are exported as JSON into tmp."""
        kind, spec = op[0], op[1]
        argv = [kind, "--group", spec]
        if kind == "quotient-cayley":
            argv += ["--len-bound", str(op[2])]
        elif kind == "delta-estimate":
            argv += ["--len-bound", str(op[2]), "--sample",
                     str(self.delta_sample), "--seed", str(op[3])]
        elif kind == "cparab":
            argv += ["--p0", op[2], "--conj-len", "1", "--hops", "2"]
        else:
            argv += ["--kind", op[2], "--radius", str(op[3]),
                     "--universe", str(op[4])]
        self.n_out += 1
        out = self.tmp / f"graph-{self.n_out}.json"
        return argv + ["--out", str(out)], out

    @staticmethod
    def execute(op: tuple, prep):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(prep[0])
        return code, buf.getvalue()

    def check(self, op: tuple, prep, result, seconds: float):
        if isinstance(result, Raised):
            return result.verdict()
        code, text = result
        if code == cli.EXIT_INCONCLUSIVE:
            return INCONCLUSIVE
        if code != cli.EXIT_PASS:
            return f"exit code {code}: {text.strip()[-200:]}"
        try:
            payload = json.loads(text)
        except ValueError:
            return "stdout is not one JSON object"
        out = prep[1]
        try:
            graph, digest = read_graph(out)
        finally:
            out.unlink(missing_ok=True)
        verts, edges = graph["vertices"], graph["edges"]
        name = "/".join(str(x) for x in op)
        if op[0] == "delta-estimate":
            verdict = self._check_delta(op, payload)
            if verdict is not None:
                return verdict
            name = f"quotient-cayley/{op[1]}/{op[2]}"   # the graph it exports
        self.sizes[name] = [len(verts), len(edges)]
        if [payload["vertices"], payload.get("edges", len(edges))] != [len(verts), len(edges)]:
            return "printed sizes differ from the exported graph"
        if not is_connected(len(verts), edges):
            return "graph is not connected"
        if op[0] == "ball":
            return self._check_ball(op, verts)
        want = self.golden[name]
        if [len(verts), len(edges)] != [want["vertices"], want["edges"]]:
            return f"graph has {len(verts)}/{len(edges)} vertices/edges, " \
                   f"expected {want['vertices']}/{want['edges']}"
        if digest != want["digest"]:
            return "digest of the exported graph JSON differs from the golden one"
        return None

    def _check_delta(self, op: tuple, payload: dict):
        prov = payload["provenance"]
        if (prov["sample"], prov["seed"]) != (self.delta_sample, op[3]):
            return "provenance does not record the sample and seed"
        want = self.golden[f"delta/{op[1]}/{op[2]}/{self.delta_sample}"][str(op[3])]
        if str(payload["delta_estimate"]) != want:
            return f"delta is {payload['delta_estimate']}, expected {want}"
        return None

    def _check_ball(self, op: tuple, verts: list[str]):
        # Only invariants that hold whether or not ball generators must lie
        # in the universe box: the identity is a vertex, every vertex is in
        # the box, and (checked above) the ball is connected.  For Simples
        # every nontrivial simple other than D is one step away.
        universe = op[4]
        if "D^0" not in verts:
            return "ball lacks the identity"
        boxes = [vertex_box(v) for v in verts]
        if any(abs(p) > universe or ell > universe for p, ell in boxes):
            return "ball has a vertex outside the universe box"
        if op[2] == "Simples":
            simples = sum(1 for box in boxes if box == (0, 1))
            want = self.golden["order"][op[1]] - 2
            if simples != want:
                return f"ball has {simples} simple vertices, expected {want}"
        return None

    @staticmethod
    def final_checks() -> list[str]:
        return []

    def properties(self) -> dict:
        return {"graph_sizes": dict(sorted(self.sizes.items()))}


WORKLOADS = {"kernel": Kernel, "census": Census, "graphs": Graphs}


def setup(name: str) -> None:
    """What every user pays first: the table of each group of the workload."""
    for spec in WORKLOADS[name].groups:
        coxeter.parse_group_spec(spec).table()


def make(name: str, golden: dict, tmp: Path):
    if name == "graphs":
        return Graphs(golden, tmp)
    return WORKLOADS[name](golden)
