"""The acceptance suite: every criterion as a callable returning a result.

Each criterion function runs one finite, exact check from the project's
checklist at its stated size and tolerance (all tolerances are zero: the
checks are exact integer or word-problem identities).  The CLI `accept`
subcommand and the test suite both dispatch here.
"""

from __future__ import annotations

import dataclasses
import random
import time

from . import absorbable as ab
from . import braidtop as bt
from . import garside as gd
from . import metrics as mt
from . import parabolic as pb
from .coxeter import bfs_layers, parse_group_spec


@dataclasses.dataclass
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.seconds:.1f}s)"


def _result(number, name, passed, t0, **details) -> AcceptanceResult:
    return AcceptanceResult(number, name, bool(passed), time.perf_counter() - t0, details)


# --- 1 -----------------------------------------------------------------------

def criterion_1() -> AcceptanceResult:
    """Dihedral absorbable census: exactly 4m-8 elements, stable, < 60 s/run."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for m in (3, 4, 5, 6):
        group = parse_group_spec(f"I2({m})")
        t_run = time.perf_counter()
        first = ab.dihedral_census(group, 2 * m)
        second = ab.dihedral_census(group, 2 * m + 4)
        elapsed = time.perf_counter() - t_run
        stable = first.elements == second.elements
        good = (first.count == first.expected == second.count
                and stable and elapsed < 60.0)
        ok &= good
        rows.append({"m": m, "count": first.count, "expected": first.expected,
                     "stable": stable, "seconds": round(elapsed, 2)})
    return _result(1, "dihedral absorbable census 4m-8", ok, t0, rows=rows)


# --- 2 -----------------------------------------------------------------------

OMEGA_IS_DELTA = {
    "A1": True, "A2": False, "A3": False, "A4": False,
    "B2": True, "B3": True, "B4": True,
    "D4": True, "F4": True, "H3": True,
    "I2(5)": False, "I2(6)": True,
}


def criterion_2() -> AcceptanceResult:
    """Minimal central element table: is_delta per family, < 10 s total."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for spec, expected in OMEGA_IS_DELTA.items():
        group = parse_group_spec(spec)
        got = gd.omega_of(group, group.generators).is_delta
        ok &= got == expected
        rows.append({"family": spec, "is_delta": got, "expected": expected})
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    return _result(2, "minimal central element table", ok, t0, rows=rows,
                   seconds_total=round(elapsed, 2))


# --- 3 -----------------------------------------------------------------------

def criterion_3() -> AcceptanceResult:
    """Standard-curve count n(n+1)/2 - 1 for n = 2..6."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in range(2, 7):
        got = len(bt.standard_curves(n))
        want = n * (n + 1) // 2 - 1
        ok &= got == want
        rows.append({"n": n, "count": got, "expected": want})
    return _result(3, "standard curve counts", ok, t0, rows=rows)


# --- 4 -----------------------------------------------------------------------

def _random_word_element(group, rng, max_letters=8):
    letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                    for _ in range(rng.randint(0, max_letters)))
    return gd.normal_form(gd.LetterWord(group, letters))


def criterion_4() -> AcceptanceResult:
    """Normalizer = generator-wise conjugation membership, zero discrepancies."""
    t0 = time.perf_counter()
    rng = random.Random(20240)
    discrepancies = 0
    checked = 0
    for spec in ("A3", "B3"):
        group = parse_group_spec(spec)
        subsets = pb.proper_irreducible_subsets(group)
        gens = {lab: gd.generator_element(group, lab) for lab in group.generators}
        for _ in range(500):
            g = _random_word_element(group, rng)
            ginv = gd.invert(g)
            for labels in subsets:
                lhs = pb.normalizer_membership(g, labels)
                rhs = all(pb.standard_membership(
                    gd.multiply(gd.multiply(ginv, gens[lab]), g), labels)
                    for lab in labels)
                checked += 1
                if lhs != rhs:
                    discrepancies += 1
    elapsed = time.perf_counter() - t0
    ok = discrepancies == 0 and elapsed < 300.0
    return _result(4, "Paris normalizer equivalence", ok, t0,
                   checked=checked, discrepancies=discrepancies,
                   seconds_total=round(elapsed, 2))


# --- 5 -----------------------------------------------------------------------

def criterion_5() -> AcceptanceResult:
    """Fat-triangle distance law, exact in Cay(A)/<D> by the coset-distance
    formula."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for m in (3, 4, 5):
        group = parse_group_spec(f"I2({m})")
        for x, y in ab.absorption_pairs_from_census(group, 2 * m):
            tri = ab.build_fat_triangle(x, y)
            rep = mt.fat_triangle_distances(tri)
            ok &= rep.all_pass
            rows.append({"group": f"I2({m})", "x": x.render(), "y": y.render(),
                         "L": tri.length, "pass": rep.all_pass})
    a3 = parse_group_spec("A3")
    s1 = gd.generator_element(a3, "s1")
    s3 = gd.generator_element(a3, "s3")
    for ell in range(1, 5):
        tri = ab.build_fat_triangle(gd.power(s1, ell), gd.power(s3, ell))
        rep = mt.fat_triangle_distances(tri)
        ok &= rep.all_pass
        rows.append({"group": "A3", "L": ell, "pass": rep.all_pass})
    return _result(5, "fat-triangle distances max(d1,d2)", ok, t0,
                   triangles=len(rows), rows=rows)


# --- 6 -----------------------------------------------------------------------

def criterion_6() -> AcceptanceResult:
    """Absorption symmetry: both derived pairs verify."""
    t0 = time.perf_counter()
    ok = True
    count = 0
    for m in (3, 4):
        group = parse_group_spec(f"I2({m})")
        for x, y in ab.absorption_pairs_from_census(group, 2 * m):
            ok &= ab.absorption_symmetry(x, y).both_verified
            count += 1
    a3 = parse_group_spec("A3")
    s1 = gd.generator_element(a3, "s1")
    s3 = gd.generator_element(a3, "s3")
    for ell in range(1, 6):
        ok &= ab.absorption_symmetry(gd.power(s1, ell), gd.power(s3, ell)).both_verified
        count += 1
    return _result(6, "absorption symmetry of derived pairs", ok, t0, pairs=count)


# --- 7 -----------------------------------------------------------------------

def criterion_7() -> AcceptanceResult:
    """Tubular arc-stabilizer identities, exact word equality."""
    t0 = time.perf_counter()
    cases = []
    ok = True
    for n in (3, 4, 5):
        for i in range(1, n + 1):
            for k in (1, 2):
                good = bt.arc_stabilizer_identity(n, i, k)
                ok &= good
                cases.append({"n": n, "i": i, "k": k, "half": False, "ok": good})
        if (n + 1) % 2 == 0:
            i = (n + 1) // 2
            for k in (1, 2):
                good = bt.arc_stabilizer_identity(n, i, k, half=True)
                ok &= good
                cases.append({"n": n, "i": i, "k": k, "half": True, "ok": good})
    return _result(7, "tubular arc-stabilizer identities", ok, t0,
                   cases=len(cases), failed=[c for c in cases if not c["ok"]])


# --- 8 -----------------------------------------------------------------------

def criterion_8() -> AcceptanceResult:
    """Dihedral D^q factorization into at most 4 generating-set members."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for m in (3, 4, 5, 6):
        group = parse_group_spec(f"I2({m})")
        a = gd.generator_element(group, "a")
        b = gd.generator_element(group, "b")
        tail = gd.multiply(gd.multiply(gd.invert(b), gd.invert(a)), gd.delta(group))
        for q in range(-6, 7):
            target = gd.delta_pow(group, q)
            head = gd.delta_pow(group, 2 * (q // 2))
            if q % 2:
                prod = gd.multiply(gd.multiply(gd.multiply(head, a), b), tail)
                identity_ok = gd.are_equal(prod, target)
                absorb_ok = all(ab.is_absorbable(f) for f in (a, b, tail))
                steps = (0 if head.is_identity else 1) + 3
            else:
                identity_ok = gd.are_equal(head, target)
                absorb_ok = True
                steps = 0 if q == 0 else 1
            good = identity_ok and absorb_ok and steps <= 4
            ok &= good
            rows.append({"m": m, "q": q, "identity": identity_ok,
                         "absorbable": absorb_ok, "steps": steps})
    return _result(8, "dihedral Delta^q within 4 generating steps", ok, t0,
                   cases=len(rows), failed=[r for r in rows if not (
                       r["identity"] and r["absorbable"] and r["steps"] <= 4)])


# --- 9 -----------------------------------------------------------------------

def _in_span(g, base, central, max_central=12) -> bool:
    """Whether g = base^p central^j for some integers p, j."""
    e_g = gd.exponent_sum(g)
    e_b = gd.exponent_sum(base)
    e_c = gd.exponent_sum(central)
    for j in range(-max_central, max_central + 1):
        rem = e_g - j * e_c
        if rem % e_b:
            continue
        p = rem // e_b
        cand = gd.multiply(gd.power(base, p), gd.power(central, j))
        if gd.are_equal(cand, g):
            return True
    return False


def criterion_9() -> AcceptanceResult:
    """Dihedral centralizer of a inside the radius-8 letter ball."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for m in (3, 4, 5, 6):
        group = parse_group_spec(f"I2({m})")
        a = gd.generator_element(group, "a")
        central = gd.delta(group) if m % 2 == 0 else gd.delta_pow(group, 2)
        steps = []
        for lab in group.generators:
            e = gd.generator_element(group, lab)
            steps.append(e)
            steps.append(gd.invert(e))
        ball: dict = {}
        for radius, _ in enumerate(bfs_layers(
                ball, gd.identity_element(group),
                lambda g: [gd.multiply(g, s) for s in steps])):
            if radius == 8:
                break
        exceptions = 0
        commuting = 0
        for g in ball:
            if gd.commute(g, a):
                commuting += 1
                if not _in_span(g, a, central):
                    exceptions += 1
        ok &= exceptions == 0
        rows.append({"m": m, "ball": len(ball), "commuting": commuting,
                     "exceptions": exceptions})
    return _result(9, "dihedral centralizer ball check", ok, t0, rows=rows)


# --- 10 ----------------------------------------------------------------------

def criterion_10() -> AcceptanceResult:
    """Distance-1 facts for X_P powers and doubled-braid normalizers."""
    t0 = time.perf_counter()
    i5 = parse_group_spec("I2(5)")
    oracle = mt.genset_oracle(i5, mt.KIND_XP)
    a = gd.generator_element(i5, "a")
    ok = True
    for n in range(1, 7):
        res = mt.word_length_bound(gd.power(a, n), oracle, universe_len=8)
        ok &= (res.kind, res.value) == ("exact", 1)
    rng = random.Random(77)
    a2 = parse_group_spec("A2")
    doubles_ok = 0
    for _ in range(20):
        word = _random_pure_at_one(a2, rng)
        img = bt.double_first_strand(word, 3)
        good = all(pb.normalizer_membership(gd.power(img, k), ("s1",))
                   for k in (1, 2, 3))
        doubles_ok += good
        ok &= good
    return _result(10, "distance-1 facts (X_P powers, doubled braids)", ok, t0,
                   xp_exact_ones=6, doubled_pure_braids=20,
                   doubled_ok=doubles_ok)


def _random_pure_at_one(group, rng, max_letters: int = 8) -> gd.LetterWord:
    while True:
        letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                        for _ in range(rng.randint(0, max_letters)))
        pos = 1
        for gen_idx, _e in letters:
            t = gen_idx + 1
            if t == pos:
                pos += 1
            elif t == pos - 1:
                pos -= 1
        if pos == 1:
            return gd.LetterWord(group, letters)


# --- 11 ----------------------------------------------------------------------

def criterion_11() -> AcceptanceResult:
    """Three-parabolic factorization of Delta for A3 and A4."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for spec in ("A3", "A4"):
        group = parse_group_spec(spec)
        fact = bt.delta_three_parabolic_factorization(group)
        prod = gd.identity_element(group)
        for el, _labels in fact.parts:
            prod = gd.multiply(prod, el)
        product_ok = gd.are_equal(prod, gd.delta(group))
        witness_ok = all(pb.standard_membership(el, labels)
                         for el, labels in fact.parts)
        proper_ok = all(len(labels) < group.rank and
                        group.is_connected_subset(group.gen_indices(labels))
                        for _el, labels in fact.parts)
        good = product_ok and witness_ok and proper_ok
        ok &= good
        rows.append({"group": spec,
                     "parts": [(el.render(), list(labels)) for el, labels in fact.parts],
                     "product_is_delta": product_ok, "witnesses": witness_ok})
    return _result(11, "Delta as three parabolic factors", ok, t0, rows=rows)


# --- 12 ----------------------------------------------------------------------

def _apply_random_rewrites(group, letters, rng, rounds=4):
    """Relation-preserving rewrites: free insertion/cancellation and planted
    braid relators; the represented element never changes."""
    matrix = group.matrix
    word = list(letters)
    for _ in range(rounds):
        op = rng.randrange(3)
        if op == 0:
            s = rng.randrange(group.rank)
            pos = rng.randint(0, len(word))
            e = rng.choice((-1, 1))
            word[pos:pos] = [(s, e), (s, -e)]
        elif op == 1:
            idxs = [i for i in range(len(word) - 1)
                    if word[i][0] == word[i + 1][0]
                    and word[i][1] == -word[i + 1][1]]
            if idxs:
                i = rng.choice(idxs)
                del word[i:i + 2]
        else:
            s = rng.randrange(group.rank)
            t = rng.randrange(group.rank)
            if s == t:
                continue
            m = matrix[s][t]
            lhs = [(s if i % 2 == 0 else t, 1) for i in range(m)]
            rhs = [(t if i % 2 == 0 else s, 1) for i in range(m)]
            pos = rng.randint(0, len(word))
            word[pos:pos] = lhs + [(x, -e) for x, e in reversed(rhs)]
    return tuple(word)


def criterion_12() -> AcceptanceResult:
    """Normal-form rewrite fuzz and the cocompact-lemma Lipschitz check."""
    t0 = time.perf_counter()
    fuzz_rounds, seed = 10_000, 4096
    rng = random.Random(seed)
    changes = 0
    for spec in ("A2", "A3", "B3", "I2(5)"):
        group = parse_group_spec(spec)
        for _ in range(fuzz_rounds):
            letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                            for _ in range(rng.randint(0, 10)))
            nf1 = gd.normal_form(gd.LetterWord(group, letters))
            rewritten = _apply_random_rewrites(group, letters, rng)
            nf2 = gd.normal_form(gd.LetterWord(group, rewritten))
            if not gd.are_equal(nf1, nf2):
                changes += 1
    a3 = parse_group_spec("A3")
    base = pb.standard_parabolic(a3, ("s1",))
    stds = [pb.standard_parabolic(a3, t) for t in pb.proper_irreducible_subsets(a3)]
    graph = mt.build_cparab_neighborhood(stds[0], 1, 3)
    qi = mt.qi_constants(graph, [p.key() for p in stds])
    lip = mt.lipschitz_path_check(a3, base, samples=1_000, seed=seed)
    ok = changes == 0 and qi.m1 == 2 and qi.m1_exact and lip.all_pass
    return _result(12, "normal-form fuzz and Lipschitz verification", ok, t0,
                   fuzz_rounds=4 * fuzz_rounds, nf_changes=changes,
                   m1=qi.m1, m1_exact=qi.m1_exact,
                   lipschitz_samples=lip.samples, lipschitz_failures=lip.failures)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
}
