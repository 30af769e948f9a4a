"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 (witness coverage for every admissible degree) demands a
verified witness wherever a degree-d map with symmetries of orders p and 2
can exist.  For d = p*r with r odd the even-support construction
degenerates: for p = 3 the witness is a tetrahedral (A4) normal form, and
for p >= 5 no degree-d map carries both symmetry orders at all.  Those
pairs must be reported 'provably_empty', and the test re-derives the
emptiness itself by exhausting the finite group types containing orders p
and 2 and by the automorphism search inside the rotation normaliser.
"""

import hashlib
import random
import time
from fractions import Fraction

from ratsym.cli import admissible_table, dims_table
from ratsym.fields import QQ, CyclotomicField
from ratsym.jsonio import (canon_dumps, connectivity_to_json, path_cert_to_json,
                           witness_to_json)
from ratsym.mobius import (GroupSpec, group_closure, inversion, mobius_order,
                           rotation, standard_generators)
from ratsym.moduli import (ConjugationLeg, PathLeg, _certify_segment, build_path,
                           connectivity_certificate, dim_cyclic, dim_dihedral,
                           fujimura_cubic, milnor_coordinates,
                           validate_connectivity_certificate,
                           validate_path_certificate)
from ratsym.poly import Poly
from ratsym.ratmap import DegenerateMap, is_automorphism, make_map
from ratsym.symmetry import (CyclicFamily, WitnessUnavailable,
                             aut_in_normalizer, build_cyclic, build_dihedral,
                             classify_lemma_case, cyclic_admissible,
                             dihedral_admissible, lemma_witness,
                             platonic_admissible, random_cyclic_family,
                             simple_cyclic_family, simple_dihedral_family)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_cusp_reproduction():
    t0 = time.time()
    phi = make_map(Poly(QQ, [1]), Poly(QQ, [0, 0, 1]))
    pt = milnor_coordinates(phi)
    value = fujimura_cubic(pt)
    elapsed = time.time() - t0
    ok = pt.sigma1 == -6 and pt.sigma2 == 12 and value.is_zero() and elapsed < 1.0
    _report("criterion 1 (cusp reproduction)", ok,
            f"sigma=({pt.sigma1}, {pt.sigma2}), cubic={value!r}, {elapsed:.2f}s")


def test_criterion_02_cubic_membership():
    t0 = time.time()
    rng = random.Random(2024)
    on_curve = 0
    for k in range(50):
        if k % 2 == 0:
            fam = random_cyclic_family(rng, 2, 1, "B")
        else:
            fam = random_cyclic_family(rng, 3, 1, "C")
        pt = milnor_coordinates(build_cyclic(fam))
        if fujimura_cubic(pt).is_zero():
            on_curve += 1
    generic_nonzero = 0
    produced = 0
    while produced < 20:
        coeffs_n = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        coeffs_d = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        try:
            phi = make_map(Poly(QQ, coeffs_n), Poly(QQ, coeffs_d))
        except (DegenerateMap, ZeroDivisionError):
            continue
        if phi.degree != 2:
            continue
        produced += 1
        if not fujimura_cubic(milnor_coordinates(phi)).is_zero():
            generic_nonzero += 1
    elapsed = time.time() - t0
    ok = on_curve == 50 and generic_nonzero >= 18 and elapsed < 30
    _report("criterion 2 (cubic membership)", ok,
            f"symmetric on-curve {on_curve}/50, generic off-curve "
            f"{generic_nonzero}/20, {elapsed:.1f}s")


def test_criterion_03_degree_law():
    t0 = time.time()
    rng = random.Random(1234)
    failures = 0
    total = 0
    for n in range(2, 8):
        for r in range(1, 5):
            for case, expected in (("A", n * r + 1), ("B", n * r), ("C", n * r - 1)):
                for _ in range(200):
                    fam = random_cyclic_family(rng, n, r, case)
                    if build_cyclic(fam).degree != expected:
                        failures += 1
                    total += 1
    elapsed = time.time() - t0
    ok = failures == 0 and total == 14400 and elapsed < 60
    _report("criterion 3 (degree law)", ok,
            f"{total} samples, {failures} failures, {elapsed:.1f}s")


def test_criterion_04_platonic_groups():
    t0 = time.time()
    sizes = {}
    for kind in ("A4", "S4", "A5"):
        gens = standard_generators(GroupSpec(kind))
        sizes[kind] = len(group_closure(gens))
    T3, B = standard_generators(GroupSpec("A4"))
    T4, C = standard_generators(GroupSpec("S4"))
    T5, D = standard_generators(GroupSpec("A5"))
    relations = (
        mobius_order(T3) == 3 and mobius_order(B) == 2
        and mobius_order(T3.compose(B)) == 3
        and mobius_order(T4) == 4 and mobius_order(C) == 2
        and mobius_order(T4.compose(C)) == 3
        and mobius_order(T5) == 5 and mobius_order(D) == 2
        and mobius_order(T5.compose(D)) == 3)
    # recorded resolution: pairing the order-3 rotation with the plain
    # inversion gives order 2, so only the displayed involution satisfies
    # the order-3 pairing relation
    plain = mobius_order(T3.compose(inversion(CyclotomicField(12)))) == 2
    elapsed = time.time() - t0
    ok = sizes == {"A4": 12, "S4": 24, "A5": 60} and relations and plain \
        and elapsed < 60
    _report("criterion 4 (platonic groups)", ok,
            f"closure sizes {sizes}, relations verified, rotation-with-plain-"
            f"inversion has order 2 (recorded), {elapsed:.1f}s")


def test_criterion_05_admissibility_tables():
    t0 = time.time()
    problems = []
    for d in range(2, 31):
        for n in range(2, d + 2):
            cyc = dict(cyclic_admissible(d, n))
            expected_cyc = set()
            if d % n == 1:
                expected_cyc.add("A")
            if d % n == 0:
                expected_cyc.add("B")
            if d % n == n - 1:
                expected_cyc.add("C")
            if set(cyc) != expected_cyc:
                problems.append(("cyclic", d, n))
            dih = dict(dihedral_admissible(d, n))
            expected_dih = set()
            if d % n == 1:
                expected_dih.add("I")
            if d % n == n - 1:
                expected_dih.add("II")
            if set(dih) != expected_dih:
                problems.append(("dihedral", d, n))
            # constructive cross-check: a verified witness per entry
            for case in cyc:
                phi = build_cyclic(simple_cyclic_family(d, n, case))
                if phi.degree != d or not is_automorphism(phi, rotation(n)):
                    problems.append(("cyclic-witness", d, n, case))
            for case in dih:
                phi = build_dihedral(simple_dihedral_family(d, n, case))
                if phi.degree != d or not is_automorphism(phi, rotation(n)) \
                        or not is_automorphism(phi, inversion(QQ)):
                    problems.append(("dihedral-witness", d, n, case))
        if platonic_admissible(d, GroupSpec("A4")) != (d % 2 == 1):
            problems.append(("A4", d))
        if platonic_admissible(d, GroupSpec("S4")) != (d % 6 in (1, 5)):
            problems.append(("S4", d))
        if platonic_admissible(d, GroupSpec("A5")) != (d % 30 in (1, 11, 19, 29)):
            problems.append(("A5", d))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 300
    _report("criterion 5 (admissibility tables, d <= 30)", ok,
            f"problems: {problems[:5]}, {elapsed:.1f}s" if problems
            else f"all entries witnessed, {elapsed:.1f}s")


def _some_group_with_orders_admissible(p: int, d: int, platonic_orders) -> bool:
    """Whether a finite Moebius group type containing elements of orders p
    and 2 is admissible in degree d.  Cyclic and dihedral types of order
    parameter m > d + 1 are never admissible (d mod m is then d itself), so
    m <= d + 1 exhausts them."""
    return (any(cyclic_admissible(d, m)                 # C_m: orders p, 2
                for m in range(2 * p, d + 2, 2 * p))
            or any(dihedral_admissible(d, m)            # D_m: flips too
                   for m in range(p, d + 2, p))
            or any({p, 2} <= orders and platonic_admissible(d, GroupSpec(kind))
                   for kind, orders in platonic_orders.items()))


def test_criterion_06_lemma_coverage():
    t0 = time.time()
    platonic_orders = {
        kind: {mobius_order(g)
               for g in group_closure(standard_generators(GroupSpec(kind)))}
        for kind in ("A4", "S4", "A5")}
    verified = []
    empty = []
    failed = []
    for p in (3, 5, 7, 11, 13):
        for d in range(2, 41):
            if not cyclic_admissible(d, p):
                continue
            can_exist = _some_group_with_orders_admissible(p, d, platonic_orders)
            try:
                w = lemma_witness(p, d)
            except WitnessUnavailable as exc:
                if can_exist:
                    failed.append((p, d, f"no witness ({exc.analysis})"))
                elif exc.analysis != "provably_empty" \
                        or classify_lemma_case(p, d) != "provably_empty":
                    failed.append((p, d, f"misclassified ({exc.analysis})"))
                else:
                    # every finite group with orders p >= 5 and 2 has an
                    # involution normalising its order-p rotation, so the
                    # normaliser search on the family representative must
                    # come up empty as well
                    phi = build_cyclic(simple_cyclic_family(d, p, "B"))
                    if any(mobius_order(A) == 2 for A in aut_in_normalizer(phi)):
                        failed.append((p, d, "involution in normaliser"))
                    else:
                        empty.append((p, d))
                continue
            orders = sorted(k for _, k in w.autos)
            if not can_exist:
                failed.append((p, d, "witness where no group type is admissible"))
            elif w.map.degree != d or orders != [2, p] or not w.verify():
                failed.append((p, d, "verification"))
            else:
                verified.append((p, d))
    elapsed = time.time() - t0
    for (p, d) in empty:
        print(f"  unattained: (p={p}, d={d}) -> provably_empty")
    for (p, d, why) in failed:
        print(f"  failed: (p={p}, d={d}) -> {why}")
    ok = not failed and elapsed < 300
    _report("criterion 6 (witness coverage, p <= 13, d <= 40)", ok,
            f"{len(verified)} verified, {len(empty)} provably empty, "
            f"{len(failed)} failed, {elapsed:.1f}s")


def test_criterion_07_dimension_identities():
    problems = []
    for d in range(2, 31):
        for n in range(2, d + 2):
            for case, r in cyclic_admissible(d, n):
                dim = dim_cyclic(d, n, case).dimension
                params = {"A": 2 * (r + 1), "B": 2 * r + 1, "C": 2 * r}[case]
                if dim != params - 2:
                    problems.append((d, n, case))
            for case, r in dihedral_admissible(d, n):
                dim = dim_dihedral(d, n, case).dimension
                params = {"I": r + 1, "II": r}[case]
                if dim != params - 1:
                    problems.append((d, n, "dihedral", case))
    _report("criterion 7 (dimension identities, d <= 30)", not problems,
            f"problems: {problems[:5]}" if problems else "all identities hold")


def test_criterion_08_path_certification():
    t0 = time.time()
    rng = random.Random(88)
    combos = 0
    for d in (3, 4, 5, 6):
        for n in range(2, d + 2):
            for case, r in cyclic_admissible(d, n):
                combos += 1
                for k in range(10):
                    f0 = random_cyclic_family(rng, n, r, case)
                    f1 = random_cyclic_family(rng, n, r, case)
                    cert_s = build_path(f0, f1, "sturm", random.Random(1000 + k))
                    validate_path_certificate(cert_s)
                    cert_i = build_path(f0, f1, "interval", random.Random(1000 + k))
                    validate_path_certificate(cert_i)
    # engineered degenerate segment: rejected directly, rerouted via detour
    f0 = CyclicFamily(2, 1, "A", (QQ(1), QQ(1)), (QQ(1), QQ(2)))
    f1 = CyclicFamily(2, 1, "A", (QQ(-3), QQ(1)), (QQ(-4), QQ(1)))
    rejected = (_certify_segment(f0, f1, "sturm", 128) is None
                and _certify_segment(f0, f1, "interval", 128) is None)
    rerouted = build_path(f0, f1, "sturm", random.Random(1))
    validate_path_certificate(rerouted)
    elapsed = time.time() - t0
    ok = rejected and len(rerouted.segments) == 2 and elapsed < 600
    _report("criterion 8 (path certification)", ok,
            f"{combos} (d, n, case) combos x 10 pairs x 2 strategies validated; "
            f"degenerate segment rejected and rerouted, {elapsed:.1f}s")


def test_criterion_09_connectivity_chains():
    t0 = time.time()
    # in degree 5 the order-3 witness lands in case A of the order-2 locus,
    # so that chain crosses to case C through the D2 member
    cases = [(4, 3, 1, "A", 2, 2, "B"),
             (5, 3, 2, "C", 2, 3, "C"),
             (6, 3, 2, "B", 2, 3, "B"),
             (10, 5, 2, "B", 2, 5, "B")]
    for (d, p0, r0, c0, p1, r1, c1) in cases:
        w0 = random_cyclic_family(random.Random(d), p0, r0, c0)
        w1 = random_cyclic_family(random.Random(d + 100), p1, r1, c1)
        cert = connectivity_certificate(w0, w1, "sturm", random.Random(0))
        assert all(isinstance(leg, (PathLeg, ConjugationLeg)) for leg in cert.legs), \
            f"uncertified leg in degree {d} chain"
        validate_connectivity_certificate(cert)
    elapsed = time.time() - t0
    _report("criterion 9 (connectivity chains)", elapsed < 600,
            f"degrees 4, 5, 6, 10 validated, every leg a path or a conjugation, "
            f"{elapsed:.1f}s")


def test_criterion_10_determinism():
    def artifact_bytes() -> str:
        pieces = []
        pieces.append(canon_dumps({"admissible": admissible_table(12)}))
        pieces.append(canon_dumps({"dims": dims_table(12)}))
        w = lemma_witness(3, 4)
        pieces.append(canon_dumps(witness_to_json(w)))
        f0 = random_cyclic_family(random.Random(7), 3, 2, "A")
        f1 = random_cyclic_family(random.Random(8), 3, 2, "A")
        cert = build_path(f0, f1, "sturm", random.Random(11))
        pieces.append(canon_dumps(path_cert_to_json(cert)))
        g0 = random_cyclic_family(random.Random(9), 3, 1, "A")
        g1 = random_cyclic_family(random.Random(10), 2, 2, "B")
        conn = connectivity_certificate(g0, g1, "sturm", random.Random(12))
        pieces.append(canon_dumps(connectivity_to_json(conn)))
        phi = make_map(Poly(QQ, [1]), Poly(QQ, [0, 0, 1]))
        pt = milnor_coordinates(phi)
        pieces.append(canon_dumps({"sigma1": str(pt.sigma1.payload),
                                   "sigma2": str(pt.sigma2.payload)}))
        return "".join(pieces)

    first = artifact_bytes()
    second = artifact_bytes()
    _report("criterion 10 (determinism)", first == second,
            f"{len(first)} bytes, byte-identical across runs")
    # pinned byte for byte: a faster kernel must emit the same artifacts
    digest = hashlib.sha256(first.encode()).hexdigest()
    _report("criterion 10 (pinned bytes)",
            (len(first), digest) == (16649, "39c419ca6382f0aed54b43a38bda3d56"
                                            "9bce58a43445413711b4a640e0922c9f"),
            f"{len(first)} bytes, sha256 {digest}")
