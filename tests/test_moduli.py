import random
from fractions import Fraction

import pytest

from ratsym.fields import QQ, CyclotomicField, QuadraticField, _integral_ring, lift
from ratsym.mobius import MobiusMap, icosahedral_field, inversion, rotation, scaling
from ratsym import poly
from ratsym.poly import Poly, squarefree_norm
from ratsym.ratmap import (DegenerateMap, conjugate, is_automorphism, make_map,
                           maps_equal)
from ratsym.symmetry import (CoefficientConditionViolated, CyclicFamily,
                             build_cyclic, cyclic_admissible,
                             dihedral_admissible, random_cyclic_family)
from ratsym import moduli
from ratsym.moduli import (CertificateInvalid, ConjugationLeg, FamilyMismatch,
                           IntervalProof, NormalizationFailed,
                           NotDegreeTwo, PathCertificate, PathLeg, PathSegment,
                           SturmProof, build_path, connectivity_certificate, dim_cyclic,
                           dim_dihedral, fujimura_cubic, involution_to_standard,
                           milnor_coordinates, validate_connectivity_certificate,
                           validate_path_certificate, _certify_segment,
                           _segment_obstruction)
from ratsym.symmetry import NotAdmissible
from test_poly import poly_eval


def obstruction_poly(fam0, fam1) -> Poly:
    """The cleared obstruction (K, D, g) of _segment_obstruction as the
    polynomial g / D over K."""
    K, den, g = _segment_obstruction(fam0, fam1)
    ring = _integral_ring(K)
    return Poly(K, [ring.to_field(c, den) for c in g])


def cleared(G: Poly) -> tuple:
    """A polynomial G over K as a cleared obstruction (K, D, g), G = g / D."""
    return (G.field, *_integral_ring(G.field).clear(G.coeffs))


def test_sturm_proof_takes_the_square_free_part_once(monkeypatch):
    # over Q(i) a G with rational coefficients has norm G^2: one square-free
    # step makes it square-free, and the count takes it as it is
    K = CyclotomicField(4)
    G = Poly(K, [K(2), K(0), K(1)])
    calls = []
    squarefree_z = poly._squarefree_z
    monkeypatch.setattr(poly, "_squarefree_z",
                        lambda f: calls.append(f) or squarefree_z(f))
    proof = moduli._sturm_segment_proof(cleared(G))
    assert proof == SturmProof(norm_poly=Poly(QQ, [2, 0, 1]))
    assert len(calls) == 1
    assert squarefree_norm(G) == proof.norm_poly


def test_dimension_examples():
    assert dim_cyclic(3, 2, "A").dimension == 2
    assert dim_cyclic(6, 3).dimension == 3
    assert dim_cyclic(5, 3).dimension == 2
    assert dim_dihedral(7, 3).dimension == 2
    assert dim_dihedral(5, 3).dimension == 1
    assert dim_dihedral(2, 3).dimension == 0
    with pytest.raises(NotAdmissible):
        dim_cyclic(7, 5)
    with pytest.raises(ValueError):
        dim_cyclic(5, 2)        # ambiguous without a case


def test_dimension_identity_freeparams():
    # free parameters of the family minus projective scale and the
    # one-parameter scaling orbit
    for d in range(2, 31):
        for n in range(2, d + 2):
            for case, r in cyclic_admissible(d, n):
                dim = dim_cyclic(d, n, case).dimension
                params = {"A": 2 * (r + 1), "B": 2 * r + 1, "C": 2 * r}[case]
                assert dim == params - 2, (d, n, case)
            for case, r in dihedral_admissible(d, n):
                dim = dim_dihedral(d, n, case).dimension
                params = {"I": r + 1, "II": r}[case]
                assert dim == params - 1, (d, n, case)


def test_build_path_simple_and_strategies_agree():
    fam_a = CyclicFamily(2, 1, "A", (QQ(2), QQ(1)), (QQ(1), QQ(0)))
    fam_b = CyclicFamily(2, 1, "A", (QQ(3), QQ(1)), (QQ(1), QQ(0)))
    cert_s = build_path(fam_a, fam_b, "sturm")
    assert len(cert_s.segments) == 1
    assert cert_s.segments[0].proof.kind == "sturm"
    validate_path_certificate(cert_s)
    cert_i = build_path(fam_a, fam_b, "interval")
    assert cert_i.segments[0].proof.kind == "interval"
    validate_path_certificate(cert_i)


def test_build_path_empty():
    fam = CyclicFamily(2, 1, "A", (QQ(2), QQ(1)), (QQ(1), QQ(0)))
    cert = build_path(fam, fam)
    assert cert.segments == ()
    validate_path_certificate(cert)


def test_build_path_family_mismatch():
    fam_a = CyclicFamily(2, 1, "A", (QQ(2), QQ(1)), (QQ(1), QQ(0)))
    fam_c = CyclicFamily(2, 2, "C", (QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(1)))
    with pytest.raises(FamilyMismatch):
        build_path(fam_a, fam_c)


def test_engineered_degenerate_segment_rerouted():
    # the straight pencil hits a common root at t = 1/2, and the real case
    # condition b_0 changes sign, so every real segment fails; the detour
    # through Gaussian-integer coefficients succeeds
    f0 = CyclicFamily(2, 1, "A", (QQ(1), QQ(1)), (QQ(1), QQ(2)))
    f1 = CyclicFamily(2, 1, "A", (QQ(-3), QQ(1)), (QQ(-4), QQ(1)))
    G = obstruction_poly(f0, f1)
    assert poly_eval(G, QQ(Fraction(1, 2))).is_zero()
    assert _certify_segment(f0, f1, "sturm", 128) is None
    assert _certify_segment(f0, f1, "interval", 128) is None
    for strategy in ("sturm", "interval"):
        cert = build_path(f0, f1, strategy, rng=random.Random(1))
        assert len(cert.segments) == 2
        assert cert.field == CyclotomicField(4)
        validate_path_certificate(cert)


def _mixed_family(rng, n, r, case, K):
    """A valid family over K whose coefficients x + u*y, with u = zeta_n or
    sqrt(delta), are not real."""
    u = K.sqrt_delta() if isinstance(K, QuadraticField) else K.zeta()
    while True:
        x, y = (random_cyclic_family(rng, n, r, case, field=K) for _ in range(2))
        try:
            return CyclicFamily(n, r, case, *(tuple(p + u * q for p, q in zip(xs, ys))
                                              for xs, ys in ((x.a, y.a), (x.b, y.b))))
        except CoefficientConditionViolated:
            continue


STURM_FIELDS = [CyclotomicField(3), CyclotomicField(5), CyclotomicField(12),
                QuadraticField(QQ, QQ(-3))]


@pytest.mark.parametrize("K", STURM_FIELDS, ids=repr)
def test_sturm_route_covers_every_field(K):
    from ratsym.jsonio import path_cert_from_json, path_cert_to_json
    rng = random.Random(41)
    for n, r, case in ((2, 1, "A"), (3, 1, "B"), (2, 2, "C")):
        f0, f1 = (_mixed_family(rng, n, r, case, K) for _ in range(2))
        cert = build_path(f0, f1, "sturm", rng=random.Random(7))
        assert cert.segments
        assert all(isinstance(seg.proof, SturmProof) for seg in cert.segments)
        back = path_cert_from_json(path_cert_to_json(cert))
        validate_path_certificate(back)
        # one changed coefficient of a stored norm is caught
        seg = back.segments[0]
        norm = seg.proof.norm_poly
        forged = SturmProof(Poly(QQ, (norm[0] + 1,) + norm.coeffs[1:]))
        bad = PathCertificate(back.n, back.r, back.case, back.field,
                              (PathSegment(seg.start_a, seg.start_b, seg.end_a,
                                           seg.end_b, forged),) + back.segments[1:])
        with pytest.raises(CertificateInvalid):
            validate_path_certificate(bad)


def test_sturm_path_with_interval_proofs_still_validates():
    # older versions of the "sturm" strategy wrote interval proofs off Q and
    # Q(i), so their files name the strategy "sturm" and carry interval proofs
    from ratsym.jsonio import canon_dumps, path_cert_from_json, path_cert_to_json
    K = CyclotomicField(3)
    rng = random.Random(43)
    f0, f1 = (_mixed_family(rng, 2, 1, "A", K) for _ in range(2))
    cert = build_path(f0, f1, "interval", rng=random.Random(5), precision=64)
    blob = path_cert_to_json(cert)
    assert {seg["proof"]["type"] for seg in blob["segments"]} == {"interval"}
    old = dict(blob, strategy="sturm")
    back = path_cert_from_json(old)
    assert back == cert
    assert canon_dumps(path_cert_to_json(back)) == canon_dumps(blob)
    validate_path_certificate(back)


# The records that files written before paths and chains stored only what the
# validator checks also carry: a path leg's "prime" (always cert.n), a path's
# "strategy" (read by nothing) and a Sturm proof's root count and endpoint
# values (recomputed by the validator).
_DROPPED_KEYS = ("prime", "strategy", "roots_in_01", "value_at_0", "value_at_1")

# A path over Q certified with "sturm", as such older files were written.
_V1_STURM_PATH = (
    '{"case":"A","certificate_type":"path","field":{"kind":"rational"},"n":2,'
    '"r":1,"segments":[{"end_a":["3","1"],"end_b":["1","5"],"proof":{"norm_poly":'
    '["5/2","7/2","1"],"roots_in_01":0,"type":"sturm","value_at_0":"-5",'
    '"value_at_1":"-14"},"start_a":["2","1"],"start_b":["1","3"]}],'
    '"strategy":"sturm"}')


def test_sturm_proof_stores_only_its_norm():
    import json
    from ratsym.jsonio import canon_dumps, path_cert_from_json, path_cert_to_json
    fam_a = CyclicFamily(2, 1, "A", (QQ(2), QQ(1)), (QQ(1), QQ(3)))
    fam_b = CyclicFamily(2, 1, "A", (QQ(3), QQ(1)), (QQ(1), QQ(5)))
    text = canon_dumps(path_cert_to_json(build_path(fam_a, fam_b, "sturm")))
    assert not any(f'"{key}"' in text for key in _DROPPED_KEYS)
    # the older file is the same document with the dropped records added
    old = json.loads(_V1_STURM_PATH)
    del old["strategy"]
    for key in ("roots_in_01", "value_at_0", "value_at_1"):
        del old["segments"][0]["proof"][key]
    assert canon_dumps(old) == text
    # it still reads and validates, and re-dumps without them
    back = path_cert_from_json(json.loads(_V1_STURM_PATH))
    validate_path_certificate(back)
    assert canon_dumps(path_cert_to_json(back)) == text


# A path over Q certified with "interval" at precision 32, as files were
# written before interval proofs dropped their enclosures: each tile carries
# the "box" that the validator then compared with its own recomputation.
_V1_INTERVAL_PATH = (
    '{"case":"A","certificate_type":"path","field":{"kind":"rational"},"n":2,'
    '"r":1,"segments":[{"end_a":["-4","-3"],"end_b":["-9","8"],"proof":{"boxes":'
    '[{"box":{"im_hi":"0","im_lo":"0","re_hi":"81437/256","re_lo":"6837/256"},'
    '"t_hi":"1/4","t_lo":"0"},{"box":{"im_hi":"0","im_lo":"0","re_hi":'
    '"172191/256","re_lo":"63055/256"},"t_hi":"1/2","t_lo":"1/4"},{"box":'
    '{"im_hi":"0","im_lo":"0","re_hi":"56311/32","re_lo":"13927/32"},"t_hi":"1",'
    '"t_lo":"1/2"}],"precision":32,"type":"interval"},"start_a":["-1","-5"],'
    '"start_b":["-2","-2"]}],"strategy":"interval"}')


def _tiled_path():
    """The path of ``_V1_INTERVAL_PATH``: one segment whose enclosure on
    [0, 1] contains zero, so its proof is subdivided into three tiles."""
    f0 = CyclicFamily(2, 1, "A", (QQ(-1), QQ(-5)), (QQ(-2), QQ(-2)))
    f1 = CyclicFamily(2, 1, "A", (QQ(-4), QQ(-3)), (QQ(-9), QQ(8)))
    return build_path(f0, f1, "interval", precision=32)


def _with_tiles(cert, tiles, precision=32):
    seg = cert.segments[0]
    proof = IntervalProof(precision, tuple((Fraction(lo), Fraction(hi))
                                           for lo, hi in tiles))
    return PathCertificate(cert.n, cert.r, cert.case, cert.field,
                           (PathSegment(seg.start_a, seg.start_b, seg.end_a,
                                        seg.end_b, proof),))


def test_interval_proof_gives_up_past_the_tile_cap(monkeypatch):
    # the segment of _tiled_path needs three tiles: under a cap of two the
    # builder gives up on it rather than write a proof the reader refuses
    seg = _tiled_path().segments[0]
    f0 = CyclicFamily(2, 1, "A", seg.start_a, seg.start_b)
    f1 = CyclicFamily(2, 1, "A", seg.end_a, seg.end_b)
    assert len(seg.proof.boxes) == 3 <= moduli.MAX_TILES
    monkeypatch.setattr(moduli, "MAX_TILES", 3)
    assert _certify_segment(f0, f1, "interval", 32).proof == seg.proof
    monkeypatch.setattr(moduli, "MAX_TILES", 2)
    assert _certify_segment(f0, f1, "interval", 32) is None


def test_interval_proof_stores_only_its_tiling():
    import json
    from ratsym.jsonio import canon_dumps, path_cert_from_json, path_cert_to_json
    cert = _tiled_path()
    q = Fraction(1, 4)
    assert cert.segments[0].proof == IntervalProof(32, ((0, q), (q, 2 * q),
                                                        (2 * q, 1)))
    text = canon_dumps(path_cert_to_json(cert))
    assert '"box"' not in text
    assert canon_dumps(path_cert_to_json(path_cert_from_json(json.loads(text)))) == text
    # the older file of the same path reads to the same certificate and
    # still validates, its stored enclosures ignored
    old = path_cert_from_json(json.loads(_V1_INTERVAL_PATH))
    assert old == cert
    validate_path_certificate(old)


def test_integer_enclosures_reproduce_the_stored_boxes():
    # the v1 file stored each tile's enclosure, written by the earlier
    # evaluator on Fraction endpoints; the integer evaluator, at the working
    # scale 2^-(32 + 16), gives the same rectangles tile for tile
    import json
    from ratsym.moduli import _interval_boxes, _interval_eval
    doc = json.loads(_V1_INTERVAL_PATH)
    cert = _tiled_path()
    seg = cert.segments[0]
    G = _segment_obstruction(
        CyclicFamily(2, 1, "A", seg.start_a, seg.start_b),
        CyclicFamily(2, 1, "A", seg.end_a, seg.end_b))
    coeff_boxes, deriv_boxes = _interval_boxes(G, 32)
    records = doc["segments"][0]["proof"]["boxes"]
    assert len(records) == len(seg.proof.boxes) == 3
    for rec, (lo, hi) in zip(records, seg.proof.boxes):
        assert (Fraction(rec["t_lo"]), Fraction(rec["t_hi"])) == (lo, hi)
        stored = tuple(Fraction(rec["box"][k]) * 2 ** 48
                       for k in ("re_lo", "re_hi", "im_lo", "im_hi"))
        assert _interval_eval(coeff_boxes, deriv_boxes, lo, hi) == stored


@pytest.mark.parametrize("K", [QQ, CyclotomicField(4)], ids=["rational", "gaussian"])
def test_interval_eval_encloses_exact_values(K):
    # G(t) at rational t is exact; over Q(i) its real and imaginary parts
    # are the two coordinates of the payload.  Over Q the coefficients are
    # dyadic, so their enclosures are exact and each Horner step may widen
    # the point enclosure by one unit, in the outward direction only.
    from ratsym.moduli import _interval_boxes, _interval_eval
    rng = random.Random(3)
    if K is QQ:
        coeffs = [QQ(Fraction(rng.randint(-10 ** 4, 10 ** 4), 2 ** 10))
                  for _ in range(7)]
    else:
        coeffs = [K.from_coeffs([Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                                 for _ in range(2)]) for _ in range(7)]
    G = Poly(K, coeffs)
    coeff_boxes, deriv_boxes = _interval_boxes(cleared(G), 20)
    scale = 2 ** (20 + 16)

    def parts(t):
        value = poly_eval(G, K(t)).payload
        return (value * scale, 0) if K is QQ else tuple(c * scale for c in value)
    for q in (3, 7, 10):
        for k in range(q):
            lo, hi = Fraction(k, q), Fraction(k + 1, q)
            point = _interval_eval(coeff_boxes, deriv_boxes, lo, lo)
            re, im = parts(lo)
            assert point[0] <= re <= point[1] and point[2] <= im <= point[3]
            if K is QQ:
                assert point[1] - point[0] <= len(coeffs)
            tile = _interval_eval(coeff_boxes, deriv_boxes, lo, hi)
            for t in (lo, (2 * lo + hi) / 3, hi):
                re, im = parts(t)
                assert tile[0] <= re <= tile[1] and tile[2] <= im <= tile[3]


def _tiles(*ends):
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in zip(ends, ends[1:]))


# Straight interval segments over Q(i) and Q(zeta_5) at precision 32, with
# the tilings the Fraction evaluator built for them; the integer evaluator
# must subdivide [0, 1] in exactly the same places.
_PINNED_TILINGS = [
    (4, [[(-5, 9), (3, -3)], [(-6, 6), (5, 6)]],
     [[(-9, 3), (-6, 1)], [(-9, -9), (-2, 9)]],
     _tiles(0, "1/4", "1/2", "5/8", "3/4", 1)),
    (5, [[("-1/2", -2, 0, 2), (-3, -3, 3, 1)], [(-3, -1, 1, -3), (1, "-2/3", -3, -3)]],
     [[(0, 0, -3, -2), (-3, 1, 0, -3)], [(3, 1, -3, -2), (2, 2, 1, -3)]],
     _tiles(0, "1/8", "1/4", "5/16", "3/8", "7/16", "1/2", "5/8", "3/4", "7/8", 1)),
]


@pytest.mark.parametrize("conductor, start, end, tiles", _PINNED_TILINGS,
                         ids=["gaussian", "zeta5"])
def test_interval_tilings_are_rebuilt_unchanged(conductor, start, end, tiles):
    K = CyclotomicField(conductor)

    def family(ab):
        a, b = ([K.from_coeffs([Fraction(c) for c in v]) for v in part]
                for part in ab)
        return CyclicFamily(2, 1, "A", tuple(a), tuple(b))
    cert = build_path(family(start), family(end), "interval", precision=32)
    assert [seg.proof.boxes for seg in cert.segments] == [tiles]
    validate_path_certificate(cert)


@pytest.mark.parametrize("tiles, reason", [
    ([("1/4", "1/2"), ("1/2", 1)], "do not tile"),                 # late start
    ([(0, "1/4"), ("1/2", 1)], "do not tile"),                     # gap
    ([(0, "1/4"), ("1/8", "1/2"), ("1/2", 1)], "do not tile"),     # overlap
    ([(0, "1/4"), ("1/4", "1/2")], "stops early"),
    ([], "stops early"),
    ([(0, "1/4"), ("1/4", "1/4"), ("1/4", "1/2"), ("1/2", 1)], "empty subinterval"),
    ([(0, 1)], "contains zero"),                                   # merged
], ids=["late-start", "gap", "overlap", "early-stop", "no-tiles", "empty-tile",
        "merged"])
def test_validator_rejects_a_tampered_tiling(tiles, reason):
    cert = _tiled_path()
    validate_path_certificate(cert)
    with pytest.raises(CertificateInvalid, match=reason):
        validate_path_certificate(_with_tiles(cert, tiles))


@pytest.mark.parametrize("end", ["1/3", f"1/{2 ** (moduli.MAX_TILE_DEPTH + 1)}",
                                 "-1/2", "3/2"],
                         ids=["not-dyadic", "too-deep", "below-0", "above-1"])
def test_a_stored_tile_end_is_bounded_before_any_embedding(monkeypatch, end):
    # every tile that subdividing [0, 1] gives ends at j/2^e in [0, 1] with
    # e <= MAX_TILE_DEPTH; the reader rejects any other endpoint
    import json
    from ratsym.jsonio import path_cert_from_json, path_cert_to_json

    def refuse(*args):
        raise AssertionError("interval_embed ran")
    doc = path_cert_to_json(_tiled_path())
    deepest = f"1/{2 ** moduli.MAX_TILE_DEPTH}"
    proof = doc["segments"][0]["proof"]
    proof["boxes"] = [{"t_lo": "0", "t_hi": deepest}, {"t_lo": deepest, "t_hi": "1"}]
    assert path_cert_from_json(json.loads(json.dumps(doc))).segments[0].proof.boxes[0] \
        == (0, Fraction(1, 2 ** moduli.MAX_TILE_DEPTH))
    proof["boxes"] = [{"t_lo": "0", "t_hi": end}, {"t_lo": end, "t_hi": "1"}]
    monkeypatch.setattr(moduli, "interval_embed", refuse)
    with pytest.raises(ValueError, match="tile endpoint"):
        validate_path_certificate(path_cert_from_json(json.loads(json.dumps(doc))))


@pytest.mark.parametrize("precision", [0, -1, moduli.MAX_PRECISION + 1, 10 ** 9])
def test_interval_precision_is_bounded_before_any_embedding(monkeypatch, precision):
    def refuse(*args):
        raise AssertionError("interval_embed ran")
    path = _tiled_path()
    f0, f1 = validate_path_certificate(path)
    cert = _with_tiles(path, [(0, "1/4"), ("1/4", "1/2"), ("1/2", 1)], precision)
    monkeypatch.setattr(moduli, "interval_embed", refuse)
    with pytest.raises(ValueError, match="precision"):
        validate_path_certificate(cert)
    with pytest.raises(ValueError, match="precision"):
        build_path(f0, f1, "interval", precision=precision)


def test_path_certificate_samples_stay_valid():
    rng = random.Random(12)
    fam0 = random_cyclic_family(rng, 3, 2, "A")
    fam1 = random_cyclic_family(rng, 3, 2, "A")
    cert = build_path(fam0, fam1, "sturm", rng=rng)
    validate_path_certificate(cert)
    for seg in cert.segments:
        sa, sb = seg.start_a, seg.start_b
        ea, eb = seg.end_a, seg.end_b
        for k in range(21):
            t = Fraction(k, 20)
            field = cert.field
            tt = field(t)
            a = tuple(sa[i] + (ea[i] - sa[i]) * tt for i in range(len(sa)))
            b = tuple(sb[i] + (eb[i] - sb[i]) * tt for i in range(len(sb)))
            fam_t = CyclicFamily(cert.n, cert.r, cert.case, a, b)
            phi_t = build_cyclic(fam_t)
            assert phi_t.degree == fam_t.degree
            assert is_automorphism(phi_t, rotation(cert.n))


def test_path_certificate_tamper_detected():
    from ratsym.moduli import PathCertificate, PathSegment, SturmProof
    # denominators chosen so the pencil resultant genuinely depends on the
    # endpoint coefficients: the stored proof polynomial then acts as a
    # checksum under recomputation
    fam_a = CyclicFamily(2, 1, "A", (QQ(2), QQ(1)), (QQ(1), QQ(3)))
    fam_b = CyclicFamily(2, 1, "A", (QQ(3), QQ(1)), (QQ(1), QQ(5)))
    cert = build_path(fam_a, fam_b, "sturm")
    seg = cert.segments[0]
    assert seg.proof.norm_poly.degree >= 1

    bad_seg = PathSegment(start_a=(QQ(7), QQ(1)), start_b=seg.start_b,
                          end_a=seg.end_a, end_b=seg.end_b, proof=seg.proof)
    bad = PathCertificate(cert.n, cert.r, cert.case, cert.field, (bad_seg,))
    with pytest.raises(CertificateInvalid):
        validate_path_certificate(bad)

    # tampering with the stored proof artifact is caught as well
    forged_proof = SturmProof(norm_poly=seg.proof.norm_poly + Poly(QQ, [1]))
    bad2 = PathCertificate(cert.n, cert.r, cert.case, cert.field,
                           (PathSegment(seg.start_a, seg.start_b, seg.end_a,
                                        seg.end_b, forged_proof),))
    with pytest.raises(CertificateInvalid):
        validate_path_certificate(bad2)

    # breaking the chain between consecutive segments is caught
    two = build_path(CyclicFamily(2, 1, "A", (QQ(1), QQ(1)), (QQ(1), QQ(2))),
                     CyclicFamily(2, 1, "A", (QQ(-3), QQ(1)), (QQ(-4), QQ(1))),
                     "sturm", rng=random.Random(1))
    assert len(two.segments) == 2
    s0, s1 = two.segments
    K = two.field
    broken = PathCertificate(two.n, two.r, two.case, K,
                             (s0, PathSegment((K(9), K(1)), s1.start_b,
                                              s1.end_a, s1.end_b, s1.proof)))
    with pytest.raises(CertificateInvalid):
        validate_path_certificate(broken)


def test_validate_path_certificate_returns_the_end_families():
    f0 = CyclicFamily(2, 1, "A", (QQ(1), QQ(1)), (QQ(1), QQ(2)))
    f1 = CyclicFamily(2, 1, "A", (QQ(-3), QQ(1)), (QQ(-4), QQ(1)))
    cert = build_path(f0, f1, "sturm", rng=random.Random(1))
    assert len(cert.segments) == 2
    start, end = validate_path_certificate(cert)
    g0, g1 = f0.lift(cert.field), f1.lift(cert.field)   # the detour's field
    assert (start.a, start.b, end.a, end.b) == (g0.a, g0.b, g1.a, g1.b)
    assert validate_path_certificate(
        PathCertificate(cert.n, cert.r, cert.case, cert.field, ())) is None


def test_validate_path_certificate_names_what_is_wrong():
    two = build_path(CyclicFamily(2, 1, "A", (QQ(1), QQ(1)), (QQ(1), QQ(2))),
                     CyclicFamily(2, 1, "A", (QQ(-3), QQ(1)), (QQ(-4), QQ(1))),
                     "sturm", rng=random.Random(1))
    s0, s1 = two.segments
    K = two.field
    # a second segment that starts elsewhere, even at an invalid family
    for start_a in ((K(9), K(1)), (K(1), K(0))):
        broken = PathCertificate(two.n, two.r, two.case, K,
                                 (s0, PathSegment(start_a, s1.start_b,
                                                  s1.end_a, s1.end_b, s1.proof)))
        with pytest.raises(CertificateInvalid, match="do not chain"):
            validate_path_certificate(broken)
    # an end family that violates case A (a_1 = 0)
    bad_end = PathCertificate(two.n, two.r, two.case, K,
                              (s0, PathSegment(s1.start_a, s1.start_b,
                                               (K(1), K(0)), s1.end_b, s1.proof)))
    with pytest.raises(CertificateInvalid, match="invalid endpoint family"):
        validate_path_certificate(bad_end)


def test_validating_a_chain_validates_each_endpoint_family_once(monkeypatch):
    import json
    from ratsym import symmetry
    from ratsym.jsonio import (canon_dumps, connectivity_from_json,
                               connectivity_to_json)
    rng = random.Random(4031)
    case, r = cyclic_admissible(4, 3)[0]
    f3 = random_cyclic_family(rng, 3, r, case)
    f2 = random_cyclic_family(rng, 2, 2, "B")
    cert = connectivity_certificate(f2, f3, "sturm", random.Random(7))
    back = connectivity_from_json(json.loads(canon_dumps(connectivity_to_json(cert))))
    paths = [leg.cert for leg in back.legs
             if isinstance(leg, PathLeg) and leg.cert.segments]
    assert paths
    calls = []
    validate = symmetry.CyclicFamily.validate
    monkeypatch.setattr(symmetry.CyclicFamily, "validate",
                        lambda fam: calls.append(fam) or validate(fam))
    validate_connectivity_certificate(back)
    assert len(calls) == sum(len(p.segments) + 1 for p in paths)


def test_involution_to_standard():
    for S in (inversion(QQ), scaling(QQ(-1)),
              MobiusMap(QQ, 1, 1, 0, -1),          # z + 1 reflected: order 2
              MobiusMap(QQ, 3, 4, 2, -3)):
        assert _order2(S)
        U = involution_to_standard(S)
        K = U.field
        assert U.compose(S.lift(K)).compose(U.inverse()) == scaling(K(-1))


@pytest.mark.parametrize("S, field", [
    # 1/z over Q(zeta_3): the discriminant 4 has its root 2 in the field,
    # not in a layer Q(zeta_3)(sqrt 4) with zero divisors
    (inversion(CyclotomicField(3)), CyclotomicField(3)),
    # -4/z over Q: the discriminant -1 is a root of unity, whose roots lie
    # in Q(i) itself
    (MobiusMap(QQ, 0, -1, Fraction(1, 4), 0), CyclotomicField(4)),
    (inversion(QQ), QQ),
], ids=["zeta_3", "i", "QQ"])
def test_involution_to_standard_stays_in_a_cyclotomic_field(S, field):
    U = involution_to_standard(S)
    assert U.field == field
    assert U.compose(S.lift(field)).compose(U.inverse()) == scaling(field(-1))


def test_involution_to_standard_over_a_layer():
    # 1/z over Q(sqrt 2) has the discriminant 4 = 2^2 and the rational fixed
    # points +-1, so it is normalised in the layer itself
    K = QuadraticField(QQ, QQ(2))
    U = involution_to_standard(inversion(K))
    assert U.field == K
    assert U.compose(inversion(K)).compose(U.inverse()) == scaling(K(-1))
    # -4/z has the discriminant -1, whose roots need Q(i) joined to the
    # layer, which is not supported
    with pytest.raises(ValueError, match="nested"):
        involution_to_standard(MobiusMap(K, 0, -1, Fraction(1, 4), 0))


def test_involution_to_standard_raises_when_check_fails(monkeypatch):
    # the final conjugation check is an exception, so python -O keeps it
    monkeypatch.setattr(moduli, "scaling", lambda lam: scaling(lam.field(2)))
    with pytest.raises(NormalizationFailed):
        involution_to_standard(MobiusMap(QQ, 3, 4, 2, -3))


def _order2(S):
    from ratsym.mobius import mobius_order
    return mobius_order(S) == 2


def test_connectivity_chain_d4():
    w0 = random_cyclic_family(random.Random(10), 3, 1, "A")
    w1 = random_cyclic_family(random.Random(11), 2, 2, "B")
    cert = connectivity_certificate(w0, w1, "sturm", random.Random(0))
    names = [type(leg).__name__ for leg in cert.legs]
    assert names == ["PathLeg", "ConjugationLeg", "PathLeg"]
    assert _all_legs_certified(cert)
    validate_connectivity_certificate(cert)


def _all_legs_certified(cert):
    return all(isinstance(leg, (PathLeg, ConjugationLeg)) for leg in cert.legs)


def test_connectivity_needs_a_leg_that_carries_a_map():
    fam = random_cyclic_family(random.Random(13), 2, 3, "B")
    empty = PathLeg(PathCertificate(fam.n, fam.r, fam.case, fam.field, ()))
    for legs in ((), (empty,), (empty, empty)):
        with pytest.raises(CertificateInvalid, match="no leg carries a map"):
            validate_connectivity_certificate(
                moduli.ConnectivityCertificate(fam.degree, legs))
    # equal endpoints give the map under the identity, not an empty path
    same = connectivity_certificate(fam, fam)
    assert [type(leg).__name__ for leg in same.legs] == ["ConjugationLeg"]
    assert same.legs[0].conjugator.is_identity()
    # a path with no segments between legs that carry maps is still accepted
    w0 = random_cyclic_family(random.Random(10), 3, 1, "A")
    w1 = random_cyclic_family(random.Random(11), 2, 2, "B")
    chain = connectivity_certificate(w0, w1, "sturm", random.Random(0))
    gap = PathLeg(PathCertificate(2, 2, "B", QQ, ()))
    padded = chain.legs[:1] + (gap,) + chain.legs[1:] + (gap,)
    validate_connectivity_certificate(moduli.ConnectivityCertificate(chain.degree, padded))


def test_reversed_legs_keep_the_callers_precision():
    # the order-3 side comes second, so its path leg runs from the witness
    # to f0 and is built in that direction; every interval proof, that
    # leg's included, must keep precision 64
    f0 = random_cyclic_family(random.Random(9), 3, 1, "A")
    f1 = random_cyclic_family(random.Random(10), 2, 2, "B")
    cert = connectivity_certificate(f1, f0, "interval", random.Random(12),
                                    precision=64)
    legs = [leg for leg in cert.legs if isinstance(leg, PathLeg)]
    assert legs[-1].cert.n == 3 and legs[-1].cert.segments
    proofs = [seg.proof for leg in legs for seg in leg.cert.segments]
    assert proofs and all(isinstance(p, IntervalProof) for p in proofs)
    assert {p.precision for p in proofs} == {64}
    validate_connectivity_certificate(cert)


def test_far_legs_are_built_forwards_and_certified_once(monkeypatch):
    # the chains workload's shape: from the order-2 end to an order-3
    # family, whose path leg comes last and runs from the witness to it
    rng = random.Random(4031)
    case, r = cyclic_admissible(4, 3)[0]
    f3 = random_cyclic_family(rng, 3, r, case)
    f2 = random_cyclic_family(rng, 2, 2, "B")

    def refuse(*args):
        raise AssertionError("a path leg was reversed")
    certified = []
    certify = moduli._certify_segment

    def spy(f0, f1, strategy, precision):
        seg = certify(f0, f1, strategy, precision)
        if seg is not None:
            certified.append(frozenset({(f0.a, f0.b), (f1.a, f1.b)}))
        return seg
    monkeypatch.setattr(moduli, "_reverse_path_certificate", refuse)
    monkeypatch.setattr(moduli, "_certify_segment", spy)
    cert = connectivity_certificate(f2, f3, "sturm", random.Random(7))
    monkeypatch.undo()
    *_, conj, far = cert.legs
    assert isinstance(conj, ConjugationLeg) and far.cert.n == 3
    _, end = validate_path_certificate(far.cert)
    assert maps_equal(build_cyclic(end), build_cyclic(f3))
    assert far.cert.segments
    for seg in far.cert.segments:
        ends = frozenset({(seg.start_a, seg.start_b), (seg.end_a, seg.end_b)})
        assert certified.count(ends) == 1
    validate_connectivity_certificate(cert)


def test_connectivity_same_family_and_order2_bridge():
    fam = random_cyclic_family(random.Random(13), 2, 3, "B")
    cert = connectivity_certificate(fam, fam)
    assert _all_legs_certified(cert) and len(cert.legs) == 1
    validate_connectivity_certificate(cert)
    # degree 3: case A and case C of the order-2 locus meet at the D2 member
    g0 = random_cyclic_family(random.Random(16), 2, 1, "A")
    g1 = random_cyclic_family(random.Random(17), 2, 2, "C")
    bridge = connectivity_certificate(g0, g1)
    names = [type(leg).__name__ for leg in bridge.legs]
    assert names == ["PathLeg", "ConjugationLeg", "PathLeg"]
    assert [leg.cert.case for leg in bridge.legs[::2]] == ["A", "C"]
    validate_connectivity_certificate(bridge)


def _check_chain(cert, f0, f1):
    """The chain runs from f0 to f1, survives a JSON round trip byte for
    byte, and validates.  Its file holds none of the dropped records, and
    the same file with a "prime" on each path leg and a "strategy" on each
    path, as older files carry, reads to the same bytes and validates."""
    import json
    from ratsym.jsonio import (canon_dumps, connectivity_from_json,
                               connectivity_to_json)
    first, last = cert.legs[0].cert, cert.legs[-1].cert
    start, end = first.segments[0], last.segments[-1]
    assert maps_equal(build_cyclic(CyclicFamily(first.n, first.r, first.case,
                                                start.start_a, start.start_b)),
                      build_cyclic(f0))
    assert maps_equal(build_cyclic(CyclicFamily(last.n, last.r, last.case,
                                                end.end_a, end.end_b)),
                      build_cyclic(f1))
    text = canon_dumps(connectivity_to_json(cert))
    assert not any(f'"{key}"' in text for key in _DROPPED_KEYS)
    old = json.loads(text)
    for rec in old["legs"]:
        if rec["type"] == "path":
            rec["prime"] = 7
            rec["cert"]["strategy"] = "sturm"
    back = connectivity_from_json(old)
    assert canon_dumps(connectivity_to_json(back)) == text
    validate_connectivity_certificate(back)


@pytest.mark.parametrize("d", range(3, 22, 2))
def test_order2_case_a_and_case_c_chains(d):
    rng = random.Random(100 + d)
    fa = random_cyclic_family(rng, 2, (d - 1) // 2, "A")
    fc = random_cyclic_family(rng, 2, (d + 1) // 2, "C")
    for f0, f1 in ((fa, fc), (fc, fa)):
        cert = connectivity_certificate(f0, f1, "sturm", random.Random(d))
        assert [type(leg).__name__ for leg in cert.legs] == \
            ["PathLeg", "ConjugationLeg", "PathLeg"]
        assert [leg.cert.case for leg in cert.legs[::2]] == [f0.case, f1.case]
        _check_chain(cert, f0, f1)


# SHA-256 prefixes of the canonical JSON of the chain from the order-3
# family to the case-A family: its legs over the quadratic layer
# QQ(zeta_12)(sqrt(48 - 48 z + 24 z^3)) hold Sturm proofs that no benchmark
# workload builds
TETRAHEDRAL_CHAIN_PREFIXES = {3: "49c2383a2414da98", 9: "56cd3fecab64496f",
                              15: "5f58b69763487401"}


@pytest.mark.parametrize("d", [3, 9, 15])
def test_tetrahedral_hand_off_chains(d):
    # at d = 3r with r odd the order-3 locus meets order 2 only in
    # tetrahedral maps over Q(zeta_12); chains reach both order-2 families
    import hashlib
    from ratsym.jsonio import canon_dumps, connectivity_to_json
    rng = random.Random(300 + d)
    f3 = random_cyclic_family(rng, 3, d // 3, "B")
    fa = random_cyclic_family(rng, 2, (d - 1) // 2, "A")
    fc = random_cyclic_family(rng, 2, (d + 1) // 2, "C")
    for f0, f1 in ((f3, fa), (fa, f3), (f3, fc), (fc, f3)):
        cert = connectivity_certificate(f0, f1, "sturm", random.Random(d))
        leg3 = cert.legs[0] if f0.n == 3 else cert.legs[-1]
        assert leg3.cert.n == 3 and leg3.cert.field == CyclotomicField(12)
        assert all(isinstance(seg.proof, SturmProof)
                   for leg in cert.legs if isinstance(leg, PathLeg)
                   for seg in leg.cert.segments)
        _check_chain(cert, f0, f1)
        if (f0, f1) == (f3, fa):
            text = canon_dumps(connectivity_to_json(cert))
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest[:16] == TETRAHEDRAL_CHAIN_PREFIXES[d]


def test_milnor_cusp_and_square():
    inv2 = make_map(Poly(QQ, [1]), Poly(QQ, [0, 0, 1]))
    pt = milnor_coordinates(inv2)
    assert pt.sigma1 == -6 and pt.sigma2 == 12
    assert fujimura_cubic(pt).is_zero()
    z2 = make_map(Poly(QQ, [0, 0, 1]), Poly(QQ, [1]))
    pt2 = milnor_coordinates(z2)
    assert pt2.sigma1 == 2 and pt2.sigma2 == 0
    assert fujimura_cubic(pt2).is_zero()
    assert fujimura_cubic((QQ(0), QQ(0))) == -36
    with pytest.raises(NotDegreeTwo):
        milnor_coordinates(make_map(Poly(QQ, [0, 0, 0, 1]), Poly(QQ, [1])))


def test_milnor_fixed_point_relation():
    # sigma3 = sigma1 - 2 for every degree-2 map (rational fixed point
    # theorem used as an internal oracle)
    rng = random.Random(19)
    done = 0
    while done < 25:
        try:
            phi = make_map(Poly(QQ, [Fraction(rng.randint(-6, 6)) for _ in range(3)]),
                           Poly(QQ, [Fraction(rng.randint(-6, 6)) for _ in range(3)]))
        except Exception:
            continue
        if phi.degree != 2:
            continue
        pt = milnor_coordinates(phi)
        assert pt.sigma3 == pt.sigma1 - 2
        done += 1


def test_milnor_conjugation_invariance():
    rng = random.Random(4)
    done = 0
    while done < 20:
        try:
            phi = make_map(Poly(QQ, [Fraction(rng.randint(-5, 5)) for _ in range(3)]),
                           Poly(QQ, [Fraction(rng.randint(-5, 5)) for _ in range(3)]))
            T = MobiusMap(QQ, *[rng.randint(-3, 3) for _ in range(4)])
        except Exception:
            continue
        if phi.degree != 2:
            continue
        p0 = milnor_coordinates(phi)
        p1 = milnor_coordinates(conjugate(phi, T))
        assert (p0.sigma1, p0.sigma2) == (p1.sigma1, p1.sigma2)
        done += 1


def _companion_milnor(phi):
    """Reference multiplier coordinates, with no resultant: the multipliers
    are phi' = U / V, U = P'Q - PQ' and V = Q^2 unreduced, evaluated on the
    companion matrix M of the fixed-point cubic, sigma1 and sigma2 come
    from traces of L = U(M) V(M)^-1, and sigma3 = det L."""
    from ratsym.ratmap import ProjPoint, eval_proj
    field = phi.field
    zero, one = field.zero(), field.one()

    def mul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(3)), zero)
                 for j in range(3)] for i in range(3)]

    def at(p, M):
        acc = [[zero] * 3 for _ in range(3)]
        for c in reversed(p.coeffs):
            acc = mul(acc, M)
            for i in range(3):
                acc[i][i] = acc[i][i] + c
        return acc

    def inverse(A):
        aug = [list(A[i]) + [one if i == j else zero for j in range(3)]
               for i in range(3)]
        for col in range(3):
            piv = next(r for r in range(col, 3) if not aug[r][col].is_zero())
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = aug[col][col].inv()
            aug[col] = [x * inv for x in aug[col]]
            for r in range(3):
                if r != col and not aug[r][col].is_zero():
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return [row[3:] for row in aug]

    if eval_proj(phi, ProjPoint.infinity(field)).is_infinity():
        c = next(c for c in range(8)
                 if eval_proj(phi, ProjPoint.finite(field(-c))) != ProjPoint.finite(field(-c)))
        phi = conjugate(phi, MobiusMap(field, 0, 1, 1, field(c)))
    F = (Poly.x(field) * phi.den - phi.num).monic()
    M = [[zero, zero, -F[0]], [one, zero, -F[1]], [zero, one, -F[2]]]
    P, Q = phi.num, phi.den
    L = mul(at(P.derivative() * Q - P * Q.derivative(), M), inverse(at(Q * Q, M)))
    s1 = L[0][0] + L[1][1] + L[2][2]
    L2 = mul(L, L)
    s2 = (s1 * s1 - (L2[0][0] + L2[1][1] + L2[2][2])) / 2
    s3 = (L[0][0] * (L[1][1] * L[2][2] - L[1][2] * L[2][1])
          - L[0][1] * (L[1][0] * L[2][2] - L[1][2] * L[2][0])
          + L[0][2] * (L[1][0] * L[2][1] - L[1][1] * L[2][0]))
    return s1, s2, s3


@pytest.mark.parametrize("K", [QQ, CyclotomicField(4), CyclotomicField(3),
                               icosahedral_field()], ids=repr)
def test_milnor_matches_the_companion_matrix(K):
    rng = random.Random(53)
    base = K.base if isinstance(K, QuadraticField) else K
    gens = [K.one()] + ([lift(base.zeta(), K)] if isinstance(base, CyclotomicField) else [])
    if isinstance(K, QuadraticField):
        gens.append(K.sqrt_delta())

    def relem():
        return sum((Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * g for g in gens),
                   K.zero())

    done = 0
    while done < 40:
        # every fourth map fixes infinity, which the normalisation conjugates away
        dlen = 2 if done % 4 == 0 else 3
        P, Q = Poly(K, [relem() for _ in range(3)]), Poly(K, [relem() for _ in range(dlen)])
        if P.is_zero() or Q.is_zero():
            continue
        try:
            phi = make_map(P, Q)
        except DegenerateMap:
            continue
        if phi.degree != 2:
            continue
        pt = milnor_coordinates(phi)
        assert (pt.sigma1, pt.sigma2, pt.sigma3) == _companion_milnor(phi)
        done += 1


def test_symmetric_quadratics_lie_on_cubic():
    rng = random.Random(21)
    for _ in range(25):
        fam = random_cyclic_family(rng, 2, 1, "B")
        pt = milnor_coordinates(build_cyclic(fam))
        assert fujimura_cubic(pt).is_zero()
    for _ in range(25):
        fam = random_cyclic_family(rng, 3, 1, "C")
        pt = milnor_coordinates(build_cyclic(fam))
        assert fujimura_cubic(pt).is_zero()


def test_certificate_serialization_roundtrip():
    from ratsym.jsonio import (canon_dumps, connectivity_from_json,
                               connectivity_to_json, path_cert_from_json,
                               path_cert_to_json)
    fam_a = CyclicFamily(2, 1, "A", (QQ(2), QQ(1)), (QQ(1), QQ(0)))
    fam_b = CyclicFamily(2, 1, "A", (QQ(3), QQ(1)), (QQ(1), QQ(0)))
    for strategy in ("sturm", "interval"):
        cert = build_path(fam_a, fam_b, strategy)
        blob = path_cert_to_json(cert)
        back = path_cert_from_json(blob)
        assert path_cert_to_json(back) == blob
        validate_path_certificate(back)
        assert canon_dumps(blob) == canon_dumps(path_cert_to_json(back))
    w0 = random_cyclic_family(random.Random(10), 3, 1, "A")
    w1 = random_cyclic_family(random.Random(11), 2, 2, "B")
    cert = connectivity_certificate(w0, w1, "sturm", random.Random(0))
    blob = connectivity_to_json(cert)
    back = connectivity_from_json(blob)
    assert connectivity_to_json(back) == blob
    validate_connectivity_certificate(back)
