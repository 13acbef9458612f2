"""Acceptance gate: nine headline guarantees, one test and one line each.

Each test prints a single [criterion N] PASS/FAIL line (visible with -s,
and pytest -v shows one result line per criterion).  Criterion 3 checks
the derived table against the recorded relation set exactly as stated:
26 of the 27 entries reduce, and the sign of the inhomogeneous term of
the recorded f-y entry is pinned as a certified erratum.  Its exact
residual is asserted in the full and in the graded table, next to the
vanishing residual of the opposite sign, together with a coproduct
certificate that only the opposite sign is compatible with the quotient
coproduct (README.md, "The recorded f-y sign").
"""

import random
import time

from jforge.contraction import (
    bundled_schedule,
    contract,
    extract_sector,
)
from jforge.freealg import (
    RewriteRule,
    RewriteSystem,
    nc_add,
    nc_gen,
    nc_mul,
    nc_scale,
    nc_str,
    nc_sub,
    nc_word,
    t_simple,
    t_str,
    tensor_normal_form,
)
from jforge.grammar import parse
from jforge.hopf import (
    LAYOUT_Q,
    check_antipode_axiom,
    check_bialgebra,
    coaction_covariance,
    coproduct_poly,
    delta_centrality,
    hopf_ideal_check,
    qdet_checks,
)
from jforge.rmat import (
    TensorMat,
    four_param_deformed_r3,
    jordanian_r2,
    jordanian_r3,
    qybe_check,
    two_param_deformed_r2,
    twist_3x3,
)
from jforge.rtt import (
    GEN_ORDER,
    LETTERS,
    DerivedAlgebra,
    reference_relations,
    rtt_zero_report,
    verify_reference,
)

from test_rtt import load


def _line(n: int, ok: bool, text: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {text}", flush=True)


def _random_point(mat: TensorMat, rng: random.Random) -> TensorMat:
    vals = {}
    seen = set()
    for v in sorted(mat.params()):
        while True:
            f = (rng.randint(2, 97), rng.randint(1, 13))
            if f not in seen:
                seen.add(f)
                break
        vals[v] = parse(f"{f[0]}/{f[1]}")
    return mat.substitute(vals)


def _is_identity(mat: TensorMat) -> bool:
    one, zero = parse("1"), parse("0")
    return all(mat.entry(rp, cp) == (one if rp == cp else zero)
               for rp in mat.basis for cp in mat.basis)


def test_criterion_1_braid_consistency():
    ok = True
    rng = random.Random(20260819)
    for name, builder in (("deformed", four_param_deformed_r3),
                          ("triangular", jordanian_r3)):
        start = time.perf_counter()
        report = qybe_check(builder(), name=name)
        elapsed = time.perf_counter() - start
        ok = ok and report.passed and elapsed < 30.0
        points = sum(qybe_check(_random_point(builder(), rng)).passed
                     for _ in range(20))
        ok = ok and points == 20
    _line(1, ok, "braid consistency, symbolic and at 20 rational points each")
    assert ok


def test_criterion_2_singular_limit_transport():
    start = time.perf_counter()
    schedule = bundled_schedule()[0]
    result = contract(four_param_deformed_r3(), twist_3x3(), schedule)
    target = jordanian_r3()
    elapsed = time.perf_counter() - start
    entries_equal = all(result.entry(rp, cp) == target.entry(rp, cp)
                        for rp in result.basis for cp in result.basis)
    sector = extract_sector(result, (2, 3))
    small = jordanian_r2()
    sector_equal = all(sector.entry(rp, cp) == small.entry(rp, cp)
                       for rp in sector.basis for cp in sector.basis)
    params_exact = (result.params() == {"m", "n", "k", "p"}
                    and schedule.survivors() == {"m", "n", "k", "p"})
    ok = entries_equal and sector_equal and params_exact and elapsed < 60.0
    _line(2, ok, "singular limit reproduces the triangular matrix, "
                 "its 2x2 sector and exactly the surviving parameters")
    assert entries_equal
    assert sector_equal
    assert params_exact
    assert elapsed < 60.0


# The recorded f-y sign is a certified erratum; README.md, section "The
# recorded f-y sign", gives both certificates and the hand derivation.
ERRATUM = "see README.md, 'The recorded f-y sign'"
FY_RESIDUAL = "2*k/p*f*x"
# quotient coproduct of r_+1 under the derived table; r_-1 gives 0
FY_COPRODUCT_RESIDUAL = ("(2*k/p)·(f*a (x) f*x) + (2*k/p)·(f*b (x) f*y) + "
                         "(2*k/p)·(f*x (x) f*f)")
# quotient coproduct of r_s modulo the record with r_s in place of f-y:
# every coefficient carries the factor 1 + s
FY_RECORD_COPRODUCT_RESIDUAL = (
    "((k*s + k)/p)·(f*a (x) f*x) + "
    "((k^2*s^2 + 2*k^2*s + k^2)/(p^2))·(f*b (x) f*x) + "
    "((k*s + k)/p)·(f*b (x) f*y) + ((-k*s - k)/p)·(f*d (x) f*x)")
HAND_DERIVATION_TAGS = ("ref:f-x", "ref:c-f", "ref:d-f")


def _fy(sign):
    """r_s = f*y - p*y*f + s*k*x*f; the record carries s = +1."""
    return nc_add(nc_sub(nc_word(("f", "y")), nc_word(("y", "f"), parse("p"))),
                  nc_word(("x", "f"), parse("k") * sign))


def _record_system(sign, tags=None):
    """The recorded quadratic relations, f-y replaced by r_sign, as rules.

    Each rule rewrites its relation's largest word, and add_rule refuses a
    repeated one.  A word of length 2 then has at most one redex, so on
    degree 2 reduction is a projection whose kernel is exactly the span of
    the relations: a leg-by-leg normal form decides membership in
    I (x) A + A (x) I with no appeal to confluence.  With tags, only those
    recorded relations are kept next to r_sign.
    """
    system = RewriteSystem(GEN_ORDER)
    for tag, poly in reference_relations():
        if tag == "ref:f-y":
            poly = _fy(sign)
        elif ((tags is not None and tag not in tags)
              or any(len(w) != 2 for w in poly)):
            continue
        lhs = max(poly, key=system.word_key)
        lead = poly[lhs]
        system.add_rule(RewriteRule(
            lhs, {w: -(c / lead) for w, c in poly.items() if w != lhs}, tag))
    return system


def _quotient_coproduct(poly, system):
    """The quotient coproduct of poly, normalized leg by leg."""
    image = tensor_normal_form(coproduct_poly(poly, LAYOUT_Q), system)
    return t_str(image)


def _hand_derivation_defect(s):
    """Delta(r_s) - r_s (x) f*f - (1+s)*k*[(a*f - f*d) (x) x*f + b*f (x) y*f],
    modulo r_s and the recorded f-x, c-f and d-f relations only."""
    bracket = nc_add(
        t_simple(nc_sub(nc_word(("a", "f")), nc_word(("f", "d"))),
                 nc_word(("x", "f"))),
        t_simple(nc_word(("b", "f")), nc_word(("y", "f"))))
    claim = nc_add(t_simple(_fy(s), nc_word(("f", "f"))),
                   nc_scale(bracket, parse("(1 + s)*k")))
    defect = nc_add(coproduct_poly(_fy(s), LAYOUT_Q), nc_scale(claim, -1))
    system = _record_system(s, HAND_DERIVATION_TAGS)
    return t_str(tensor_normal_form(defect, system))


def test_criterion_3_recorded_relation_set():
    start = time.perf_counter()
    alg = DerivedAlgebra()
    ref = verify_reference(alg)
    rtt = rtt_zero_report(alg)
    elapsed = time.perf_counter() - start
    failing = [c.name for c in ref.checks if not c.passed]
    fy = {c.name: c for c in ref.checks}["ref:f-y"].details
    # certificate 1: the graded table has no adjoined inverses and its
    # degree-2 ideal is the span of the exchange entries
    graded = verify_reference(DerivedAlgebra(extend=False))
    graded_failing = [c.name for c in graded.checks if not c.passed]
    graded_fy = {c.name: c for c in graded.checks}["ref:f-y"].details
    # certificate 2: only the flipped sign is compatible with the coproduct
    s = parse("s")
    record_is_plus = dict(reference_relations())["ref:f-y"] == _fy(parse("1"))
    hand_defect = _hand_derivation_defect(s)
    delta_in_record = _quotient_coproduct(_fy(s), _record_system(s))
    quotient = alg.quotient().system
    delta_recorded = _quotient_coproduct(_fy(parse("1")), quotient)
    delta_flipped = _quotient_coproduct(_fy(parse("-1")), quotient)

    exchange_ok = rtt.passed and rtt.checks[0].details["total"] == 81
    record_ok = (len(ref.checks) == 27 and failing == ["ref:f-y"]
                 and fy.get("recorded_residual") == FY_RESIDUAL
                 and fy.get("sign_flipped_residual") == "0")
    graded_ok = (graded_failing == ["ref:f-y"]
                 and graded_fy.get("recorded_residual") == FY_RESIDUAL
                 and graded_fy.get("sign_flipped_residual") == "0")
    coproduct_ok = (record_is_plus and hand_defect == "0"
                    and delta_in_record == FY_RECORD_COPRODUCT_RESIDUAL
                    and delta_recorded == FY_COPRODUCT_RESIDUAL
                    and delta_flipped == "0")
    ok = (exchange_ok and record_ok and graded_ok and coproduct_ok
          and elapsed < 120.0)
    _line(3, ok, "all 81 exchange entries and 26 of 27 recorded relations "
                 "reduce to zero; the recorded f-y sign is a certified "
                 "erratum (graded table and coproduct), its flip reduces")
    assert exchange_ok, "exchange entries must reduce under the derived table"
    assert elapsed < 120.0
    assert len(ref.checks) == 27
    assert failing == ["ref:f-y"], f"recorded relations failing: {failing}"
    assert fy.get("recorded_residual") == FY_RESIDUAL, ERRATUM
    assert fy.get("sign_flipped_residual") == "0", ERRATUM
    assert graded_failing == ["ref:f-y"], ERRATUM
    assert graded_fy.get("recorded_residual") == FY_RESIDUAL, ERRATUM
    assert graded_fy.get("sign_flipped_residual") == "0", ERRATUM
    assert record_is_plus, f"the recorded f-y entry must be r_+1; {ERRATUM}"
    assert hand_defect == "0", f"hand derivation leaves {hand_defect}; {ERRATUM}"
    assert delta_in_record == FY_RECORD_COPRODUCT_RESIDUAL, ERRATUM
    assert delta_recorded == FY_COPRODUCT_RESIDUAL, ERRATUM
    assert delta_flipped == "0", ERRATUM


def test_criterion_4_overlap_words_resolve():
    alg = DerivedAlgebra()
    bound = len(GEN_ORDER) ** 3
    full = alg.system.confluence_report(max_degree=3)
    quot = alg.quotient().system.confluence_report(max_degree=3)
    candidates = (full.checks[0].details["candidates"],
                  quot.checks[0].details["candidates"])
    ok = (full.passed and quot.passed and len(GEN_ORDER) == 13
          and all(c <= bound for c in candidates))
    _line(4, ok, f"every degree-3 overlap word resolves uniquely "
                 f"({candidates[0]} full, {candidates[1]} quotient, "
                 f"bound {bound})")
    assert ok


def test_criterion_5_row_vector_hopf_ideal(alg):
    report = hopf_ideal_check(alg)
    names = [c.name for c in report.checks]
    ok = report.passed and names == ["two-sided-ideal", "co-ideal",
                                     "antipode-stability"]
    _line(5, ok, "the row-vector span is a two-sided co-ideal stable "
                 "under the antipode")
    assert ok, report.to_text()


def test_criterion_6_coalgebra_maps_and_antipode(alg, quotient):
    bi = check_bialgebra(alg.system)
    axiom = check_antipode_axiom(quotient)
    fixture = load("t_inverse.json")
    gens = alg.system.generators
    inv_matches = [[nc_str(alg.block_inv[i][j], gens) for j in (0, 1)]
                   for i in (0, 1)] == fixture["entries"]
    positions = [c for c in axiom.checks if c.name.startswith("antipode:")]
    ok = bi.passed and axiom.passed and inv_matches and len(positions) == 9
    _line(6, ok, "coproduct and counit annihilate every relation; the "
                 "antipode axiom holds at all 9 positions using the "
                 "derived block inverse")
    assert bi.passed, bi.to_text()
    assert axiom.passed, axiom.to_text()
    assert inv_matches


def test_criterion_7_determinant_structure(alg, quotient):
    qdet = qdet_checks(quotient)
    central = delta_centrality(alg)
    ok = qdet.passed and central.passed
    _line(7, ok, "total determinant is group-like with counit one and an "
                 "inverse; block-determinant commutators match and die at "
                 "equal plane parameters; the scale is a non-central witness")
    assert qdet.passed, qdet.to_text()
    assert central.passed, central.to_text()


def test_criterion_8_coaction_braiding(quotient):
    braided = coaction_covariance(quotient.system, braiding=True)
    naive = coaction_covariance(quotient.system, braiding=False)
    ok = braided.passed and not naive.passed
    _line(8, ok, "the coacted plane relation vanishes with the braiding "
                 "and survives without it")
    assert braided.passed, braided.to_text()
    assert not naive.passed, "naive factor commutation must leave a residual"


def test_criterion_9_classical_limits():
    classical = {
        "rq2": (two_param_deformed_r2, {"r": "1", "s": "1"}),
        "rq3": (four_param_deformed_r3, {"p": "1", "q": "1",
                                         "r": "1", "s": "1"}),
        "rj2": (jordanian_r2, {"m": "0", "n": "0"}),
        "rj3": (jordanian_r3, {"m": "0", "n": "0", "k": "0", "p": "1"}),
    }
    matrices_ok = True
    for builder, binding in classical.values():
        vals = {k: parse(v) for k, v in binding.items()}
        matrices_ok = matrices_ok and _is_identity(builder().substitute(vals))
    table = DerivedAlgebra(
        bindings={k: parse(v) for k, v in classical["rj3"][1].items()},
        extend=False)
    commutative = all(
        table.system.reduces_to_zero(nc_sub(nc_mul(nc_gen(u), nc_gen(v)),
                                     nc_mul(nc_gen(v), nc_gen(u))))
        for u in LETTERS for v in LETTERS)
    ok = matrices_ok and commutative
    _line(9, ok, "all four constructors hit the identity and the derived "
                 "table turns commutative at the classical point")
    assert matrices_ok
    assert commutative
