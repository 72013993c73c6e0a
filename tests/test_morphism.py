import functools
import hashlib
import itertools
import random

import pytest

from loopbv import bv, gf2
from loopbv.bv import (
    apply_morphism,
    identity_morphism,
    morphism_from_switches,
    verify_morphism_relations,
)
from loopbv.ring import (
    AlgebraConfig,
    BVCase,
    GENERATOR_EXPONENTS,
    UNIT_MONOMIAL,
    InputError,
    Monomial,
    add,
    basis,
    element,
    generator,
    multiply,
    normalize,
    power,
    unit,
    window_basis,
    zero,
)
from loopbv.bv import GeneratorMorphism


def test_identity_morphism_verifies_and_acts_trivially():
    cfg = AlgebraConfig(2)
    phi = identity_morphism()
    assert verify_morphism_relations(phi, cfg).ok
    u = normalize(3, 1, 2, cfg)
    assert apply_morphism(phi, u, cfg) == u


def test_trivial_switches_give_identity_images():
    cfg = AlgebraConfig(1)
    phi = morphism_from_switches(cfg)
    assert phi.image_x == generator("x")
    assert phi.image_v == generator("v")
    assert phi.image_w == generator("w")


@pytest.mark.parametrize("n", [1, 2])
def test_deformed_x_power_law(n):
    cfg = AlgebraConfig(n)
    phi = morphism_from_switches(cfg, a=(1, 0, 0))
    x = generator("x")
    one_plus_v = add(unit(), generator("v"))
    assert power(phi.image_x, 3, cfg) == multiply(power(x, 3, cfg), one_plus_v, cfg)
    assert power(phi.image_x, 4, cfg) == power(x, 4, cfg)
    assert power(phi.image_x, 2 * n + 2, cfg).is_zero()
    assert verify_morphism_relations(phi, cfg).ok


def test_all_x_switch_combinations_verify():
    cfg = AlgebraConfig(2)
    for a in itertools.product((0, 1), repeat=3):
        phi = morphism_from_switches(cfg, a=a)
        report = verify_morphism_relations(phi, cfg)
        assert report.ok, (a, report.failures())


def test_constant_shifted_v_image_verifies():
    cfg = AlgebraConfig(1)
    phi = morphism_from_switches(cfg, b=(1, 0, 0))
    report = verify_morphism_relations(phi, cfg)
    assert report.ok, report.failures()


def test_twisted_w_image_requires_odd_n():
    # sending w to w * (1 + v) with an untouched v image forces v^2 = 0,
    # which only holds for odd n
    switches = {"b": (0, 0, 0), "c": (1, 1, 0, 0)}
    for n in (1, 3):
        cfg = AlgebraConfig(n)
        report = verify_morphism_relations(morphism_from_switches(cfg, **switches), cfg)
        assert report.ok, (n, report.failures())
    even = morphism_from_switches(AlgebraConfig(2), **switches)
    report = verify_morphism_relations(even, AlgebraConfig(2))
    assert not report.ok
    assert any(name == "v_image_relation" and not passed
               for name, passed, _ in report.checks)


def test_shifted_v_with_v_times_w_image_verifies_everywhere():
    switches = {"b": (1, 0, 0), "c": (0, 1, 0, 0)}
    for n in (1, 2, 3):
        cfg = AlgebraConfig(n)
        report = verify_morphism_relations(morphism_from_switches(cfg, **switches), cfg)
        assert report.ok, (n, report.failures())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_x_image_outside_the_switches_fails_the_power_law_alone(n):
    # a morphism is judged by its images alone: x -> x + x v is the a1
    # switch's morphism and passes, and x -> x v, outside the switch table,
    # squares to 0, so it fails the power law at k = 2 and loses rank (at
    # even n its 2n-th power, 0, breaks v^2 = x^(2n) w as well)
    cfg = AlgebraConfig(n)
    x, v, w = (generator(name) for name in "xvw")
    deformed = GeneratorMorphism(add(x, multiply(x, v, cfg)), v, w)
    assert deformed == morphism_from_switches(cfg, a=(1, 0, 0))
    assert verify_morphism_relations(deformed, cfg).ok
    report = verify_morphism_relations(GeneratorMorphism(multiply(x, v, cfg), v, w), cfg)
    failed = [name for name, passed, _ in report.checks if not passed]
    assert failed == ["v_image_relation"] * (n % 2 == 0) + ["x_image_power_law", "degreewise_independence"]
    assert "x_image_power_law: power 2: got 0, want x^2" in report.failures()


def test_switch_validation():
    with pytest.raises(InputError):
        morphism_from_switches(AlgebraConfig(1), a=(2, 0, 0))


def test_switches_are_stored_as_tuples_of_int_bits():
    cfg = AlgebraConfig(1)
    from_list = morphism_from_switches(cfg, a=[1, 0, 0], b=[0, 1, 0], c=[1, 0, 1, 0])
    from_tuple = morphism_from_switches(cfg, a=(1, 0, 0), b=(0, 1, 0), c=(1, 0, 1, 0))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    for bad in [(True, 0, 0), (1.0, 0, 0), (0, False, 0)]:
        with pytest.raises(InputError, match="switches must be 0 or 1"):
            morphism_from_switches(cfg, a=bad)


@pytest.mark.parametrize("switches, name", [({"a": 1}, "a"), ({"a": None}, "a"), ({"c": 5}, "c")])
def test_switches_that_are_not_sequences_are_refused(switches, name):
    with pytest.raises(InputError, match=f"switches {name} must be"):
        morphism_from_switches(AlgebraConfig(1), **switches)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_switches_build_the_identity(n):
    assert morphism_from_switches(AlgebraConfig(n)) == identity_morphism()


@pytest.mark.parametrize("switches", [
    {"a": (1, 0)}, {"a": (1, 0, 0, 0)}, {"b": ()}, {"b": (0, 1)}, {"c": (1, 0, 0)}, {"c": (1, 0, 0, 0, 0)},
])
def test_switch_tuples_of_the_wrong_length_are_refused(switches):
    with pytest.raises(InputError, match="bits"):
        morphism_from_switches(AlgebraConfig(1), **switches)


def test_apply_morphism_is_multiplicative():
    # the chosen switches keep the original quadratic relation shape, so
    # substitution is a ring map even across normalisation steps
    cfg = AlgebraConfig(2)
    phi = morphism_from_switches(cfg, a=(1, 1, 0), b=(0, 1, 0), c=(1, 0, 1, 0))
    assert verify_morphism_relations(phi, cfg).ok
    for u, v in [
        (normalize(1, 1, 1, cfg), normalize(2, 0, 1, cfg)),
        (normalize(1, 1, 0, cfg), normalize(2, 1, 1, cfg)),  # product rewrites v^2
        (normalize(3, 0, 0, cfg), normalize(3, 1, 2, cfg)),  # product kills x power
    ]:
        lhs = apply_morphism(phi, multiply(u, v, cfg), cfg)
        rhs = multiply(apply_morphism(phi, u, cfg), apply_morphism(phi, v, cfg), cfg)
        assert lhs == rhs


@pytest.mark.parametrize("images", [
    ("x", generator("v"), generator("w")),
    (generator("x"), None, generator("w")),
    (generator("x"), generator("v"), Monomial(0, 0, 1)),
])
def test_images_that_are_not_algebra_elements_are_refused(images):
    with pytest.raises(InputError, match="must be an AlgebraElement"):
        GeneratorMorphism(*images)


def test_non_homogeneous_image_rejected():
    cfg = AlgebraConfig(1)
    broken = GeneratorMorphism(
        image_x=add(generator("x"), unit()),  # degrees -1 and 0 mixed
        image_v=generator("v"),
        image_w=generator("w"),
    )
    with pytest.raises(InputError):
        apply_morphism(broken, unit(), cfg)
    with pytest.raises(InputError):
        verify_morphism_relations(broken, cfg)


# terms of the loop degrees -1, 0 and 2n of x, v and w at n = 1 that are no
# elements of the ring
NEGATIVE_TERMS = {"x": Monomial(-1, 0, -1), "v": Monomial(-2, 0, -1), "w": Monomial(-2, 0, 0)}


@pytest.mark.parametrize("name", sorted(NEGATIVE_TERMS))
def test_images_with_a_negative_exponent_are_refused(name):
    cfg = AlgebraConfig(1)
    images = {g: generator(g) for g in "xvw"}
    images[name] = add(images[name], element(NEGATIVE_TERMS[name]))
    phi = GeneratorMorphism(*images.values())
    for run in (lambda: verify_morphism_relations(phi, cfg), lambda: apply_morphism(phi, unit(), cfg)):
        with pytest.raises(InputError, match="exponents must be nonnegative"):
            run()


def test_negative_exponent_rejected():
    cfg = AlgebraConfig(1)
    with pytest.raises(InputError, match="negative powers"):
        apply_morphism(identity_morphism(), element(Monomial(3, 0, 0), Monomial(-1, 0, 0)), cfg)


def test_degenerate_morphism_fails_rank_check():
    cfg = AlgebraConfig(1)
    collapsed = GeneratorMorphism(
        image_x=generator("x"),
        image_v=zero(),  # homogeneous (vacuously) but not injective
        image_w=generator("w"),
    )
    report = verify_morphism_relations(collapsed, cfg)
    assert not report.ok
    assert any(name == "degreewise_independence" and not passed
               for name, passed, _ in report.checks)


def test_generator_exponent_table_is_consistent():
    assert GENERATOR_EXPONENTS["x"] == Monomial(1, 0, 0)
    assert element(GENERATOR_EXPONENTS["w"]) == generator("w")


def full_range_x_checks(phi, cfg):
    """The nilpotency and power-law checks computed from every power of the
    x image up to 2n+3, as ``verify_morphism_relations`` once did, with a1
    read off the x image."""
    n = cfg.n
    xs = [power(phi.image_x, k, cfg) for k in range(2 * n + 4)]
    nilpotent = xs[2 * n + 2]
    checks = [("x_image_nilpotent", nilpotent.is_zero(), f"(image of x)^{2 * n + 2} = {nilpotent}")]
    one_plus_v = add(unit(), generator("v"))
    power_law = ("x_image_power_law", True, "all powers match")
    a1 = Monomial(1, 1, 0) in phi.image_x.terms
    for k in range(2, 2 * n + 4):
        want = normalize(k, 0, 0, cfg)
        if k % 2 and a1:
            want = multiply(want, one_plus_v, cfg)
        if xs[k] != want:
            power_law = ("x_image_power_law", False, f"power {k}: got {xs[k]}, want {want}")
            break
    return [*checks, power_law]


@pytest.mark.parametrize("n", range(1, 7))
def test_x_image_checks_match_the_full_power_range(n):
    # every x image of loop degree -1 (16 of them): the report's two x
    # checks equal those read off all powers up to 2n+3
    cfg = AlgebraConfig(n)
    shapes = (Monomial(1, 0, 0), Monomial(1, 1, 0), Monomial(2 * n + 1, 0, 1), Monomial(2 * n + 1, 1, 1))
    v, w = generator("v"), generator("w")
    for chosen in itertools.product((0, 1), repeat=4):
        phi = GeneratorMorphism(element(*itertools.compress(shapes, chosen)), v, w)
        report = verify_morphism_relations(phi, cfg)
        got = [check for check in report.checks if check[0].startswith("x_image")]
        assert got == full_range_x_checks(phi, cfg), chosen


# ------------------------------------------------- every switch setting

SWITCH_SETTINGS = [
    (a, b, c)
    for a in itertools.product((0, 1), repeat=3)
    for b in itertools.product((0, 1), repeat=3)
    for c in itertools.product((0, 1), repeat=4)
]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bits_read_off_the_images_are_the_switches(n):
    # the verifier reads a1, b1 and c1 as the terms x v, 1 and v w of the
    # x, v and w images; for a switch-built morphism these are its switches
    cfg = AlgebraConfig(n)
    for a, b, c in SWITCH_SETTINGS:
        phi = morphism_from_switches(cfg, a=a, b=b, c=c)
        read = (Monomial(1, 1, 0) in phi.image_x.terms, UNIT_MONOMIAL in phi.image_v.terms,
                Monomial(0, 1, 1) in phi.image_w.terms)
        assert read == (a[0], b[0], c[1]), (a, b, c)


def reference_apply(phi, u, cfg):
    """Substitution by definition: each term's exponents as ``ring.power``s."""
    result = zero()
    for m in u.terms:
        term = unit()
        for image, exp in ((phi.image_x, m.a), (phi.image_v, m.b), (phi.image_w, m.c)):
            term = multiply(term, power(image, exp, cfg), cfg)
        result = add(result, term)
    return result


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_morphism_matches_power_substitution(n):
    cfg = AlgebraConfig(n)
    pool = window_basis(cfg, (None,), -cfg.dim, 6 * n)
    rng = random.Random(n)
    for a, b, c in SWITCH_SETTINGS:
        phi = morphism_from_switches(cfg, a=a, b=b, c=c)
        u = element(*rng.choices(pool, k=rng.randint(1, 6)))
        assert apply_morphism(phi, u, cfg) == reference_apply(phi, u, cfg), (a, b, c, str(u))


# sha256 over the rendered images and the checks of all 1,024 switch
# settings at n = 1..3, taken from the implementation that substitutes with
# ring.power term by term (``reference_apply``)
MORPHISM_DIGEST = "0a2345de079be211998a7eb9d649eebf0635f8ac21392b69f4186ae257a3acfe"


def test_every_switch_setting_renders_and_verifies_as_pinned():
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        cfg = AlgebraConfig(n)
        for a, b, c in SWITCH_SETTINGS:
            phi = morphism_from_switches(cfg, a=a, b=b, c=c)
            checks = verify_morphism_relations(phi, cfg).checks
            line = f"{n} {a} {b} {c} {phi.image_x} | {phi.image_v} | {phi.image_w} | {checks!r}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == MORPHISM_DIGEST


# --------------------------------------- injectivity from the lead bits

def sweep_independence(phi, cfg):
    """Degreewise independence as the verifier once checked it: substitute
    into every basis monomial of degrees -(2n+1)..2n, the head plus one
    period 4n, and rank each degree, stopping at the first rank loss."""
    n = cfg.n
    xs, vs, ws = ([power(image, k, cfg) for k in range(top + 1)]
                  for image, top in ((phi.image_x, 2 * n + 1), (phi.image_v, 1), (phi.image_w, 2)))
    for q in range(-(2 * n + 1), 2 * n + 1):
        pool = basis(cfg, None, q)
        index = {m: i for i, m in enumerate(pool)}
        images = [multiply(multiply(xs[m.a], vs[m.b], cfg), ws[m.c], cfg) for m in pool]
        rk = gf2.rank([sum(1 << index[t] for t in image.terms) for image in images])
        if rk != len(pool):
            return ("degreewise_independence", False, f"degree {q}: rank {rk} < dimension {len(pool)}")
    return ("degreewise_independence", True, "full rank in every degree")


def homogeneous_triples(n):
    """Every triple of subsets of the four normal-form terms of loop degree
    -1, 0 and 2n: all 4,096 homogeneous images of x, v and w."""
    two_n = 2 * n
    shapes = (
        (Monomial(1, 0, 0), Monomial(1, 1, 0), Monomial(two_n + 1, 0, 1), Monomial(two_n + 1, 1, 1)),
        (UNIT_MONOMIAL, Monomial(0, 1, 0), Monomial(two_n, 0, 1), Monomial(two_n, 1, 1)),
        (Monomial(0, 0, 1), Monomial(0, 1, 1), Monomial(two_n, 0, 2), Monomial(two_n, 1, 2)),
    )
    subsets = [[element(*itertools.compress(terms, bits)) for bits in itertools.product((0, 1), repeat=4)]
               for terms in shapes]
    return [GeneratorMorphism(*images) for images in itertools.product(*subsets)]


@functools.lru_cache(maxsize=None)
def power_table(image, top, cfg):
    """Powers 0..top of one image, one product per power."""
    table = [unit()]
    for _ in range(top):
        table.append(multiply(table[-1], image, cfg))
    return table


def substituting_verifier(phi, cfg):
    """The whole report as the verifier once computed it: power tables of
    the images by repeated products, the v relation read off them, and on an
    independence failure the failing degree substituted and ranked."""
    n = cfg.n
    xs, vs, ws = (power_table(image, top, cfg)
                  for image, top in zip((phi.image_x, phi.image_v, phi.image_w), (2 * n + 1, 2, 1)))
    b1 = UNIT_MONOMIAL in phi.image_v.terms
    c1 = Monomial(0, 1, 1) in phi.image_w.terms
    relation = add(vs[2], unit()) if b1 else vs[2]
    if n % 2 == 0 and (b1 or not c1):
        relation = add(relation, multiply(multiply(xs[2 * n], vs[b1 * c1], cfg), ws[1], cfg))
    alpha, beta, gamma = (GENERATOR_EXPONENTS[name] in image.terms
                          for name, image in zip("xvw", (phi.image_x, phi.image_v, phi.image_w)))
    if alpha:
        power_law = ("x_image_power_law", True, "all powers match")
    else:
        power_law = ("x_image_power_law", False, f"power 2: got {xs[2]}, want x^2")
    if alpha and beta and gamma:
        independence = ("degreewise_independence", True, "full rank in every degree")
    else:
        q = -1 if alpha and beta else -cfg.dim
        pool = basis(cfg, None, q)
        index = {m: i for i, m in enumerate(pool)}
        images = (multiply(multiply(xs[m.a], vs[m.b], cfg), ws[m.c], cfg) for m in pool)
        rk = gf2.rank([sum(1 << index[t] for t in image.terms) for image in images])
        independence = ("degreewise_independence", False, f"degree {q}: rank {rk} < dimension {len(pool)}")
    return (("x_image_nilpotent", True, f"(image of x)^{2 * n + 2} = 0"),
            ("v_image_relation", relation.is_zero(), f"residual {relation}"), power_law, independence)


@pytest.mark.parametrize("n, case", [(1, case) for case in BVCase] + [(2, BVCase.A_V)])
def test_reports_match_the_substituting_verifier(n, case):
    cfg = AlgebraConfig(n, case)
    for phi in homogeneous_triples(n):
        assert verify_morphism_relations(phi, cfg).checks == substituting_verifier(phi, cfg), phi


@pytest.mark.parametrize("n", [1, 2])
def test_lead_bits_decide_independence_on_every_homogeneous_triple(n):
    cfg = AlgebraConfig(n)
    for phi in homogeneous_triples(n):
        report = verify_morphism_relations(phi, cfg)
        assert [name for name, _, _ in report.checks] == [
            "x_image_nilpotent", "v_image_relation", "x_image_power_law", "degreewise_independence"]
        assert report.checks[-1] == sweep_independence(phi, cfg), phi


@pytest.mark.parametrize("n", [3, 4])
def test_lead_bits_decide_independence_on_every_switch_setting(n):
    cfg = AlgebraConfig(n)
    for a, b, c in SWITCH_SETTINGS:
        phi = morphism_from_switches(cfg, a=a, b=b, c=c)
        assert verify_morphism_relations(phi, cfg).checks[-1] == sweep_independence(phi, cfg), (a, b, c)


def test_reports_do_not_depend_on_the_case():
    # the verifier never reads the bracket table
    rng = random.Random(35)
    for n in (1, 2, 3):
        for phi in rng.sample(homogeneous_triples(n), 64):
            reports = {verify_morphism_relations(phi, AlgebraConfig(n, case)) for case in BVCase}
            assert len(reports) == 1, phi


@pytest.mark.parametrize("n", [3, 4])
def test_reports_match_the_substituting_verifier_on_every_switch_setting(n):
    cfg = AlgebraConfig(n)
    for a, b, c in SWITCH_SETTINGS:
        phi = morphism_from_switches(cfg, a=a, b=b, c=c)
        assert verify_morphism_relations(phi, cfg).checks == substituting_verifier(phi, cfg), (a, b, c)


def test_the_verifier_binds_nothing_of_gf2():
    # the verifier ranks no degree: bv reaches gf2 neither as a module nor
    # through a name imported from it
    assert not [name for name, value in vars(bv).items()
                if value is gf2 or getattr(value, "__module__", None) == gf2.__name__]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 1000])
def test_the_verifier_ranks_nothing_and_makes_at_most_three_products(n, monkeypatch):
    cfg = AlgebraConfig(n)
    x, v, w = (generator(name) for name in "xvw")
    # (morphism, its independence detail, products at odd and at even n): the
    # products are v'^2 and, at even n, x^(2n) w' and its product with v', so
    # their count depends on n only through its parity; a missing lead of x
    # or v shows at degree -(2n+1), one of w at degree -1
    cases = [
        (morphism_from_switches(cfg, a=(1, 1, 1), b=(1, 1, 1), c=(0, 1, 1, 1)), "full rank in every degree",
         (1, 3)),
        (GeneratorMorphism(multiply(x, v, cfg), v, w), f"degree {-cfg.dim}: rank 0 < dimension 2", (1, 1)),
        (GeneratorMorphism(x, unit(), w), f"degree {-cfg.dim}: rank 1 < dimension 2", (1, 2)),
        (GeneratorMorphism(x, v, multiply(v, w, cfg)), "degree -1: rank 3 < dimension 4", (1, 1)),
        (GeneratorMorphism(x, v, zero()), "degree -1: rank 2 < dimension 4", (1, 2)),
    ]
    products = []
    multiply_in_bv = bv.multiply
    monkeypatch.setattr(bv, "multiply", lambda u, v, cfg: products.append(1) or multiply_in_bv(u, v, cfg))
    for phi, detail, counts in cases:
        want = substituting_verifier(phi, cfg)
        products.clear()
        report = verify_morphism_relations(phi, cfg)
        assert len(products) == counts[n % 2 == 0], phi
        assert report.checks == want, phi
        passed = detail == "full rank in every degree"
        assert report.checks[-1] == ("degreewise_independence", passed, detail)
        assert report.ok == passed


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_terms_outside_normal_form_leave_the_reports_alone(n):
    # the lead bits are read off the stored terms, which the verifier keeps
    # as given: no term with b >= 2 or a >= 2n+2 normalises to x, v or w, so
    # such a term beside each lead changes no report
    cfg = AlgebraConfig(n)
    extra = (Monomial(1, 2, 0), Monomial(0, 3, 0), Monomial(0, 2, 1))  # x v^2, v^3, v^2 w
    for a, b, c in SWITCH_SETTINGS[::7]:
        phi = morphism_from_switches(cfg, a=a, b=b, c=c)
        images = (phi.image_x, phi.image_v, phi.image_w)
        padded = GeneratorMorphism(*(add(image, element(m)) for image, m in zip(images, extra)))
        assert verify_morphism_relations(padded, cfg) == verify_morphism_relations(phi, cfg), (a, b, c)
    if n == 2:
        v, w = generator("v"), generator("w")
        stored = GeneratorMorphism(element(Monomial(1, 2, 0)), v, w)  # x v^2 = x^5 w
        normal = GeneratorMorphism(element(Monomial(5, 0, 1)), v, w)
        assert verify_morphism_relations(stored, cfg) == verify_morphism_relations(normal, cfg)
