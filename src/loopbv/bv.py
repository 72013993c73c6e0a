"""BV operator and Gerstenhaber bracket on the loop homology ring.

All four case configurations share Delta(x) = Delta(v) = Delta(w) = 0 and
{v, w} = 0; they differ only in {x, v} and {x, w}.  Over F2 the BV relation
reads Delta(ab) = Delta(a) b + a Delta(b) + {a, b}, so Delta is the
second-order operator and the bracket the biderivation built from the same
table of generator brackets {g_i, g_j}, i < j, generator i being exponent i
of x^e = x^e0 v^e1 w^e2.  ``_contract`` computes both as one sum:

    sum over i < j with odd weight of {g_i, g_j} x^e / (g_i g_j),

with weight e_i e_j for Delta(x^e), and e = e1 + e2 with weight
e1_i e2_j + e1_j e2_i for {x^e1, x^e2}.  The exponent triple e may be any
representative, normal or not: ``multiply`` reduces the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from . import gf2
from .ring import (
    GENERATOR_EXPONENTS,
    ZERO,
    AlgebraConfig,
    AlgebraElement,
    BVCase,
    Component,
    InputError,
    Monomial,
    add,
    basis,
    element,
    generator,
    loop_degree,
    multiply,
    power,
    unit,
    window_basis,
    zero,
)

GENERATOR_NAMES = ("x", "v", "w")


@lru_cache(maxsize=None)
def bracket_table(cfg: AlgebraConfig) -> dict[tuple[int, int], AlgebraElement]:
    """Nonzero brackets {g_i, g_j} of one case configuration, keyed by the
    index pair (i, j), i < j, with 0, 1, 2 standing for x, v, w.  Pairs that
    are absent (the diagonal and {v, w}) bracket to zero."""
    n = cfg.n
    xv = element(Monomial(0, 1, 0))  # v
    if cfg.bv_case is BVCase.A_VXW:
        xv = add(xv, element(Monomial(2 * n, 1, 1)))  # + x^(2n) v w
    table = {(0, 1): xv}
    if not cfg.bv_case.w_is_contractible:
        xw = element(Monomial(0, 0, 1))  # w
        if cfg.bv_case is BVCase.B_WXVW:
            xw = add(xw, element(Monomial(2 * n, 1, 2)))  # + x^(2n) v w^2
        table[(0, 2)] = xw
    return table


def generator_bracket(g1: str, g2: str, cfg: AlgebraConfig) -> AlgebraElement:
    """Bracket of two generators under the configured case; symmetric."""
    for g in (g1, g2):
        if g not in GENERATOR_NAMES:
            raise InputError(f"unknown generator {g!r}; expected one of x, v, w")
    return bracket_table(cfg).get(tuple(sorted(map(GENERATOR_NAMES.index, (g1, g2)))), ZERO)


def _contract(e: tuple[int, int, int], weight, cfg: AlgebraConfig) -> AlgebraElement:
    """Sum of {g_i, g_j} x^e / (g_i g_j) over the table's pairs with odd
    ``weight(i, j)``; ``e`` need not be in normal form."""
    result = zero()
    for (i, j), gb in bracket_table(cfg).items():
        if weight(i, j) % 2:
            rest = list(e)
            rest[i] -= 1
            rest[j] -= 1
            result = add(result, multiply(gb, element(Monomial(*rest)), cfg))
    return result


def bracket(u: AlgebraElement, v: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """Gerstenhaber bracket, extended from generators as a biderivation.

    Both ordered generator pairs (g_i, g_j) and (g_j, g_i) lower m1 m2 to the
    same monomial, so each unordered pair enters once with weight
    e1_i e2_j + e1_j e2_i.
    """
    result = zero()
    for m1 in u.terms:
        e1 = (m1.a, m1.b, m1.c)
        for m2 in v.terms:
            e2 = (m2.a, m2.b, m2.c)
            e = (m1.a + m2.a, m1.b + m2.b, m1.c + m2.c)
            result = add(result, _contract(e, lambda i, j: e1[i] * e2[j] + e1[j] * e2[i], cfg))
    return result


def delta(u: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """BV operator: weight e_i e_j on pair (i, j); raises loop degree by 1."""
    result = zero()
    for m in u.terms:
        e = (m.a, m.b, m.c)
        result = add(result, _contract(e, lambda i, j: e[i] * e[j], cfg))
    return result


def delta_oracle(u: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """Independent BV operator: peel one generator at a time via the BV relation.

    Delta(g * rest) = g * Delta(rest) + {g, rest} since Delta kills
    generators, and {g, rest} expands by the derivation rule over the
    generators h of rest.  Must agree with :func:`delta` on every input.
    """
    result = zero()
    for m in u.terms:
        result = add(result, _delta_oracle_monomial(m, cfg))
    return result


def _delta_oracle_monomial(m: Monomial, cfg: AlgebraConfig) -> AlgebraElement:
    if m.a + m.b + m.c <= 1:
        return zero()
    g = "x" if m.a else "v" if m.b else "w"
    rest = _divide(m, g)
    result = multiply(generator(g), _delta_oracle_monomial(rest, cfg), cfg)
    for h, count in zip(GENERATOR_NAMES, (rest.a, rest.b, rest.c)):
        if count % 2:
            bracket_gh = generator_bracket(g, h, cfg)
            result = add(result, multiply(bracket_gh, element(_divide(rest, h)), cfg))
    return result


def _divide(m: Monomial, name: str) -> Monomial:
    d = GENERATOR_EXPONENTS[name]
    return Monomial(m.a - d.a, m.b - d.b, m.c - d.c)


@dataclass(frozen=True)
class DeltaTable:
    """Delta on every basis monomial of one component inside a degree window."""

    cfg: AlgebraConfig
    comp: Component
    window: tuple[int, int]
    rows: dict[Monomial, AlgebraElement] = field(repr=False)


def delta_table(cfg: AlgebraConfig, comp: Component, lo: int, hi: int) -> DeltaTable:
    rows = {m: delta(element(m), cfg) for m in window_basis(cfg, (comp,), lo, hi)}
    return DeltaTable(cfg, comp, (lo, hi), rows)


def bv_relation_holds(a: AlgebraElement, b: AlgebraElement, cfg: AlgebraConfig) -> bool:
    """Whether Delta(ab) = Delta(a) b + a Delta(b) + {a, b} at the pair (a, b)."""
    lhs = delta(multiply(a, b, cfg), cfg)
    rhs = add(
        add(multiply(delta(a, cfg), b, cfg), multiply(a, delta(b, cfg), cfg)),
        bracket(a, b, cfg),
    )
    return lhs == rhs


def axiom_failures(
    cfg: AlgebraConfig,
    lo: int,
    hi: int,
    samples: int,
    seed: int,
) -> list[str]:
    """Spot-check the BV axioms on basis monomials in a loop-degree window.

    Delta^2 = 0 runs over every basis monomial; the BV relation, bracket
    symmetry, the Jacobi identity and the derivation rule run over ``samples``
    seeded random pairs/triples.  Returns one message per violation.
    """
    if samples < 0:
        raise InputError(f"samples must be nonnegative, got {samples}")
    pool = window_basis(cfg, (None,), lo, hi)
    failures: list[str] = []
    for m in pool:
        if not delta(delta(element(m), cfg), cfg).is_zero():
            failures.append(f"delta^2 != 0 at {m}")
    rng = random.Random(seed)
    for _ in range(samples):
        a, b, c = (element(rng.choice(pool)) for _ in range(3))
        if not bv_relation_holds(a, b, cfg):
            failures.append(f"BV relation fails at ({a}, {b})")
        ab, ac = bracket(a, b, cfg), bracket(a, c, cfg)
        if ab != bracket(b, a, cfg):
            failures.append(f"bracket not symmetric at ({a}, {b})")
        jac_lhs = bracket(a, bracket(b, c, cfg), cfg)
        if jac_lhs != add(bracket(ab, c, cfg), bracket(b, ac, cfg)):
            failures.append(f"Jacobi fails at ({a}, {b}, {c})")
        poisson_lhs = bracket(a, multiply(b, c, cfg), cfg)
        if poisson_lhs != add(multiply(ab, c, cfg), multiply(b, ac, cfg)):
            failures.append(f"derivation rule fails at ({a}, {b}, {c})")
    return failures


@dataclass(frozen=True)
class GeneratorMorphism:
    """A change of generators (images of x, v, w) together with its switches.

    The images follow the admissible shape: the x image adds multiples of
    x v, x^(2n+1) w and x^(2n+1) v w (switches a1..a3); the v image adds 1,
    x^(2n) w and x^(2n) v w (b1..b3); the w image combines w, (image of v) w,
    x^(2n) w^2 and x^(2n) (image of v) w^2 (c0..c3).
    """

    image_x: AlgebraElement
    image_v: AlgebraElement
    image_w: AlgebraElement
    a: tuple[int, int, int] = (0, 0, 0)
    b: tuple[int, int, int] = (0, 0, 0)
    c: tuple[int, int, int, int] = (1, 0, 0, 0)


def morphism_from_switches(
    cfg: AlgebraConfig,
    a: tuple[int, int, int] = (0, 0, 0),
    b: tuple[int, int, int] = (0, 0, 0),
    c: tuple[int, int, int, int] = (1, 0, 0, 0),
) -> GeneratorMorphism:
    """Build the generator images from switch bits; all bits live in {0, 1}."""
    for bits in (a, b, c):
        if any(bit not in (0, 1) for bit in bits):
            raise InputError(f"switches must be 0 or 1, got {bits}")
    n = cfg.n
    a1, a2, a3 = a
    b1, b2, b3 = b
    c0, c1, c2, c3 = c
    image_x = element(Monomial(1, 0, 0))
    if a1:
        image_x = add(image_x, element(Monomial(1, 1, 0)))
    if a2:
        image_x = add(image_x, element(Monomial(2 * n + 1, 0, 1)))
    if a3:
        image_x = add(image_x, element(Monomial(2 * n + 1, 1, 1)))
    # even powers of the x image equal plain powers of x, so the v image can
    # be written directly in the plain generators
    image_v = element(Monomial(0, 1, 0))
    if b1:
        image_v = add(image_v, unit())
    if b2:
        image_v = add(image_v, element(Monomial(2 * n, 0, 1)))
    if b3:
        image_v = add(image_v, element(Monomial(2 * n, 1, 1)))
    w_el = element(Monomial(0, 0, 1))
    x2n_w2 = element(Monomial(2 * n, 0, 2))
    image_w = zero()
    if c0:
        image_w = add(image_w, w_el)
    if c1:
        image_w = add(image_w, multiply(image_v, w_el, cfg))
    if c2:
        image_w = add(image_w, x2n_w2)
    if c3:
        image_w = add(image_w, multiply(image_v, x2n_w2, cfg))
    return GeneratorMorphism(image_x, image_v, image_w, a, b, c)


def identity_morphism() -> GeneratorMorphism:
    return GeneratorMorphism(generator("x"), generator("v"), generator("w"))


def _check_images_homogeneous(phi: GeneratorMorphism, cfg: AlgebraConfig) -> None:
    for name, image in (("x", phi.image_x), ("v", phi.image_v), ("w", phi.image_w)):
        want = loop_degree(GENERATOR_EXPONENTS[name], cfg)
        degrees = {loop_degree(m, cfg) for m in image.terms}
        if degrees - {want}:
            raise InputError(
                f"image of {name} is not homogeneous of loop degree {want}: "
                f"found degrees {sorted(degrees)}"
            )


def apply_morphism(phi: GeneratorMorphism, u: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """Substitute the generator images into u and renormalize."""
    _check_images_homogeneous(phi, cfg)
    result = zero()
    for m in u.terms:
        term = unit()
        for image, exp in ((phi.image_x, m.a), (phi.image_v, m.b), (phi.image_w, m.c)):
            term = multiply(term, power(image, exp, cfg), cfg)
        result = add(result, term)
    return result


@dataclass(frozen=True)
class MorphismReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks if not passed]


def verify_morphism_relations(phi: GeneratorMorphism, cfg: AlgebraConfig) -> MorphismReport:
    """Check the defining relations and degreewise injectivity of a morphism.

    Verifies that the x image is nilpotent of order 2n+2, that the v and w
    images satisfy the deformed quadratic relation selected by the switches
    b1 and c1, the power law for the x image, and (by F2 rank, degree by
    degree in a small window) that substitution maps basis monomials to
    linearly independent elements.
    """
    _check_images_homogeneous(phi, cfg)
    n = cfg.n
    checks: list[tuple[str, bool, str]] = []

    nilpotent = power(phi.image_x, 2 * n + 2, cfg)
    checks.append(
        ("x_image_nilpotent", nilpotent.is_zero(), f"(image of x)^{2 * n + 2} = {nilpotent}")
    )

    b1 = phi.b[0]
    c1 = phi.c[1]
    sigma = 0 if (b1, c1) == (0, 1) else 1
    relation = power(phi.image_v, 2, cfg)
    if b1:
        relation = add(relation, unit())
    if ((n + 1) * sigma) % 2:
        correction = power(phi.image_x, 2 * n, cfg)
        correction = multiply(correction, power(phi.image_v, b1 * c1, cfg), cfg)
        correction = multiply(correction, phi.image_w, cfg)
        relation = add(relation, correction)
    checks.append(("v_image_relation", relation.is_zero(), f"residual {relation}"))

    a1 = phi.a[0]
    x_el = generator("x")
    one_plus_v = add(unit(), generator("v"))
    power_law_ok = True
    detail = "all powers match"
    for k in range(2, 2 * n + 4):
        got = power(phi.image_x, k, cfg)
        want = power(x_el, k, cfg)
        if k % 2 and a1:
            want = multiply(want, one_plus_v, cfg)
        if got != want:
            power_law_ok = False
            detail = f"power {k}: got {got}, want {want}"
            break
    checks.append(("x_image_power_law", power_law_ok, detail))

    rank_ok = True
    detail = "full rank in every degree"
    for q in range(-(2 * n + 1), 2 * n + 1):
        pool = basis(cfg, None, q)
        index = {m: i for i, m in enumerate(pool)}
        images = [apply_morphism(phi, element(m), cfg) for m in pool]
        rk = gf2.rank([sum(1 << index[t] for t in image.terms) for image in images])
        if rk != len(pool):
            rank_ok = False
            detail = f"degree {q}: rank {rk} < dimension {len(pool)}"
            break
    checks.append(("degreewise_independence", rank_ok, detail))

    return MorphismReport(tuple(checks))
