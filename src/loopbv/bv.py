"""BV operator and Gerstenhaber bracket on the loop homology ring.

All four case configurations share Delta(x) = Delta(v) = Delta(w) = 0 and
{v, w} = 0; they differ only in {x, v} and {x, w}.  Over F2 the BV relation
reads Delta(ab) = Delta(a) b + a Delta(b) + {a, b}, so Delta is the
second-order operator and the bracket the biderivation built from the same
table of generator brackets {g_i, g_j}, i < j, generator i being exponent i
of x^e = x^e0 v^e1 w^e2, e a :class:`~loopbv.ring.Monomial`.  ``_contract``
computes both as one sum:

    sum over i < j with odd weight of {g_i, g_j} x^e / (g_i g_j),

with weight e_i e_j for Delta(x^e), and e = e1 + e2 with weight
e1_i e2_j + e1_j e2_i for {x^e1, x^e2}.  The monomial e may be any
representative, normal or not: each term is reduced by
:func:`~loopbv.ring.normal_monomial`, the ring's one normal-form rule, and
the terms are summed mod 2 into one element.

For even n the B cases are not graded BV algebras: (x v)(v w) = x v^2 w
rewrites to x^(2n+1) w^2, whose Delta vanishes while the right side of the
BV relation does not.  :func:`axiom_failures` checks that pair,
``OBSTRUCTION_WITNESS``, on every call.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import compress
from types import MappingProxyType

from .ring import (
    GENERATOR_EXPONENTS,
    GENERATOR_NAMES,
    UNIT_MONOMIAL,
    ZERO,
    AlgebraConfig,
    AlgebraElement,
    BVCase,
    Component,
    InputError,
    Monomial,
    Record,
    add,
    check_count,
    check_int,
    check_window,
    element,
    generator,
    loop_degree,
    multiply,
    normal_monomial,
    unit,
    window_basis,
    zero,
)


# bounded: the key is caller input; 64 holds the 32 configurations of
# n <= 8 twice over
@lru_cache(maxsize=64)
def bracket_table(cfg: AlgebraConfig) -> MappingProxyType:
    """Nonzero brackets {g_i, g_j} of one case configuration, keyed by the
    index pair (i, j), i < j, with 0, 1, 2 standing for x, v, w.  Pairs that
    are absent (the diagonal and {v, w}) bracket to zero.  Every caller
    shares the cached table, so it is read-only: assigning to it raises
    ``TypeError``."""
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
    return MappingProxyType(table)


def generator_bracket(g1: str, g2: str, cfg: AlgebraConfig) -> AlgebraElement:
    """Bracket of two generators under the configured case; symmetric."""
    for g in (g1, g2):
        if g not in GENERATOR_NAMES:
            raise InputError(f"unknown generator {g!r}; expected one of x, v, w")
    return bracket_table(cfg).get(tuple(sorted(map(GENERATOR_NAMES.index, (g1, g2)))), ZERO)


def _contract(e: Monomial, weight, cfg: AlgebraConfig, terms: set[Monomial]) -> None:
    """Toggle into ``terms`` the normal-form monomials of the sum of
    {g_i, g_j} x^e / (g_i g_j) over the table's pairs with odd
    ``weight(i, j)``; ``e`` need not be in normal form."""
    for (i, j), gb in bracket_table(cfg).items():
        if weight(i, j) % 2:
            rest = list(e)
            rest[i] -= 1
            rest[j] -= 1
            a, b, c = rest
            for g in gb.terms:
                m = normal_monomial(g.a + a, g.b + b, g.c + c, cfg)
                if m is not None:
                    terms ^= {m}


def bracket(u: AlgebraElement, v: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """Gerstenhaber bracket, extended from generators as a biderivation.

    Both ordered generator pairs (g_i, g_j) and (g_j, g_i) lower m1 m2 to the
    same monomial, so each unordered pair enters once with weight
    e1_i e2_j + e1_j e2_i.
    """
    terms: set[Monomial] = set()
    for m1 in u.terms:
        for m2 in v.terms:
            e = Monomial(m1.a + m2.a, m1.b + m2.b, m1.c + m2.c)
            _contract(e, lambda i, j: m1[i] * m2[j] + m1[j] * m2[i], cfg, terms)
    return AlgebraElement(frozenset(terms))


def delta(u: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """BV operator: weight e_i e_j on pair (i, j); raises loop degree by 1."""
    terms: set[Monomial] = set()
    for m in u.terms:
        _contract(m, lambda i, j: m[i] * m[j], cfg, terms)
    return AlgebraElement(frozenset(terms))


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
    for h, count in zip(GENERATOR_NAMES, rest):
        if count % 2:
            bracket_gh = generator_bracket(g, h, cfg)
            result = add(result, multiply(bracket_gh, element(_divide(rest, h)), cfg))
    return result


def _divide(m: Monomial, name: str) -> Monomial:
    d = GENERATOR_EXPONENTS[name]
    return Monomial(m.a - d.a, m.b - d.b, m.c - d.c)


class DeltaTable(Record):
    """Delta on every basis monomial of one component inside a degree window."""

    _hidden = ("rows",)

    cfg: AlgebraConfig
    comp: Component
    window: tuple[int, int]
    rows: dict[Monomial, AlgebraElement]


def delta_table(cfg: AlgebraConfig, comp: Component, lo: int, hi: int) -> DeltaTable:
    rows = {m: delta(element(m), cfg) for m in window_basis(cfg, (comp,), lo, hi)}
    return DeltaTable(cfg, comp, (lo, hi), rows)


OBSTRUCTION_WITNESS = (Monomial(1, 1, 0), Monomial(0, 1, 1))  # (x*v, v*w)


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

    The BV relation is first checked at ``OBSTRUCTION_WITNESS``, (x*v, v*w),
    whatever the window, samples and seed: it fails there exactly in the B
    cases at even n, where v^2 = x^(2n) w breaks it (see the module
    docstring).  The BV relation, the Jacobi identity and the derivation
    rule then run over ``samples`` seeded random pairs/triples, drawn from
    the window's basis, which is listed only when ``samples`` > 0; the window
    itself is checked whatever ``samples`` is.  Returns one message per
    violation.

    Two axioms are not sampled, since they cannot fail.  Symmetry of the
    bracket: :func:`bracket` toggles, for each pair of monomials, terms whose
    weight e1_i e2_j + e1_j e2_i and exponent sum e1 + e2 are symmetric in
    the two, so {a, b} and {b, a} toggle the same terms.  Delta^2 = 0: every
    nonzero pair of :func:`bracket_table` contains x, so Delta(x^a v^b w^c)
    is nonzero only for odd a, and each of its terms has an even x exponent
    (a - 1, plus 2n per x^(2n) in the bracket and per v^2 the normal form
    rewrites); hence Delta kills every term of Delta(m), in all four cases
    and for every n.
    """
    check_count(samples, "samples")
    check_int(seed, "seed")
    check_window(lo, hi)
    pool = window_basis(cfg, (None,), lo, hi) if samples else []
    if samples and not pool:
        raise InputError(f"no basis monomial to sample in degree window [{lo}, {hi}]")
    failures: list[str] = []
    a, b = (element(m) for m in OBSTRUCTION_WITNESS)
    if not bv_relation_holds(a, b, cfg):
        failures.append(f"BV relation fails at ({a}, {b})")
    rng = random.Random(seed)
    for _ in range(samples):
        a, b, c = (element(rng.choice(pool)) for _ in range(3))
        if not bv_relation_holds(a, b, cfg):
            failures.append(f"BV relation fails at ({a}, {b})")
        ab, ac = bracket(a, b, cfg), bracket(a, c, cfg)
        jac_lhs = bracket(a, bracket(b, c, cfg), cfg)
        if jac_lhs != add(bracket(ab, c, cfg), bracket(b, ac, cfg)):
            failures.append(f"Jacobi fails at ({a}, {b}, {c})")
        poisson_lhs = bracket(a, multiply(b, c, cfg), cfg)
        if poisson_lhs != add(multiply(ab, c, cfg), multiply(b, ac, cfg)):
            failures.append(f"derivation rule fails at ({a}, {b}, {c})")
    return failures


class GeneratorMorphism(Record):
    """A change of generators, held as its images of x, v and w and nothing
    else; :func:`verify_morphism_relations` judges it by those images alone,
    and :func:`morphism_from_switches` builds the shapes of its switch table."""

    image_x: AlgebraElement
    image_v: AlgebraElement
    image_w: AlgebraElement

    def __post_init__(self) -> None:
        for name, image in zip(GENERATOR_NAMES, (self.image_x, self.image_v, self.image_w)):
            if not isinstance(image, AlgebraElement):
                raise InputError(f"image of {name} must be an AlgebraElement, got {image!r}")


def morphism_from_switches(
    cfg: AlgebraConfig,
    a: tuple[int, int, int] = (0, 0, 0),
    b: tuple[int, int, int] = (0, 0, 0),
    c: tuple[int, int, int, int] = (1, 0, 0, 0),
) -> GeneratorMorphism:
    """Build the generator images from switch bits; all bits live in {0, 1}.

    Each image is its base plus the shapes whose switch is set:

        x image:  x + a1 x v + a2 x^(2n+1) w + a3 x^(2n+1) v w
        v image:  v + b1 + b2 x^(2n) w + b3 x^(2n) v w
        w image:  (c0 + c1 v') w + (c2 + c3 v') x^(2n) w^2,  v' the v image

    Even powers of the x image equal plain powers of x, so the v image can be
    written directly in the plain generators.  Only the images are kept; no
    other shape holds x v, 1 or v w, so a1, b1 and c1 are those terms of the
    x, v and w images, which :func:`verify_morphism_relations` reads.
    """
    for name, bits, length in (("a", a, 3), ("b", b, 3), ("c", c, 4)):
        if not isinstance(bits, Sequence) or len(bits) != length:
            raise InputError(f"switches {name} must be {length} bits, got {bits!r}")
        if not set(map(type, bits)) <= {int} or not set(bits) <= {0, 1}:
            raise InputError(f"switches must be 0 or 1, got {tuple(bits)}")
    two_n = 2 * cfg.n
    x_shapes = (Monomial(1, 1, 0), Monomial(two_n + 1, 0, 1), Monomial(two_n + 1, 1, 1))
    v_shapes = (UNIT_MONOMIAL, Monomial(two_n, 0, 1), Monomial(two_n, 1, 1))
    image_x = element(Monomial(1, 0, 0), *compress(x_shapes, a))
    image_v = element(Monomial(0, 1, 0), *compress(v_shapes, b))
    w, x2n_w2 = generator("w"), element(Monomial(two_n, 0, 2))
    w_shapes = (w, multiply(image_v, w, cfg), x2n_w2, multiply(image_v, x2n_w2, cfg))
    image_w = reduce(add, compress(w_shapes, c), zero())
    return GeneratorMorphism(image_x, image_v, image_w)


def identity_morphism() -> GeneratorMorphism:
    return GeneratorMorphism(generator("x"), generator("v"), generator("w"))


def _homogeneous_images(phi: GeneratorMorphism, cfg: AlgebraConfig) -> tuple[AlgebraElement, ...]:
    """The x, v and w images, each checked to be homogeneous of its
    generator's loop degree and to have no negative exponent."""
    images = (phi.image_x, phi.image_v, phi.image_w)
    for name, image in zip(GENERATOR_NAMES, images):
        want = loop_degree(GENERATOR_EXPONENTS[name], cfg)
        degrees = {loop_degree(m, cfg) for m in image.terms}
        if degrees - {want}:
            raise InputError(
                f"image of {name} is not homogeneous of loop degree {want}: "
                f"found degrees {sorted(degrees)}"
            )
        for m in image.terms:
            normal_monomial(*m, cfg)  # refuses a negative exponent, as a product would
    return images


def apply_morphism(phi: GeneratorMorphism, u: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """Substitute the generator images into u and renormalize.

    Each image's powers 0..top, top its largest exponent in u, are built one
    product per power, and x^a v^b w^c becomes the product of the a-th, b-th
    and c-th powers of the x, v and w images.
    """
    if any(e < 0 for m in u.terms for e in m):
        raise InputError("negative powers are not defined in this ring")
    tops = [max(column) for column in zip(UNIT_MONOMIAL, *u.terms)]
    tables = []
    for image, top in zip(_homogeneous_images(phi, cfg), tops):
        table = [unit()]
        for _ in range(top):
            table.append(multiply(table[-1], image, cfg))
        tables.append(table)
    xs, vs, ws = tables
    return reduce(add, (multiply(multiply(xs[m.a], vs[m.b], cfg), ws[m.c], cfg) for m in u.terms), zero())


class MorphismReport(Record):
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks if not passed]


def verify_morphism_relations(phi: GeneratorMorphism, cfg: AlgebraConfig) -> MorphismReport:
    """Check the defining relations and degreewise injectivity of a morphism.

    Verifies that the x image is nilpotent of order 2n+2, that the v and w
    images v' and w' satisfy the deformed quadratic relation selected by b1
    and c1, the power law for the x image, and that substitution is
    injective in every degree.  The morphism is judged by five bits read off
    its images' stored terms: alpha, beta, gamma = [x, v, w is a term of its
    own image], b1 = [1 is a term of v'] and c1 = [v w is a term of w'], the
    last two the switches of those names for a morphism from
    :func:`morphism_from_switches`.  No stored term outside normal form
    (b >= 2 or a >= 2n+2) normalises to x, v, w, 1 or v w, so the stored
    terms give the bits.  Each entry of the report is a closed form in them,
    and the only products are v'^2 and, at even n, one or two more.

    By homogeneity the images are x (alpha + a1 v + N), b1 + beta v + N' and
    w (gamma + c1 v + N''), with a1 = [x v is a term of the x image], N in
    the span of x^(2n) w and x^(2n) v w, and N', N'' multiples of x^(2n).

    Powers of the x image.  Every term carries a power of x, so the
    (2n+2)-th power is 0.  For k >= 2 every product with an x^(2n+1) term is
    0, and so is x^2 v^2; hence the k-th power is alpha x^k (1 + a1 v)^(k odd).
    The power law x^k (1 + a1 v)^(k odd) thus holds iff alpha = 1;
    otherwise the square is 0 and the law fails at k = 2.

    The v relation.  Its residual is v'^2 + b1, plus, at even n when b1 or
    not c1, the 2n-th power of the x image, alpha x^(2n), times w', and
    times v' as well when b1 and c1.

    Injectivity.  If alpha = beta = gamma = 1, x^a w^c and x^a v w^c map,
    modulo higher powers of x in the same degree, to x^a w^c (1 + s v) and
    x^a w^c (b1 + (1 + s b1) v) with s = a a1 + c c1, a block of determinant
    1, so each degree's matrix is block-unitriangular and invertible.
    Otherwise degree -(2n+1), of basis x^(2n+1) and x^(2n+1) v, loses rank:
    both map to 0 if alpha = 0 (rank 0), and to x^(2n+1) (1 + a1 v) and b1
    times it if alpha = 1 and beta = 0 (rank 1).  Else gamma = 0, and degree
    -1, the first that holds w, of basis x, x v, x^(2n+1) w and
    x^(2n+1) v w, loses rank: x and x v keep their unitriangular leads,
    while x^(2n+1) w maps to c1 x^(2n+1) v w and x^(2n+1) v w to
    b1 c1 x^(2n+1) v w, so the rank is 2 + c1.
    """
    n = cfg.n
    images = zip(GENERATOR_NAMES, _homogeneous_images(phi, cfg))
    alpha, beta, gamma = (GENERATOR_EXPONENTS[name] in image.terms for name, image in images)
    b1 = UNIT_MONOMIAL in phi.image_v.terms
    c1 = Monomial(0, 1, 1) in phi.image_w.terms

    square = multiply(phi.image_v, phi.image_v, cfg)
    relation = add(square, unit()) if b1 else square
    if n % 2 == 0 and (b1 or not c1) and alpha:
        term = multiply(element(Monomial(2 * n, 0, 0)), phi.image_w, cfg)
        relation = add(relation, multiply(term, phi.image_v, cfg) if b1 and c1 else term)

    if not (alpha and beta):
        independence = f"degree {-cfg.dim}: rank {int(alpha)} < dimension 2"
    elif not gamma:
        independence = f"degree -1: rank {2 + c1} < dimension 4"
    else:
        independence = "full rank in every degree"
    return MorphismReport((
        ("x_image_nilpotent", True, f"(image of x)^{2 * n + 2} = 0"),
        ("v_image_relation", relation.is_zero(), f"residual {relation}"),
        ("x_image_power_law", alpha, "all powers match" if alpha else "power 2: got 0, want x^2"),
        ("degreewise_independence", alpha and beta and gamma, independence),
    ))
