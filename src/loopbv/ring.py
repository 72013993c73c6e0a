"""Exact arithmetic in the mod-2 loop homology ring of an odd projective space.

The ring is Z2[x, v, w] / (x^(2n+2), v^2 - (n+1) x^(2n) w) with generator
degrees |x| = -1, |v| = 0, |w| = 2n in the loop grading (homology grading
shifted down by the manifold dimension 2n+1).  Every element is a finite
F2-sum of normal-form monomials x^a v^b w^c with 0 <= a <= 2n+1, b in {0, 1}
and c >= 0.  A :class:`Monomial` is the exponent triple (a, b, c) itself:
entry i is the exponent of ``GENERATOR_NAMES[i]``.  :func:`normal_monomial`
is the one normal-form rule: it takes any exponent triple to its normal-form
monomial, or to ``None`` when the class is zero, and every product and
contraction sums its results mod 2 in one set of such monomials.

The free loop space has two connected components, labelled ``e`` (loops that
contract) and ``g`` (loops that do not).  The component of a monomial depends
on which component carries w; that choice is part of :class:`AlgebraConfig`.

``ring`` also owns the package's record type, :class:`Record`, and its input
rule.  :func:`check_int` refuses anything but an ``int`` (a ``bool`` is not
one here), and :func:`check_count` also refuses a negative value.  The
package refuses malformed input with an :class:`InputError`, which the
command line reports with exit code 2.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple


class InputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


def check_int(value, what: str) -> None:
    """Reject anything but an ``int``; ``bool`` is not an ``int`` here."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")


def check_count(value, what: str) -> None:
    """Reject anything but a nonnegative ``int``, as :func:`check_int` does."""
    check_int(value, what)
    if value < 0:
        raise InputError(f"{what} must be nonnegative, got {value}")


def check_window(lo, hi) -> None:
    """Refuse a loop-degree window [lo, hi] whose ends are not integers or
    that is empty."""
    check_int(lo, "lowest degree")
    check_int(hi, "highest degree")
    if lo > hi:
        raise InputError(f"empty degree window [{lo}, {hi}]")


def check_n(n) -> None:
    """Reject anything but a positive ``int``, as :func:`check_int` does."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")


class Record:
    """Immutable record whose fields are the annotated names of the class body.

    Fields are passed by position or keyword; a value in the class body is the
    field's default.  ``__post_init__`` runs next and may still set fields
    with ``object.__setattr__``.  ``==`` and ``hash`` compare the tuple of
    field values, built once right after ``__post_init__`` and hashed on each
    call (some records hold dicts, so hashing one can fail).  Fields named in
    ``_hidden`` stay out of ``repr``.  Assignment and deletion raise
    ``AttributeError``.
    """

    _fields = ()
    _defaults = {}
    _hidden = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        fields, values = self._fields, self.__dict__
        if kwargs or len(args) != len(fields):
            values.update(self._bind(args, kwargs))
        else:  # every field by position, the common call
            values.update(zip(fields, args))
        self.__post_init__()
        values["_key"] = tuple([values[f] for f in fields])

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """Field values from positional and keyword arguments and defaults."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(self._defaults)
        values.update(zip(fields, args))
        for field in kwargs:
            if field not in fields or field in fields[: len(args)]:
                raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            missing = next(f for f in fields if f not in values)
            raise TypeError(f"{name}() missing required argument {missing!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = (f"{f}={self.__dict__[f]!r}" for f in self._fields if f not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BVCase(Enum):
    """The four case configurations of the BV structure.

    The letter records which component carries w (A: contractible side,
    B: non-contractible side); the suffix names the bracket deformation:
    A_v / B_w are the plain brackets, A_vxw adds x^(2n) v w to {x, v} and
    B_wxvw adds x^(2n) v w^2 to {x, w}.

    The engine evaluates every case as pure configuration and never selects
    one.  Note that for even n the rewrite v^2 = x^(2n) w has a nonzero right
    side, which is component-consistent only when w sits on the contractible
    side: the B cases are graded algebras exactly for odd n, although their
    operator tables and page computations are well defined for every n.
    :mod:`loopbv.bv` states the pair at which the BV relation fails.
    """

    A_V = "A_v"
    A_VXW = "A_vxw"
    B_W = "B_w"
    B_WXVW = "B_wxvw"

    # members are singletons and equality is identity: hash in C, not
    # through the Python-level Enum.__hash__ of every cache lookup
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # the letter A: a plain attribute, read once per monomial by component()
        self.w_is_contractible = value[0] == "A"


class Component(Enum):
    """Connected component of the free loop space, a Z2 label."""

    E = "e"
    G = "g"

    __hash__ = object.__hash__  # as for BVCase


class AlgebraConfig(Record):
    """Pair (n, case) fixing the ring and its BV structure; dim M = 2n+1."""

    n: int
    bv_case: BVCase = BVCase.A_V

    def __post_init__(self) -> None:
        check_n(self.n)
        if not isinstance(self.bv_case, BVCase):
            raise InputError(f"unknown BV case {self.bv_case!r}")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


class Monomial(NamedTuple):
    """Exponent triple (a, b, c) standing for x^a v^b w^c; entry i is the
    exponent of ``GENERATOR_NAMES[i]``."""

    a: int
    b: int
    c: int

    def __str__(self) -> str:
        return render_monomial(self)


class AlgebraElement(Record):
    """Finite F2-sum of normal-form monomials; the empty sum is zero."""

    terms: frozenset[Monomial]

    def __init__(self, terms: frozenset[Monomial]) -> None:
        # every ring operation builds one: skip the generic argument matching
        self.__dict__["terms"], self.__dict__["_key"] = terms, (terms,)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return render_element(self)


ZERO = AlgebraElement(frozenset())
UNIT_MONOMIAL = Monomial(0, 0, 0)

GENERATOR_NAMES = ("x", "v", "w")
GENERATOR_EXPONENTS = dict(
    zip(GENERATOR_NAMES, (Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1)))
)


def element(*monomials: Monomial) -> AlgebraElement:
    """Bundle already-normal monomials into an element (mod-2 collapse)."""
    terms: set[Monomial] = set()
    for m in monomials:
        terms ^= {m}
    return AlgebraElement(frozenset(terms))


def zero() -> AlgebraElement:
    return ZERO


def unit() -> AlgebraElement:
    return element(UNIT_MONOMIAL)


def generator(name: str) -> AlgebraElement:
    """The generator x, v or w as an element."""
    try:
        return element(GENERATOR_EXPONENTS[name])
    except KeyError:
        raise InputError(f"unknown generator {name!r}; expected one of x, v, w") from None


def normal_monomial(a: int, b: int, c: int, cfg: AlgebraConfig) -> Monomial | None:
    """Normal form of x^a v^b w^c as one monomial, or ``None`` when it is zero.

    This is the ring's one normal-form rule; :func:`normalize`,
    :func:`multiply` and the contractions in :mod:`loopbv.bv` all apply it.
    Each v^2 becomes (n+1) x^(2n) w, which is x^(2n) w for even n and 0 for
    odd n.  The rewrite only raises the x exponent, so applying it before the
    x^(2n+2) = 0 rule is confluent.
    """
    if a < 0 or b < 0 or c < 0:
        raise InputError(f"exponents must be nonnegative, got ({a}, {b}, {c})")
    if b > 1:
        if (cfg.n + 1) % 2 == 0:
            return None
        reductions, b = divmod(b, 2)
        a += 2 * cfg.n * reductions
        c += reductions
    if a >= 2 * cfg.n + 2:
        return None
    # tuple.__new__ skips the Python-level Monomial.__new__ frame
    return tuple.__new__(Monomial, (a, b, c))


def normalize(a: int, b: int, c: int, cfg: AlgebraConfig) -> AlgebraElement:
    """Normal form of x^a v^b w^c as an element: :func:`normal_monomial`."""
    m = normal_monomial(a, b, c, cfg)
    return ZERO if m is None else AlgebraElement(frozenset((m,)))


def add(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Mod-2 sum: symmetric difference of the term sets."""
    return AlgebraElement(u.terms ^ v.terms)


def multiply(u: AlgebraElement, v: AlgebraElement, cfg: AlgebraConfig) -> AlgebraElement:
    """F2-bilinear product: monomials multiply by adding exponents, and the
    normal forms (:func:`normal_monomial`) are summed mod 2."""
    terms: set[Monomial] = set()
    for m1 in u.terms:
        for m2 in v.terms:
            m = normal_monomial(m1.a + m2.a, m1.b + m2.b, m1.c + m2.c, cfg)
            if m is not None:
                terms ^= {m}
    return AlgebraElement(frozenset(terms))


def power(u: AlgebraElement, k: int, cfg: AlgebraConfig) -> AlgebraElement:
    """u^k by square-and-multiply: at most 2 * k.bit_length() products."""
    check_count(k, "exponent")
    result = unit()
    while k:
        if k & 1:
            result = multiply(result, u, cfg)
        k >>= 1
        if k:
            u = multiply(u, u, cfg)
    return result


def loop_degree(m: Monomial, cfg: AlgebraConfig) -> int:
    """Degree in the loop grading: -a + 2n c."""
    return -m.a + 2 * cfg.n * m.c


def top_degree(m: Monomial, cfg: AlgebraConfig) -> int:
    """Degree in the unshifted homology grading: loop degree + (2n+1)."""
    return loop_degree(m, cfg) + cfg.dim


def component(m: Monomial, cfg: AlgebraConfig) -> Component:
    """Component label of a normal-form monomial; multiplicative under the product."""
    if cfg.bv_case.w_is_contractible:
        odd = m.b % 2
    else:
        odd = (m.b + m.c) % 2
    return Component.G if odd else Component.E


def _check_component(comp) -> None:
    if comp is not None and not isinstance(comp, Component):
        raise InputError(f"unknown component {comp!r}; expected a Component or None")


def basis(cfg: AlgebraConfig, comp: Component | None, k: int) -> tuple[Monomial, ...]:
    """All normal-form monomials of loop degree k in the given component.

    ``comp=None`` pools both components.  The list is finite for every k and
    sorted by (a, b, c): a rises along the loop, and c with it.  The
    arguments are checked before the cache is read, so a refused call
    leaves it as it was; ``basis.cache_info()`` and ``basis.cache_clear()``
    reach it.
    """
    _check_component(comp)
    check_int(k, "degree")
    return _degree_basis(cfg, comp, k)


# bounded: the key is caller input; 4096 is about three times what the
# period tables of all 32 configurations fill.  basis checks first, so an
# entry is only ever made for an int degree and a component or None
@lru_cache(maxsize=4096)
def _degree_basis(cfg: AlgebraConfig, comp: Component | None, k: int) -> tuple[Monomial, ...]:
    out = []
    # k + a must be a nonnegative multiple of 2n, which leaves at most two a
    for a in range(-k % (2 * cfg.n), 2 * cfg.n + 2, 2 * cfg.n):
        if k + a >= 0:
            c = (k + a) // (2 * cfg.n)
            for b in (0, 1):
                m = tuple.__new__(Monomial, (a, b, c))
                if comp is None or component(m, cfg) is comp:
                    out.append(m)
    return tuple(out)


basis.cache_info, basis.cache_clear = _degree_basis.cache_info, _degree_basis.cache_clear


def window_basis(
    cfg: AlgebraConfig, comps: tuple[Component | None, ...], lo: int, hi: int
) -> list[Monomial]:
    """Basis monomials of loop degree lo..hi by degree, then by component in
    ``comps`` order; starts at max(lo, -(2n+1)) since no monomial sits lower."""
    for comp in comps:
        _check_component(comp)
    check_window(lo, hi)
    degrees = range(max(lo, -cfg.dim), hi + 1)
    return [m for q in degrees for comp in comps for m in basis(cfg, comp, q)]


def dimension(cfg: AlgebraConfig, comp: Component | None, k: int) -> int:
    return len(basis(cfg, comp, k))


def render_monomial(m: Monomial) -> str:
    """Canonical text form "x^a*v^b*w^c" with zero exponents elided."""
    parts = []
    for name, exp in zip(GENERATOR_NAMES, m):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def render_element(u: AlgebraElement) -> str:
    """Terms sorted by (c, a, b) so output groups by w power; zero prints as "0"."""
    if u.is_zero():
        return "0"
    ordered = sorted(u.terms, key=lambda m: (m.c, m.a, m.b))
    return " + ".join(render_monomial(m) for m in ordered)
