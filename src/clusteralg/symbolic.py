"""Exact integer Laurent-polynomial arithmetic in n variables.

Values are immutable.  A polynomial is a finite map from exponent
vectors (tuples of ints, possibly negative) to nonzero integer
coefficients; the zero polynomial is the empty map.  Equality, hashing
and the canonical serialized string all go through the same sorted term
list, so equal polynomials are indistinguishable everywhere.

The multiplication and division kernels work on packed exponents
(Kronecker substitution), done afresh inside each call: with a base B
larger than every per-variable exponent range involved, the vector
(e_1, ..., e_n) becomes the single int sum(e_i * B^(n-i)).  Packing is
linear, so multiplying monomials adds their ints, and on any box of
exponent vectors whose every width is below B no carry crosses a digit,
so the map is one-to-one there and the order of the ints is
lexicographic order, a monomial order.  A product packs its two
factors; exact_div packs its numerator; exchange_relation packs a whole
exchange relation at once, its factors, powers, sum and division, with
a base that covers the hull of the numerator's exponents: the box
spanned by the exponent bounds of its two products, which holds every
partial product too.  Division on that hull box stays fail-fast and
sound: a quotient that exists lies in the box [lo - lo(den),
hi - hi(den)], and a borrow between digits still leaves it, since B -
deg(den) > (hi - lo) - deg(den).  Results are unpacked back to exponent
tuples before they are stored, so the term map, equality, hashing and
canonical strings never see packed keys.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, mul, sub
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

from .errors import NotDivisible

Exponent = Tuple[int, ...]

# Up to this many term pairs, packing and unpacking cost more than adding
# exponent tuples directly.  Timed on the products that finite-type
# orbits and affine belts multiply, the crossover lies between 64 and
# 200 pairs.  An exchange relation whose every multiplication is this
# small is not packed as a whole either.
_SMALL_PRODUCT = 100


class LaurentPoly:
    """An integer Laurent polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, int] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        self.nvars = nvars
        clean: Dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent vector {exp!r} has length {len(exp)}, expected {nvars}"
                    )
                if coeff:
                    clean[tuple(exp)] = coeff
        self.terms = clean
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponent, int]) -> "LaurentPoly":
        """Wrap a term map the caller built with valid keys and no zero coefficients."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._hash = None
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPoly":
        if c == 0:
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exp: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(exp): coeff})

    @classmethod
    def generator(cls, nvars: int, i: int) -> "LaurentPoly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"generator index {i} out of range [1,{nvars}]")
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, tuple(self.sorted_terms())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, {dict(self.sorted_terms())!r})"

    # -- ring operations --------------------------------------------

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        small, big = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        if not small.terms:
            return LaurentPoly.zero(self.nvars)
        if len(small.terms) == 1:
            ((es, cs),) = small.terms.items()
            if cs == 1 and not any(es):
                return big
            return LaurentPoly._trusted(self.nvars, _shifted(big.terms, es, cs))
        if len(small.terms) * len(big.terms) <= _SMALL_PRODUCT:
            out: Dict[Exponent, int] = {}
            get = out.get
            for ea, ca in small.terms.items():
                for eb, cb in big.terms.items():
                    key = tuple(map(add, ea, eb))
                    out[key] = get(key, 0) + ca * cb
            return LaurentPoly._trusted(self.nvars, {e: c for e, c in out.items() if c})
        a_lo, a_hi = _exponent_bounds(small.terms)
        b_lo, b_hi = _exponent_bounds(big.terms)
        lows = [x + y for x, y in zip(a_lo, b_lo)]
        base = 1 + max(x + y - z for x, y, z in zip(a_hi, b_hi, lows))
        weights = _weights(base, self.nvars)
        packed = _packed_product(_packed(small.terms, weights), _packed(big.terms, weights))
        offset = sum(map(mul, lows, weights))
        return LaurentPoly._trusted(self.nvars, _unpack(packed, offset, lows, base))

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, {e: c * k for e, k in self.terms.items()})

    def shift(self, exp: Exponent) -> "LaurentPoly":
        """Multiply by the monomial x^exp."""
        if len(exp) != self.nvars:
            raise ValueError(f"shift {exp!r} has length {len(exp)}, expected {self.nvars}")
        return LaurentPoly._trusted(self.nvars, _shifted(self.terms, exp, 1))

    def pow(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers only exist for monomials; use shift")
        if k == 0:
            return LaurentPoly.one(self.nvars)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- inspection --------------------------------------------------

    def min_exponents(self) -> Exponent:
        """Componentwise minimum exponent over all terms (zero poly: all 0)."""
        if not self.terms:
            return (0,) * self.nvars
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def max_exponents(self) -> Exponent:
        if not self.terms:
            return (0,) * self.nvars
        cols = zip(*self.terms.keys())
        return tuple(max(col) for col in cols)

    def all_coefficients_positive(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    # -- canonical serialization ------------------------------------

    def canonical_string(self) -> str:
        """Bit-exact key: terms "coeff:e1,...,en" sorted by exponent, ';'-joined."""
        return ";".join(
            f"{c}:{','.join(str(x) for x in e)}" for e, c in self.sorted_terms()
        )

    @classmethod
    def from_canonical_string(cls, nvars: int, s: str) -> "LaurentPoly":
        if not s:
            return cls.zero(nvars)
        terms: Dict[Exponent, int] = {}
        for part in s.split(";"):
            coeff_str, exp_str = part.split(":")
            exp = tuple(int(x) for x in exp_str.split(",")) if exp_str else ()
            terms[exp] = int(coeff_str)
        return cls(nvars, terms)

    def pretty(self, names: list[str] | None = None) -> str:
        """Human form num/den with a monomial denominator, e.g. (1 + x1)/x2."""
        if names is None:
            names = [f"x{i}" for i in range(1, self.nvars + 1)]
        if not self.terms:
            return "0"
        mins = self.min_exponents()
        den_exp = tuple(-min(m, 0) for m in mins)
        num = self.shift(den_exp)
        num_str = _format_positive_part(num, names)
        if all(d == 0 for d in den_exp):
            return num_str
        den_str = _format_monomial(den_exp, 1, names)
        if len(num.terms) > 1:
            num_str = f"({num_str})"
        if "*" in den_str:
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"


def _format_monomial(exp: Exponent, coeff: int, names: list[str]) -> str:
    factors = []
    for name, e in zip(names, exp):
        if e == 1:
            factors.append(name)
        elif e != 0:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def _format_positive_part(p: LaurentPoly, names: list[str]) -> str:
    parts = []
    # display ordering: ascending total degree, then lex, constant first
    for exp, coeff in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0])):
        term = _format_monomial(exp, coeff, names)
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts)


def _exponent_bounds(terms: Mapping[Exponent, int]) -> tuple[Exponent, Exponent]:
    """Componentwise minimum and maximum exponents of a nonempty term map."""
    cols = list(zip(*terms))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _weights(base: int, nvars: int) -> list[int]:
    """Packing weights base^(n-1), ..., base, 1: variable 1 is most significant."""
    return [base**i for i in range(nvars - 1, -1, -1)]


def _shifted(terms: Mapping[Exponent, int], exp: Exponent, c: int) -> Dict[Exponent, int]:
    """The term map of c * x^exp times the given terms."""
    if not any(exp):
        return {e: c * k for e, k in terms.items()}
    return {tuple(map(add, e, exp)): c * k for e, k in terms.items()}


def _unpack(
    packed: Mapping[int, int], offset: int, lows: list[int], base: int
) -> Dict[Exponent, int]:
    """Term map of packed keys whose digits, after subtracting offset, lie in [0, base)."""
    n = len(lows)
    terms: Dict[Exponent, int] = {}
    for k, c in packed.items():
        if c:
            r = k - offset
            exp = [0] * n
            for i in range(n - 1, -1, -1):
                r, d = divmod(r, base)
                exp[i] = d + lows[i]
            terms[tuple(exp)] = c
    return terms


def _packed(terms: Mapping[Exponent, int], weights: list[int]) -> Dict[int, int]:
    """The term map with every exponent vector packed to its int."""
    return {sum(map(mul, e, weights)): c for e, c in terms.items()}


def _packed_product(a: Mapping[int, int], b: Mapping[int, int]) -> Dict[int, int]:
    """The product of two packed term maps; cancelled terms stay as zeros."""
    b_items = list(b.items())
    out: Dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _packed_square(a: Mapping[int, int]) -> Dict[int, int]:
    """_packed_product(a, a), visiting each unordered pair of terms once."""
    items = list(a.items())
    out: Dict[int, int] = {}
    get = out.get
    for i, (ka, ca) in enumerate(items):
        k = ka + ka
        out[k] = get(k, 0) + ca * ca
        ca += ca
        for kb, cb in items[i + 1 :]:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _packed_quotient(
    rem: Dict[int, int],
    q: LaurentPoly,
    lo: list[int],
    hi: list[int],
    base: int,
    weights: list[int],
    fail: Callable[[], NotDivisible],
) -> Dict[Exponent, int]:
    """The term map of rem / q, or raise fail(); rem is consumed.

    rem is a numerator packed by weights, the powers of base, with every
    exponent in the box [lo, hi], and base exceeds every width hi - lo.
    q is packed so that a remainder key minus q's leading key is the
    quotient term's key relative to the corner lo - q_lo of the box a
    quotient must lie in, and only quotient terms are unpacked.  See
    exact_div for why each check is sound.
    """
    q_lo, q_hi = _exponent_bounds(q.terms)
    n = len(lo)
    box = [h - l - (qh - ql) for l, h, ql, qh in zip(lo, hi, q_lo, q_hi)]
    shift_back = [a - b for a, b in zip(lo, q_lo)]
    shift = sum(map(mul, shift_back, weights))
    den = sorted(((k + shift, c) for k, c in _packed(q.terms, weights).items()), reverse=True)
    lead_key, lead_coeff = den[0]
    den_rest = den[1:]
    # Every key in rem has exactly one heap entry; cancelled terms stay
    # in rem as zeros until their entry is popped.
    heap = [-k for k in rem]
    heapify(heap)
    quot: Dict[Exponent, int] = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        t = k - lead_key
        if c % lead_coeff:
            raise fail()
        r = t
        exp = [0] * n
        for i in range(n - 1, -1, -1):
            r, d = divmod(r, base)
            if d > box[i]:
                raise fail()
            exp[i] = d + shift_back[i]
        if r:
            raise fail()
        tc = c // lead_coeff
        quot[tuple(exp)] = tc
        for dk, dc in den_rest:
            key = dk + t
            old = rem.get(key)
            if old is None:
                rem[key] = -tc * dc
                heappush(heap, -key)
            else:
                rem[key] = old - tc * dc
    return quot


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Return r with q*r == p, or raise NotDivisible.

    A monomial q divides term by term.  Otherwise, if a quotient exists,
    its exponents lie in the box [lo - q_lo, hi - q_hi] for any box
    [lo, hi] holding p's exponents (extreme faces multiply in an
    integral domain), so every remainder exponent stays in [lo, hi] and
    the packed keys carry nothing between digits.  Here [lo, hi] is
    p's own bounds; exchange_relation passes its numerator's hull.
    Single-divisor division then takes the largest remaining key from a
    max-heap each step.  The leading-term test is fail-fast and sound:
    over an integral domain the remainder q*(r - acc) always has leading
    term divisible by q's, so the first quotient term that leaves the
    box or has a non-integer coefficient certifies there is no
    integer-coefficient quotient.  A borrow between digits always
    leaves the box, since the lowest borrowing digit wraps to at least
    base - deg_i(q), which exceeds hi_i - lo_i - deg_i(q); a box with a
    negative width fails at the first nonzero term.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable-count mismatch")
    if q.is_zero():
        raise ZeroDivisionError("exact_div by the zero polynomial")
    n = p.nvars
    if p.is_zero():
        return LaurentPoly.zero(n)

    def fail() -> NotDivisible:
        return NotDivisible(
            f"{p.canonical_string()!r} is not divisible by {q.canonical_string()!r}"
        )

    if len(q.terms) == 1:
        ((eq, cq),) = q.terms.items()
        if any(c % cq for c in p.terms.values()):
            raise fail()
        return LaurentPoly._trusted(
            n, {tuple(map(sub, e, eq)): c // cq for e, c in p.terms.items()}
        )
    lo, hi = _exponent_bounds(p.terms)
    base = 1 + max(map(sub, hi, lo))
    weights = _weights(base, n)
    return LaurentPoly._trusted(
        n, _packed_quotient(_packed(p.terms, weights), q, lo, hi, base, weights, fail)
    )


def exchange_relation(
    plus: Sequence[tuple[LaurentPoly, int]],
    minus: Sequence[tuple[LaurentPoly, int]],
    x: LaurentPoly,
) -> LaurentPoly:
    """(prod f^a over plus + prod f^a over minus) / x, or raise NotDivisible.

    With plus the pairs (x_i, b_ik) for b_ik > 0, minus the pairs
    (x_i, -b_ik) for b_ik < 0 and x = x_k, this is the exchange relation
    x'_k = (prod_i x_i^[b_ik]_+ + prod_i x_i^[-b_ik]_+) / x_k; an empty
    side is the empty product 1.  When x is a monomial, or every
    multiplication the relation makes would take the tuple branch of
    LaurentPoly.__mul__ (each side's term counts, raised to their
    exponents, multiply to at most _SMALL_PRODUCT), the relation is
    exact_div(prod + prod, x) through LaurentPoly.pow and __mul__.
    Otherwise it runs on one packing whose base covers the hull of the
    numerator's exponents, the box spanned by the two products' bounds:
    each factor is packed once, powers go by square-and-multiply with
    squares visiting each unordered pair of terms once, the products are
    added on packed keys, and exact_div's quotient loop divides them on
    the hull box, so only the quotient is unpacked.  Inputs that are not
    the arguments of a relation (a zero factor or divisor, an exponent
    below 1, mismatched variable counts) take the first route, whose
    operations answer them.
    """
    nvars = x.nvars
    if (
        len(x.terms) == 1
        or max(_terms_bound(plus), _terms_bound(minus)) <= _SMALL_PRODUCT
        or not x.terms
        or not all(a > 0 and f.terms and f.nvars == nvars for f, a in (*plus, *minus))
    ):
        return exact_div(_product(plus, nvars) + _product(minus, nvars), x)

    sides = []
    for side in plus, minus:
        lo, hi = [0] * nvars, [0] * nvars
        for f, a in side:
            f_lo, f_hi = _exponent_bounds(f.terms)
            lo = [s + a * e for s, e in zip(lo, f_lo)]
            hi = [s + a * e for s, e in zip(hi, f_hi)]
        sides.append((lo, hi))
    (p_lo, p_hi), (m_lo, m_hi) = sides
    lo = list(map(min, p_lo, m_lo))
    hi = list(map(max, p_hi, m_hi))
    base = 1 + max(map(sub, hi, lo))
    weights = _weights(base, nvars)
    num = _packed_side(plus, weights)
    get = num.get
    for key, c in _packed_side(minus, weights).items():
        num[key] = get(key, 0) + c

    def fail() -> NotDivisible:
        return NotDivisible(
            f"the exchange relation is not divisible by {x.canonical_string()!r}"
        )

    return LaurentPoly._trusted(nvars, _packed_quotient(num, x, lo, hi, base, weights, fail))


def _terms_bound(side: list[tuple[LaurentPoly, int]]) -> int:
    """prod |f|^a over the side's pairs (f, a).

    It bounds the terms of the side's product and the term pairs of
    every multiplication that forms it.
    """
    out = 1
    for f, a in side:
        out *= len(f.terms) ** a
    return out


def _product(side: list[tuple[LaurentPoly, int]], nvars: int) -> LaurentPoly:
    """prod f^a over the side, through LaurentPoly.pow and __mul__."""
    out = None
    for f, a in side:
        f = f.pow(a)
        out = f if out is None else out * f
    return LaurentPoly.one(nvars) if out is None else out


def _packed_side(side: list[tuple[LaurentPoly, int]], weights: list[int]) -> Dict[int, int]:
    """prod f^a over the side on packed keys; a new map the caller may consume."""
    out = None
    for f, a in side:
        g = _packed(f.terms, weights)
        power = None
        while True:
            if a & 1:
                power = g if power is None else _packed_product(power, g)
            a >>= 1
            if not a:
                break
            g = _packed_square(g)
        out = power if out is None else _packed_product(out, power)
    return {0: 1} if out is None else out


def generators(nvars: int) -> tuple[LaurentPoly, ...]:
    """The tuple (x_1, ..., x_n)."""
    return tuple(LaurentPoly.generator(nvars, i) for i in range(1, nvars + 1))
