"""Exact integer Laurent-polynomial arithmetic in n variables.

Values are immutable.  A polynomial is a finite map from exponent
vectors (tuples of ints, possibly negative) to nonzero integer
coefficients; the zero polynomial is the empty map.

The map is stored with each exponent vector packed into one int for the
life of the polynomial (Kronecker substitution with a fixed base): the
exponent e of variable i becomes the 15-bit digit e + 2^14, variable 1
most significant, so every exponent lies in [-2^14, 2^14 - 1].  On that
range no digit carries, so packing is one-to-one, multiplying monomials
adds their ints (less the packed zero vector), and the order of the ints
is the lexicographic order of the vectors, a monomial order.  Equality
and hashing read the packed map; exponent tuples are decoded only where
they are printed or returned (terms, sorted_terms, canonical_string,
pretty) and where a sum loses a term (its box, below).

Each polynomial also keeps its box, the componentwise minimum and
maximum of its exponents (all zeros for the zero polynomial), and every
operation keeps it exact: a product's box is the sum of its factors'
boxes (extreme faces multiply in an integral domain), a quotient's is
the numerator's less the divisor's, and a sum's is the union of its
operands' unless a term cancels, when it is recomputed.  Every box a
constructor, product, shift or quotient would produce is checked against
the digit range before any key is formed, and one that leaves it raises
ValueError instead of wrapping.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, sub
from typing import Any, Callable, Dict, Iterable, Mapping, Sequence, Tuple

from .errors import NotDivisible

Exponent = Tuple[int, ...]

_DIGIT = 15
_MASK = (1 << _DIGIT) - 1
_OFFSET = 1 << (_DIGIT - 1)
_MIN_EXP, _MAX_EXP = -_OFFSET, _OFFSET - 1


def _require_int(x: Any, what: str) -> None:
    # bool is an int subclass; floats and strings are not coerced
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")


def _require_nvars(nvars: Any) -> None:
    _require_int(nvars, "variable count")
    if nvars < 0:
        raise ValueError("variable count must be nonnegative")


def _require_exponent(exp: Any, nvars: int, what: str) -> Exponent:
    """exp as a tuple of nvars ints, or raise ValueError."""
    try:
        exp = tuple(exp)
    except TypeError:
        raise ValueError(f"{what} {exp!r} is not a sequence") from None
    if len(exp) != nvars:
        raise ValueError(f"{what} {exp!r} has length {len(exp)}, expected {nvars}")
    for e in exp:
        _require_int(e, "exponent")
    return exp


def _check_box(lo: Exponent, hi: Exponent, what: str) -> None:
    if lo and (min(lo) < _MIN_EXP or max(hi) > _MAX_EXP):
        raise ValueError(
            f"{what} spans exponents {lo} to {hi}, outside [{_MIN_EXP}, {_MAX_EXP}]"
        )


def _origin(nvars: int) -> int:
    """The packed key of the zero exponent vector."""
    return _OFFSET * ((1 << (_DIGIT * nvars)) - 1) // _MASK


def _delta(exp: Iterable[int]) -> int:
    """sum(e_i * 2^(15(n-i))): what adding exp does to a packed key."""
    out = 0
    for e in exp:
        out = (out << _DIGIT) + e
    return out


def _decoder(nvars: int) -> Callable[[int], Exponent]:
    shifts = range(_DIGIT * (nvars - 1), -1, -_DIGIT)
    return lambda k: tuple([((k >> s) & _MASK) - _OFFSET for s in shifts])


def _bounds(exps: Iterable[Exponent], nvars: int) -> tuple[Exponent, Exponent]:
    """Componentwise minimum and maximum of the vectors (zeros if there are none)."""
    cols = list(zip(*exps))
    if not cols:
        return (0,) * nvars, (0,) * nvars
    return tuple(map(min, cols)), tuple(map(max, cols))


class LaurentPoly:
    """An integer Laurent polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "_terms", "_lo", "_hi", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, int] | None = None):
        _require_nvars(nvars)
        clean: Dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                _require_int(coeff, "coefficient")
                exp = _require_exponent(exp, nvars, "exponent vector")
                if coeff:
                    clean[exp] = coeff
        lo, hi = _bounds(clean, nvars)
        _check_box(lo, hi, "a polynomial")
        origin = _origin(nvars)
        self.nvars = nvars
        self._terms = {_delta(exp) + origin: c for exp, c in clean.items()}
        self._lo = lo
        self._hi = hi
        self._hash: int | None = None

    @classmethod
    def _trusted(
        cls, nvars: int, terms: Dict[int, int], lo: Exponent, hi: Exponent
    ) -> "LaurentPoly":
        """Wrap packed terms with no zero coefficients and their exact, in-range box."""
        p = object.__new__(cls)
        p.nvars = nvars
        p._terms = terms
        p._lo = lo
        p._hi = hi
        p._hash = None
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 0)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPoly":
        _require_nvars(nvars)
        _require_int(c, "coefficient")
        zeros = (0,) * nvars
        return cls._trusted(nvars, {_origin(nvars): c} if c else {}, zeros, zeros)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exp: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(exp): coeff})

    @classmethod
    def generator(cls, nvars: int, i: int) -> "LaurentPoly":
        """The variable x_i, 1-based."""
        _require_int(i, "generator index")
        if not 1 <= i <= nvars:
            raise ValueError(f"generator index {i} out of range [1,{nvars}]")
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> Dict[Exponent, int]:
        """A freshly decoded copy of the term map: editing it changes nothing here."""
        decode = _decoder(self.nvars)
        return {decode(k): c for k, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {_origin(self.nvars): 1}

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        decode = _decoder(self.nvars)
        return [(decode(k), c) for k, c in sorted(self._terms.items())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self._terms.items())))
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
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        get = out.get
        cancelled = False
        for k, c in other._terms.items():
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
                cancelled = True
        if cancelled:
            lo, hi = _bounds(map(_decoder(self.nvars), out), self.nvars)
        else:
            lo = tuple(map(min, self._lo, other._lo))
            hi = tuple(map(max, self._hi, other._hi))
        return LaurentPoly._trusted(self.nvars, out, lo, hi)

    def __neg__(self) -> "LaurentPoly":
        return self.scale(-1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        small, big = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        if not small._terms:
            return small
        lo = tuple(map(add, small._lo, big._lo))
        hi = tuple(map(add, small._hi, big._hi))
        _check_box(lo, hi, "a product")
        origin = _origin(self.nvars)
        if len(small._terms) == 1:
            ((ks, cs),) = small._terms.items()
            ks -= origin
            if not ks and cs == 1:
                return big
            out = {k + ks: c * cs for k, c in big._terms.items()}
        elif small is big:
            out = _square_terms(small._terms, origin)
        else:
            out = _product_terms(small._terms, big._terms, origin)
        return LaurentPoly._trusted(self.nvars, out, lo, hi)

    def scale(self, c: int) -> "LaurentPoly":
        _require_int(c, "coefficient")
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly._trusted(
            self.nvars, {k: c * v for k, v in self._terms.items()}, self._lo, self._hi
        )

    def shift(self, exp: Exponent) -> "LaurentPoly":
        """Multiply by the monomial x^exp."""
        exp = _require_exponent(exp, self.nvars, "shift")
        if not self._terms:
            return self
        lo = tuple(map(add, self._lo, exp))
        hi = tuple(map(add, self._hi, exp))
        _check_box(lo, hi, "a shift")
        d = _delta(exp)
        return LaurentPoly._trusted(
            self.nvars, {k + d: c for k, c in self._terms.items()}, lo, hi
        )

    def pow(self, k: int) -> "LaurentPoly":
        _require_int(k, "power")
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
        return self._lo

    def max_exponents(self) -> Exponent:
        return self._hi

    def all_coefficients_positive(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    # -- canonical serialization ------------------------------------

    def canonical_string(self) -> str:
        """Bit-exact key: terms "coeff:e1,...,en" sorted by exponent, ';'-joined."""
        return ";".join(f"{c}:{','.join(map(str, e))}" for e, c in self.sorted_terms())

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
        if not self._terms:
            return "0"
        den_exp = tuple(-min(m, 0) for m in self._lo)
        num = self.shift(den_exp)
        num_str = _format_positive_part(num, names)
        if all(d == 0 for d in den_exp):
            return num_str
        den_str = _format_monomial(den_exp, 1, names)
        if len(num._terms) > 1:
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


def _product_terms(a: Mapping[int, int], b: Mapping[int, int], origin: int) -> Dict[int, int]:
    """The packed terms of a times b, zeros dropped."""
    b_items = [(kb - origin, cb) for kb, cb in b.items()]
    out: Dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return _nonzero(out)


def _square_terms(a: Mapping[int, int], origin: int) -> Dict[int, int]:
    """_product_terms(a, a, origin), visiting each unordered pair of terms once."""
    items = list(a.items())
    out: Dict[int, int] = {}
    get = out.get
    for i, (ka, ca) in enumerate(items):
        ka -= origin
        k = ka + ka + origin
        out[k] = get(k, 0) + ca * ca
        ca += ca
        for kb, cb in items[i + 1 :]:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return _nonzero(out)


def _nonzero(terms: Dict[int, int]) -> Dict[int, int]:
    return {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Return r with q*r == p, or raise NotDivisible.

    If r exists, its box is [lo, hi] = [p_lo - q_lo, p_hi - q_hi] (extreme
    faces multiply in an integral domain), so a box with a negative width
    means no quotient, and one outside the digit range raises ValueError.
    A monomial q then divides term by term.  Otherwise single-divisor
    division takes the largest remaining key from a max-heap each step.
    Every remainder key is a product of a term of q and a quotient term
    in [lo, hi], so its exponents stay in p's box and it is a valid key.
    The leading-term test is fail-fast and sound: over an integral
    domain the remainder q*(r - acc) always has leading term divisible
    by q's, so the first quotient term that leaves [lo, hi] or has a
    non-integer coefficient certifies there is no integer-coefficient
    quotient.  A candidate key minus the corner lo is decoded digit by
    digit; a borrow between digits always leaves the box, since the
    lowest borrowing digit wraps to at least 2^15 - deg_i(q), which
    exceeds the width hi_i - lo_i = (p_hi_i - p_lo_i) - deg_i(q) because
    p's widths are below 2^15.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable-count mismatch")
    if q.is_zero():
        raise ZeroDivisionError("exact_div by the zero polynomial")
    n = p.nvars
    if p.is_zero():
        return p

    def fail() -> NotDivisible:
        return NotDivisible(
            f"{p.canonical_string()!r} is not divisible by {q.canonical_string()!r}"
        )

    lo = tuple(map(sub, p._lo, q._lo))
    hi = tuple(map(sub, p._hi, q._hi))
    origin = _origin(n)
    if len(q._terms) == 1:
        _check_box(lo, hi, "a quotient")
        ((kq, cq),) = q._terms.items()
        if cq != 1 and any(c % cq for c in p._terms.values()):
            raise fail()
        d = origin - kq
        return LaurentPoly._trusted(n, {k + d: c // cq for k, c in p._terms.items()}, lo, hi)
    widths = [h - l for l, h in zip(lo, hi)]
    if min(widths) < 0:
        raise fail()
    _check_box(lo, hi, "a quotient")
    den = sorted(q._terms.items(), reverse=True)
    lead_key, lead_coeff = den[0]
    den_rest = [(k - origin, c) for k, c in den[1:]]
    to_quotient = origin - lead_key
    to_corner = to_quotient - origin - _delta(lo)
    widths.reverse()
    rem = dict(p._terms)
    # Every key in rem has exactly one heap entry; cancelled terms stay
    # in rem as zeros until their entry is popped.
    heap = [-k for k in rem]
    heapify(heap)
    quot: Dict[int, int] = {}
    get, pop, push, mask, digit = rem.get, rem.pop, heappush, _MASK, _DIGIT
    while heap:
        k = -heappop(heap)
        c = pop(k)
        if not c:
            continue
        if c % lead_coeff:
            raise fail()
        r = k + to_corner
        for w in widths:
            if r & mask > w:
                raise fail()
            r >>= digit
        if r:
            raise fail()
        t = k + to_quotient
        tc = c // lead_coeff
        quot[t] = tc
        for dk, dc in den_rest:
            key = dk + t
            old = get(key)
            if old is None:
                rem[key] = -tc * dc
                push(heap, -key)
            else:
                rem[key] = old - tc * dc
    return LaurentPoly._trusted(n, quot, lo, hi)


def exchange_relation(
    plus: Sequence[tuple[LaurentPoly, int]],
    minus: Sequence[tuple[LaurentPoly, int]],
    x: LaurentPoly,
) -> LaurentPoly:
    """(prod f^a over plus + prod f^a over minus) / x, or raise NotDivisible.

    With plus the pairs (x_i, b_ik) for b_ik > 0, minus the pairs
    (x_i, -b_ik) for b_ik < 0 and x = x_k, this is the exchange relation
    x'_k = (prod_i x_i^[b_ik]_+ + prod_i x_i^[-b_ik]_+) / x_k; an empty
    side is the empty product 1.  Powers square at half cost through
    LaurentPoly.pow.
    """
    nvars = x.nvars
    return exact_div(_product(plus, nvars) + _product(minus, nvars), x)


def _product(side: Sequence[tuple[LaurentPoly, int]], nvars: int) -> LaurentPoly:
    """prod f^a over the side, through LaurentPoly.pow and __mul__."""
    out = None
    for f, a in side:
        f = f.pow(a)
        out = f if out is None else out * f
    return LaurentPoly.one(nvars) if out is None else out


def generators(nvars: int) -> tuple[LaurentPoly, ...]:
    """The tuple (x_1, ..., x_n)."""
    return tuple(LaurentPoly.generator(nvars, i) for i in range(1, nvars + 1))
