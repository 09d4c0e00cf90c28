"""Exact integer arithmetic: rows of generalized binomials and dense integer polynomials.

Everything here is pure and overflow-free (Python ints). Polynomials are
stored as ascending-power coefficient tuples with trailing zeros trimmed,
so structural equality is polynomial equality and the zero polynomial is
the empty tuple.

`binomial_row` is the package's one binomial routine: the bound grid, the
closed forms of the divided difference and of general position, and the
chromatic kernel's powers (t - d)^e each read whole rows from it.

`Value` is the base of the package's immutable value types: IntPolynomial
here, SimpleGraph, Hyperplane and Arrangement elsewhere.
"""

from __future__ import annotations

from operator import attrgetter


def binomial_row(x: int, top: int) -> list[int]:
    """binom(x, k) for k = 0..top and any integer x, by binom(x, k+1) = binom(x, k) (x-k) / (k+1).

    binom(x, k) (x-k) is (k+1) binom(x, k+1), so each division is exact.
    """
    row = [1]
    for k in range(top):
        row.append(row[-1] * (x - k) // (k + 1))
    return row


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


class Value:
    """Immutable `__slots__` value: its fields are the subclass's `__slots__`, set once by `__init__`.

    Two values are equal when they are of the same class with equal fields,
    and the hash is the hash of the field tuple. Copies and pickles rebuild
    the value by calling the class on its fields, and the repr names every
    field.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # The field tuple; attrgetter of one name returns the bare value.
        cls._astuple = staticmethod(lambda o: (get(o),)) if len(cls.__slots__) == 1 else get

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple(self)))
        return f"{self.__class__.__name__}({body})"


class IntPolynomial(Value):
    """Dense integer polynomial, coefficients ascending by power of t. Immutable."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "coeffs", _trim(tuple(coeffs)))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> int:
        """Coefficient of t^power (0 beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __call__(self, t: int) -> int:
        """Exact evaluation at an integer argument (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "t" if power == 1 else f"t^{power}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)
