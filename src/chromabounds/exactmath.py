"""Exact integer arithmetic: generalized binomials and dense integer polynomials.

Everything here is pure and overflow-free (Python ints). Polynomials are
stored as ascending-power coefficient tuples with trailing zeros trimmed,
so structural equality is polynomial equality and the zero polynomial is
the empty tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantError


def binom(x: int, j: int) -> int:
    """Generalized binomial coefficient for integer x (possibly negative).

    Computed as the falling factorial x(x-1)...(x-j+1) / j!. Returns 0 for
    j < 0 by convention, 1 for j == 0. The product of j consecutive
    integers is divisible by j!, so the division is exact.
    """
    if j < 0:
        return 0
    if j == 0:
        return 1
    num = 1
    for i in range(j):
        num *= x - i
    return num // math.factorial(j)


def vandermonde_sum(x: int, y: int, k: int) -> int:
    """Direct summation of binom(x,i)*binom(y,k-i) over i = 0..k.

    Equals binom(x+y, k) by Vandermonde's identity; callers that want the
    identity checked should compare against binom(x+y, k) themselves.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return sum(binom(x, i) * binom(y, k - i) for i in range(k + 1))


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients ascending by power of t."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(tuple(int(c) for c in self.coeffs)))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @classmethod
    def term(cls, c: int, power: int) -> "IntPolynomial":
        """The monomial c * t^power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (c,))

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

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def divide_by_t_minus_1(self) -> "IntPolynomial":
        """Exact quotient by (t - 1); the input must be divisible.

        Synthetic division from the top coefficient down. A nonzero
        remainder means the caller failed to subtract p(1) first.
        """
        if self.is_zero():
            return self
        quotient = [0] * (len(self.coeffs) - 1)
        carry = 0
        for i in range(len(self.coeffs) - 1, 0, -1):
            carry = self.coeffs[i] + carry
            quotient[i - 1] = carry
        remainder = self.coeffs[0] + carry
        if remainder != 0:
            raise InvariantError(
                f"polynomial {self} is not divisible by (t - 1); remainder {remainder}"
            )
        return IntPolynomial(tuple(quotient))

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
