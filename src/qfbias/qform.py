"""The quadratic form value type, kept free of numpy so that `limits` and
the command line's option parsing load no array layer."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QuadraticForm:
    """ax^2 + bxy + cy^2 with gcd(a,b,c) = 1, a > 0 and negative discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise ValueError(f"form ({self.a},{self.b},{self.c}) is not primitive")
        if self.disc >= 0 or self.a <= 0:
            raise ValueError(
                f"form ({self.a},{self.b},{self.c}) is not positive definite"
            )

    @property
    def disc(self) -> int:
        """Discriminant b^2 - 4ac (negative for valid forms)."""
        return self.b * self.b - 4 * self.a * self.c

    @property
    def D(self) -> int:
        """The positive quantity 4ac - b^2 = -disc."""
        return -self.disc

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"
