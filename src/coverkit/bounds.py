"""Closed-form size bounds evaluated at concrete parameters.

Every unbased logarithm in the source formulas is taken as base 2 (the
information-theoretic reading); natural log appears only inside the union
bound, which is stated with ln. Formulas that carry asymptotic terms
(o(d), o(1), Theta, Omega) are reported at leading order only, and the
report flags each such field so the caveat travels with the number.

Binomials are computed exactly in wide integers before converting to
double precision.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from functools import wraps
from math import comb, inf, log, log2
from typing import ClassVar

from .core import CffSpec, UniversalSpec
from .errors import DomainError

_ASYMPTOTIC_FIELDS = frozenset(
    {"kleitman_reference", "dyachkov", "entropy_form", "theorem1_target"}
)


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form size bounds evaluated at one parameter point.

    Unpopulated fields are None. ``asymptotic_caveat`` is derived, not
    passed: it names every populated field whose source formula hides an
    asymptotic term.
    """

    union_bound: float | None = None
    kleitman_reference: float | None = None
    nrs: float | None = None
    dyachkov: float | None = None
    entropy_form: float | None = None
    theorem1_target: float | None = None
    bshouty_baseline: float | None = None
    asymptotic_caveat: frozenset[str] = field(init=False)
    log_base: ClassVar[int] = 2  # every unbased log is base 2; not a field

    def __post_init__(self) -> None:
        for name, value in self.populated().items():
            if not (value > 0.0 and value != float("inf")):
                raise DomainError(f"bound {name} must be finite and positive, got {value}")
        flagged = _ASYMPTOTIC_FIELDS.intersection(self.populated())
        object.__setattr__(self, "asymptotic_caveat", flagged)

    def populated(self) -> dict[str, float]:
        """The bound fields, the constructor's, that are set, in declaration order."""
        bounds = (f.name for f in fields(self) if f.init)
        return {name: getattr(self, name) for name in bounds if getattr(self, name) is not None}


def binary_entropy(x: float) -> float:
    """Binary entropy -x log2 x - (1-x) log2(1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def nrs(r: int, s: int) -> float:
    """The base rate d * C(d, r) / log2 C(d, r) with d = r + s.

    Undefined when C(d, r) < 2 (r = 0 or s = 0), where the log vanishes, and
    a DomainError past the double range, found without C(d, r) once
    min(r, s) alone puts it there.
    """
    if r < 0 or s < 0:
        raise DomainError(f"r and s must be non-negative, got ({r}, {s})")
    d = r + s
    # Each of the min(r, s) factors (max(r, s) + i) / i of C(d, r) is at
    # least 2, so from 2**max_exp on the rate overflows without building it.
    rate = inf
    if min(r, s) < sys.float_info.max_exp:
        binom = comb(d, r)
        if binom < 2:
            raise DomainError(
                f"rate undefined for (r, s) = ({r}, {s}): log2 C({d}, {r}) = "
                f"log2 {binom} is not positive"
            )
        try:
            rate = d * float(binom) / log2(binom)
        except OverflowError:
            pass
    if rate == inf:
        raise DomainError(f"a bound at (r, s) = ({r}, {s}) exceeds the double range")
    return rate


def _in_domain(build):
    """``build``, raising DomainError for n < 2, where log n is not
    positive, and where a bound overflows a double."""

    @wraps(build)
    def report(spec):
        if spec.n < 2:
            raise DomainError(f"bounds need n >= 2 (log n > 0), got n={spec.n}")
        try:
            return build(spec)
        except OverflowError:
            raise DomainError(f"a bound at {spec} exceeds the double range") from None

    return report


@_in_domain
def universal_bounds_report(spec: UniversalSpec) -> BoundsReport:
    """Universal-set bounds at (n, d, q); the q = 2 reference lines
    (Kleitman, the d 2**d target, the Bshouty baseline) are omitted for
    larger alphabets."""
    n, d, q = spec.n, spec.d, spec.q
    union = d * float(q) ** d * (log(n / d) + log(q))
    kleitman = theorem1 = bshouty = None
    if q == 2:
        logn = log2(n)
        kleitman = 2.0**d * logn
        theorem1 = d * 2.0**d * logn
        bshouty = float(d) ** 5 * 2.0 ** (2.66 * d) * logn
    return BoundsReport(
        union_bound=union,
        kleitman_reference=kleitman,
        theorem1_target=theorem1,
        bshouty_baseline=bshouty,
    )


@_in_domain
def cff_bounds_report(spec: CffSpec) -> BoundsReport:
    """Cover-free bounds at (n, (r, s)): the base rate, its log n scaling,
    and the entropy form 2**(H2(r/d) d) log2 n."""
    n, r, s, d = spec.n, spec.r, spec.s, spec.d
    rate = nrs(r, s)  # raises for the degenerate r = 0 / s = 0 edges
    logn = log2(n)
    return BoundsReport(
        nrs=rate,
        dyachkov=rate * logn,
        entropy_form=2.0 ** (binary_entropy(r / d) * d) * logn,
    )
