"""Exact message counts for permutation channels, plus asymptotic estimates.

Three numbers are attached to a group G acting on length-n strings over a
d-letter alphabet:

* ``N_c`` - classical zero-error messages: the number of orbits, i.e. the
  group average of d**c(sigma) (c = cycle count);
* ``N_q`` - ancilla-free quantum messages: the sum of irrep multiplicities of
  the position action, equal to the group average of d**c(sigma^2) whenever
  every irrep of G is real (totally orthogonal G), and to d**n for abelian G;
* ``N_a`` - ancilla-assisted messages: the sum of squared multiplicities,
  always the group average of d**(2 c(sigma)).

Everything here is arbitrary-precision integer arithmetic; rationals appear
only transiently inside cycle-index evaluation, and the asymptotic laws are
returned as exact fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import characters
from .errors import InexactDivisionError, NotTotallyOrthogonalError
from .perms import PermutationGroup, cycle_count_tally, make_named_group

METHOD_BURNSIDE = "burnside"
METHOD_POLYA_ANCILLA = "polya_ancilla"
METHOD_TOTALLY_ORTHOGONAL = "totally_orthogonal"
METHOD_CYCLIC = "cyclic_closed_form"
METHOD_DIHEDRAL = "dihedral_closed_form"
METHOD_SYMMETRIC = "symmetric_closed_form"
METHOD_ORACLE = "oracle"


@dataclass(frozen=True)
class CountReport:
    """Exact message counts with per-value method provenance.

    ``n_q`` is None when no implemented formula applies to the group and the
    multiplicity oracle was not run.
    """

    n: int
    d: int
    n_c: int
    n_a: int
    n_c_method: str
    n_a_method: str
    n_q: int | None = None
    n_q_method: str | None = None
    n_q_reason: str | None = None

    @property
    def n_q_defined(self) -> bool:
        return self.n_q is not None

    def __post_init__(self):
        full = self.d**self.n
        if not 0 < self.n_c <= self.n_a <= full * full:
            raise ValueError("count hierarchy N_c <= N_a <= d**2n violated")
        if self.n_q is not None and not self.n_c <= self.n_q <= min(full, self.n_a):
            raise ValueError("count hierarchy N_c <= N_q <= min(d**n, N_a) violated")


def _group_average(group: PermutationGroup, d: int, *, power: int = 1, squares: bool = False) -> int:
    """Average of d**(power * c(sigma)), or with c(sigma**2), over the group, from its cycle-count tally."""
    if d < 1:
        raise ValueError(f"alphabet size must be >= 1, got {d}")
    tally = cycle_count_tally(group, squares=squares)
    total = sum(count * d ** (power * c) for c, count in enumerate(tally))
    value, remainder = divmod(total, len(group))
    if remainder:
        raise InexactDivisionError(
            f"sum {total} is not divisible by the group order {len(group)}"
        )
    return value


def count_classical_burnside(group: PermutationGroup, d: int) -> int:
    """Number of orbits: average of d**c(sigma) over the group."""
    return _group_average(group, d)


def count_ancilla_polya(group: PermutationGroup, d: int) -> int:
    """Sum of squared multiplicities: average of d**(2 c(sigma))."""
    return _group_average(group, d, power=2)


def count_quantum_totally_orthogonal(group: PermutationGroup, d: int, *, certify: bool = True) -> int:
    """Sum of multiplicities via the squared-element average of d**c(sigma^2).

    Valid only for totally orthogonal groups; with ``certify`` the
    Frobenius-Schur indicators are checked first, otherwise the caller
    asserts total orthogonality.
    """
    if certify:
        fs = characters.frobenius_schur_indicators(group).values
        if any(v != 1 for v in fs):
            raise NotTotallyOrthogonalError(f"indicators {list(fs)} are not all +1")
    return _group_average(group, d, squares=True)


def count_cyclic(n: int, d: int) -> CountReport:
    """Closed forms for the cyclic group: gcd cycle counts, N_q = d**n."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    n_c = _exact_div(sum(d ** math.gcd(k, n) for k in range(n)), n)
    n_a = _exact_div(sum(d ** (2 * math.gcd(k, n)) for k in range(n)), n)
    return CountReport(
        n=n,
        d=d,
        n_c=n_c,
        n_a=n_a,
        n_q=d**n,
        n_c_method=METHOD_CYCLIC,
        n_a_method=METHOD_CYCLIC,
        n_q_method=METHOD_CYCLIC,
    )


def count_dihedral(n: int, d: int) -> CountReport:
    """Closed forms for the dihedral group (n >= 3).

    The reflection contribution to N_c is (n/2) d**(n/2) (d+1) for even n and
    n d**((n+1)/2) for odd n; N_a replaces d by d**2; N_q adds the d**n / 2
    reflection term to a gcd sum over doubled (even n) rotation indices.
    For n in {1, 2} the faithful position action degenerates, so the generic
    group-average path on the generated image group is used instead.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if n < 3:
        group = make_named_group("dihedral", n)
        return CountReport(
            n=n,
            d=d,
            n_c=count_classical_burnside(group, d),
            n_a=count_ancilla_polya(group, d),
            n_q=count_quantum_totally_orthogonal(group, d),
            n_c_method=METHOD_BURNSIDE,
            n_a_method=METHOD_POLYA_ANCILLA,
            n_q_method=METHOD_TOTALLY_ORTHOGONAL,
        )

    def reflections(alphabet: int) -> int:
        if n % 2 == 0:
            return (n // 2) * alphabet ** (n // 2) * (alphabet + 1)
        return n * alphabet ** ((n + 1) // 2)

    rotations_c = sum(d ** math.gcd(k, n) for k in range(n))
    rotations_a = sum((d * d) ** math.gcd(k, n) for k in range(n))
    n_c = _exact_div(rotations_c + reflections(d), 2 * n)
    n_a = _exact_div(rotations_a + reflections(d * d), 2 * n)
    doubling = 2 if n % 2 == 0 else 1
    n_q = _exact_div(n * d**n + sum(d ** math.gcd(doubling * k, n) for k in range(n)), 2 * n)
    return CountReport(
        n=n,
        d=d,
        n_c=n_c,
        n_a=n_a,
        n_q=n_q,
        n_c_method=METHOD_DIHEDRAL,
        n_a_method=METHOD_DIHEDRAL,
        n_q_method=METHOD_DIHEDRAL,
    )


def count_symmetric(n: int, d: int) -> CountReport:
    """Closed forms for the symmetric group: stars and bars, series coefficient."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return CountReport(
        n=n,
        d=d,
        n_c=math.comb(n + d - 1, n),
        n_a=math.comb(n + d * d - 1, n),
        n_q=series_coefficient_nq(n, d),
        n_c_method=METHOD_SYMMETRIC,
        n_a_method=METHOD_SYMMETRIC,
        n_q_method=METHOD_SYMMETRIC,
    )


def count_report(
    group: PermutationGroup,
    d: int,
    *,
    oracle_max_order: int = characters.DEFAULT_MAX_GROUP_ORDER,
) -> CountReport:
    """Generic counts for an explicit group, using group averages throughout.

    N_q resolution order: d**n for the cyclic kind; the squared-element
    average for certified totally orthogonal groups; otherwise the
    multiplicity oracle when the character table fits the bound, else
    undefined.
    """
    n_c = count_classical_burnside(group, d)
    n_a = count_ancilla_polya(group, d)
    n_q = n_q_method = n_q_reason = None
    if group.kind == "cyclic":
        n_q, n_q_method = d**group.degree, METHOD_CYCLIC
    elif len(group) <= oracle_max_order:
        table = characters.character_table(group, max_order=oracle_max_order)
        if characters.is_totally_orthogonal(group, table):
            n_q = count_quantum_totally_orthogonal(group, d, certify=False)
            n_q_method = METHOD_TOTALLY_ORTHOGONAL
        else:
            n_q = characters.nq_oracle(group, d, table=table)
            n_q_method = METHOD_ORACLE
    else:
        n_q_reason = f"group order {len(group)} exceeds the oracle bound {oracle_max_order}"
    return CountReport(
        n=group.degree,
        d=d,
        n_c=n_c,
        n_a=n_a,
        n_q=n_q,
        n_c_method=METHOD_BURNSIDE,
        n_a_method=METHOD_POLYA_ANCILLA,
        n_q_method=n_q_method,
        n_q_reason=n_q_reason,
    )


def _exact_div(total: int, divisor: int) -> int:
    value, remainder = divmod(total, divisor)
    if remainder:
        raise InexactDivisionError(f"{total} is not divisible by {divisor}")
    return value


def partitions(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Partitions of n as ((part, multiplicity), ...) with parts descending."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for mult in range(remaining // part, 0, -1):
                for rest in rec(remaining - part * mult, part - 1):
                    yield ((part, mult),) + rest

    return rec(n, n)


def symmetric_class_size(partition: Sequence[tuple[int, int]], n: int) -> int:
    """Number of permutations in S_n with the given cycle type."""
    total = sum(part * mult for part, mult in partition)
    if total != n:
        raise ValueError(f"partition {partition} does not sum to {n}")
    denom = 1
    for part, mult in partition:
        denom *= math.factorial(mult) * part**mult
    return math.factorial(n) // denom


def cycle_index_symmetric(n: int, a: Sequence) -> Fraction:
    """Cycle index of S_n evaluated at a[0..n-1], by partition summation.

    Each partition contributes prod a_k**m_k weighted by 1 / prod(m_k! k**m_k);
    no element enumeration takes place.
    """
    if len(a) < n:
        raise ValueError(f"need at least {n} variable values, got {len(a)}")
    total = Fraction(0)
    for partition in partitions(n):
        numerator = Fraction(1)
        denominator = 1
        for part, mult in partition:
            numerator *= Fraction(a[part - 1]) ** mult
            denominator *= math.factorial(mult) * part**mult
        total += numerator / denominator
    return total


def series_coefficient_nq(n: int, d: int) -> int:
    """Coefficient of x**n in (1-x)**(-d(d+1)/2) (1+x)**(-d(d-1)/2).

    Exact convolution of the two generalized binomial series; equals the
    cycle index of S_n at (d, d**2, d, d**2, ...).
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    plus = d * (d + 1) // 2
    minus = d * (d - 1) // 2
    first = [math.comb(plus + j - 1, j) for j in range(n + 1)]
    # (1+x)**0 degenerates to the constant series [1, 0, 0, ...].
    second = [1] + [(-1) ** j * math.comb(minus + j - 1, j) if minus else 0 for j in range(1, n + 1)]
    return sum(first[j] * second[n - j] for j in range(n + 1))


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Leading-order estimate of a count; advisory, never used in exact paths."""

    formula: str
    leading_value: Fraction

    def __float__(self) -> float:
        return float(self.leading_value)


ASYMPTOTIC_KINDS = (
    "cyclic_Nc",
    "cyclic_Na",
    "dihedral_Nc",
    "dihedral_Nq",
    "dihedral_Na",
    "symmetric_Nc",
    "symmetric_Nq",
    "symmetric_Na",
)


def asymptotic_estimate(kind: str, n: int, d: int) -> AsymptoticEstimate:
    """Leading asymptotic law as an exact fraction (all eight laws are rational)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    half_plus = d * (d + 1) // 2
    half_minus = d * (d - 1) // 2
    laws = {
        "cyclic_Nc": lambda: Fraction(d**n, n),
        "cyclic_Na": lambda: Fraction(d ** (2 * n), n),
        "dihedral_Nc": lambda: Fraction(d**n, 2 * n),
        "dihedral_Nq": lambda: Fraction(d**n, 2),
        "dihedral_Na": lambda: Fraction(d ** (2 * n), 2 * n),
        "symmetric_Nc": lambda: Fraction(n ** (d - 1), math.factorial(d - 1)),
        "symmetric_Nq": lambda: Fraction(
            n ** (half_plus - 1), 2**half_minus * math.factorial(half_plus - 1)
        ),
        "symmetric_Na": lambda: Fraction(n ** (d * d - 1), math.factorial(d * d - 1)),
    }
    if kind not in laws:
        raise ValueError(f"unknown asymptotic kind {kind!r}; expected one of {ASYMPTOTIC_KINDS}")
    return AsymptoticEstimate(kind, laws[kind]())
