"""Zero-error quantum message bases for cyclic permutation channels.

Each orbit of the one-step rotation r carries a Fourier basis

    |u_k> = (1/sqrt(n_j)) * sum_l w**(-k*l) U(r**l)|rep>,   w = exp(2 pi i / n_j),

so that U(r)|u_k> = w**(+k) |u_k>.  Phase convention: the minus sign sits in
the construction sum and the eigenphase exponent is positive; the sector
label mu is defined through the eigenphase exp(2 pi i mu / n), i.e.
mu = (n / n_j) * k mod n.  Flipping this sign silently permutes the sector
labels, so it is fixed here once and for all.

Message ordering is ascending mu, then ascending orbit representative, which
makes encode/decode deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .characters import unit_root
from .counting import count_cyclic
from .errors import StateSpaceBoundError
from .perms import (
    DEFAULT_MAX_STATES,
    ColoredString,
    Orbit,
    Permutation,
    PermutationGroup,
    make_named_group,
    orbits,
)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Sparse complex state over the d**n computational basis strings."""

    n: int
    d: int
    amplitudes: dict[int, complex] = field(default_factory=dict)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.amplitudes))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "StateVector":
        norm = self.norm()
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n, self.d, {k: v / norm for k, v in self.amplitudes.items()})

    def dense(self) -> np.ndarray:
        out = np.zeros(self.d**self.n, dtype=complex)
        for ix, amp in self.amplitudes.items():
            out[ix] = amp
        return out

    def inner(self, other: "StateVector") -> complex:
        small, big = self.amplitudes, other.amplitudes
        if len(big) < len(small):
            return other.inner(self).conjugate()
        return sum(amp.conjugate() * big.get(ix, 0j) for ix, amp in small.items())

    @staticmethod
    def basis_state(x: ColoredString) -> "StateVector":
        return StateVector(x.n, x.d, {x.index: 1.0 + 0.0j})

    def json_entries(self) -> list[dict]:
        """Amplitudes in lexicographic basis-string order."""
        return [
            {
                "basis_string": str(ColoredString.from_index(ix, self.n, self.d)),
                "re": float(self.amplitudes[ix].real),
                "im": float(self.amplitudes[ix].imag),
            }
            for ix in self.support
        ]


@dataclass(frozen=True, eq=False)
class FourierState:
    """One rotation eigenvector supported on a single orbit."""

    state: StateVector
    orbit_index: int
    fourier_index: int
    irrep_label: int


@dataclass(frozen=True, eq=False)
class MessageBasis:
    """The full orthonormal encoding basis, grouped by sector label mu."""

    n: int
    d: int
    group: PermutationGroup
    entries: tuple[tuple[int, int, StateVector], ...]  # (mu, alpha, state)
    multiplicities: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def state(self, mu: int, alpha: int) -> StateVector:
        offset = sum(self.multiplicities[:mu])
        entry = self.entries[offset + alpha]
        if entry[0] != mu or entry[1] != alpha:
            raise IndexError(f"no entry ({mu}, {alpha})")
        return entry[2]

    def dense_matrix(self) -> np.ndarray:
        """d**n x len matrix whose columns are the basis states."""
        out = np.zeros((self.d**self.n, len(self.entries)), dtype=complex)
        for col, (_mu, _alpha, state) in enumerate(self.entries):
            for ix, amp in state.amplitudes.items():
                out[ix, col] = amp
        return out


def fkm_representatives(n: int, d: int, *, max_count: int = DEFAULT_MAX_STATES) -> list[ColoredString]:
    """One lexicographically minimal representative per rotation orbit, in order.

    Standard prenecklace recursion: a prefix a[1..t] is extended keeping its
    current period p, and a completed string is emitted iff p divides n.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    expected = count_cyclic(n, d).n_c
    if expected > max_count:
        raise StateSpaceBoundError(f"{expected} representatives exceed the bound {max_count}")
    a = [0] * (n + 1)
    out: list[ColoredString] = []

    def gen(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.append(ColoredString(tuple(a[1 : n + 1]), d))
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for symbol in range(a[t - p] + 1, d):
            a[t] = symbol
            gen(t + 1, t)

    gen(1, 1)
    return out


def irrep_label(orbit: Orbit, k: int) -> int:
    """Sector label mu = (n / n_j) * k mod n of the k-th Fourier state."""
    if not 0 <= k < orbit.size:
        raise ValueError(f"fourier index {k} out of range for orbit size {orbit.size}")
    return (orbit.n // orbit.size) * k % orbit.n


def _rotation_walk(orbit: Orbit, rotation: Permutation, d: int) -> list[int]:
    """Orbit members in rotation order starting from the representative."""
    step = np.array(rotation.inverse().images, dtype=np.int64)
    powers = [np.arange(len(step))]  # inverse images of rotation**0 .. rotation**size
    for _ in range(orbit.size):
        powers.append(step[powers[-1]])
    walk = kernels.move_indices(np.array(powers), [orbit.representative.index], d)[:, 0].tolist()
    if walk[-1] != walk[0]:
        raise ValueError("orbit does not close after size steps; not a rotation orbit")
    return walk[:-1]


def orbit_fourier_basis(orbit: Orbit, n: int, d: int) -> list[FourierState]:
    """The n_j orthonormal rotation eigenvectors supported on one orbit."""
    if orbit.period_factor is None:
        raise ValueError("orbit was not computed under a cyclic group")
    rotation = Permutation(tuple((i + 1) % n for i in range(n)))
    walk = _rotation_walk(orbit, rotation, d)
    size = orbit.size
    scale = 1.0 / math.sqrt(size)
    states = []
    for k in range(size):
        amplitudes = {walk[l]: unit_root(size, -k * l) * scale for l in range(size)}
        states.append(
            FourierState(
                state=StateVector(n, d, amplitudes),
                orbit_index=orbit.index,
                fourier_index=k,
                irrep_label=irrep_label(orbit, k),
            )
        )
    return states


def message_basis_cyclic(n: int, d: int, *, max_states: int = DEFAULT_MAX_STATES) -> MessageBasis:
    """All d**n encoding states for the cyclic channel, grouped by sector."""
    group = make_named_group("cyclic", n)
    fourier_states: list[FourierState] = []
    for orbit in orbits(group, d, max_states=max_states):
        fourier_states.extend(orbit_fourier_basis(orbit, n, d))
    fourier_states.sort(key=lambda fs: (fs.irrep_label, fs.orbit_index))
    multiplicities = [0] * n
    entries = []
    for fs in fourier_states:
        mu = fs.irrep_label
        entries.append((mu, multiplicities[mu], fs.state))
        multiplicities[mu] += 1
    if len(entries) != d**n:
        raise ValueError(f"built {len(entries)} states, expected d**n = {d**n}")
    return MessageBasis(n, d, group, tuple(entries), tuple(multiplicities))


def encode_message(basis: MessageBasis, message_index: int) -> StateVector:
    """Basis entry at the canonical position (mu ascending, then orbit)."""
    if not 0 <= message_index < len(basis.entries):
        raise IndexError(f"message index {message_index} out of range 0..{len(basis.entries) - 1}")
    return basis.entries[message_index][2]


def basis_json(basis: MessageBasis) -> dict:
    """JSON payload for a whole basis; amplitudes per state in lex order."""
    return {
        "group": basis.group.kind,
        "n": basis.n,
        "d": basis.d,
        "multiplicities": list(basis.multiplicities),
        "entries": [
            {"mu": mu, "alpha": alpha, "amplitudes": state.json_entries()}
            for mu, alpha, state in basis.entries
        ],
    }


def write_basis_json(basis: MessageBasis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(basis_json(basis), fh, indent=1)
        fh.write("\n")
