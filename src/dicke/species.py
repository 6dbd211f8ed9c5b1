"""Single-particle spin species and exact half-integer bookkeeping.

Every angular-momentum quantum number in this package is stored as *twice*
its physical value, so spin-3/2 magnetizations such as M = 7/2 are plain
integers and no fractional arithmetic ever happens.
"""

from __future__ import annotations

from collections import namedtuple


class DomainError(ValueError):
    """An operation was requested outside its physical domain."""


_SPIN_BY_NAME = {"1/2": 1, "1": 2, "3/2": 3, "2": 4}
_NAME_BY_SPIN = {v: k for k, v in _SPIN_BY_NAME.items()}


class SpinSpecies(namedtuple("SpinSpecies", "twice_spin")):
    """One of the supported single-particle spins s in {1/2, 1, 3/2, 2}.

    An immutable value, equal, ordered and hashed by `twice_spin`.
    """

    __slots__ = ()

    def __new__(cls, twice_spin: int) -> SpinSpecies:
        if twice_spin not in _NAME_BY_SPIN:
            raise DomainError(f"unsupported spin: 2s = {twice_spin}")
        return super().__new__(cls, twice_spin)

    @classmethod
    def from_str(cls, text: str) -> "SpinSpecies":
        try:
            return cls(_SPIN_BY_NAME[text.strip()])
        except KeyError:
            raise DomainError(
                f"unknown spin {text!r}; expected one of {sorted(_SPIN_BY_NAME)}"
            ) from None

    @property
    def name(self) -> str:
        return _NAME_BY_SPIN[self.twice_spin]

    @property
    def n_levels(self) -> int:
        return self.twice_spin + 1

    @property
    def twice_levels(self) -> tuple[int, ...]:
        """Magnetic numbers 2m, ordered from +2s down to -2s."""
        return tuple(range(self.twice_spin, -self.twice_spin - 2, -2))

    def level_labels(self) -> tuple[str, ...]:
        """Column headers n_+s, ..., n_-s for occupation output."""
        labels = []
        for tm in self.twice_levels:
            text = twice_to_str(tm)
            if tm > 0:
                text = "+" + text
            labels.append("n_" + text)
        return tuple(labels)


SPIN_HALF = SpinSpecies(1)
SPIN_ONE = SpinSpecies(2)
SPIN_THREE_HALVES = SpinSpecies(3)
SPIN_TWO = SpinSpecies(4)
ALL_SPECIES = (SPIN_HALF, SPIN_ONE, SPIN_THREE_HALVES, SPIN_TWO)


def check_domain(species: SpinSpecies, n_particles: int, twice_m: int) -> None:
    """Reject (N, M) pairs with no occupation solutions at maximal spin."""
    if n_particles < 1:
        raise DomainError(f"need at least one particle, got N={n_particles}")
    twice_j = species.twice_spin * n_particles
    if abs(twice_m) > twice_j:
        raise DomainError(
            f"magnetization out of range: |M| = {abs(twice_m)}/2 exceeds "
            f"J = {twice_j}/2 for spin {species.name}, N={n_particles}"
        )
    if (twice_j - twice_m) % 2 != 0:
        raise DomainError(
            f"magnetization 2M={twice_m} has the wrong parity for "
            f"spin {species.name}, N={n_particles}"
        )


def twice_to_str(twice_value: int) -> str:
    """Render a doubled quantum number as '3', '-1' or '7/2'."""
    if twice_value % 2 == 0:
        return str(twice_value // 2)
    return f"{twice_value}/2"


def parse_twice(text: str) -> int:
    """Parse an integer or half-integer string ('-3', '7/2') to twice its value."""
    text = text.strip()
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        try:
            num, den = int(num_text), int(den_text)
        except ValueError:
            raise DomainError(f"not a (half-)integer: {text!r}") from None
        if den == 2:
            return num
        if den == 1:
            return 2 * num
        raise DomainError(f"denominator of {text!r} must be 1 or 2")
    try:
        return 2 * int(text)
    except ValueError:
        raise DomainError(f"not a (half-)integer: {text!r}") from None
