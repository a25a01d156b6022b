"""Definitions by listing that the tests compare the package's counts against.

Nothing in the package calls these: each is the plain statement of an
object or statistic that a faster kernel counts without listing.
"""

from typing import Iterator

from pasep.paths import DOWN, UP, _check_dyck, motzkin_walks
from pasep.perms import Perm


def dyck_options(h: int) -> tuple[tuple[str, int], ...]:
    """The steps of a Dyck path at any height, for motzkin_walks."""
    return (UP, 1), (DOWN, -1)


def enumerate_dyck(n: int) -> Iterator[tuple[str, ...]]:
    """All Dyck paths with 2n steps."""
    return motzkin_walks(2 * n, dyck_options)


def peaks(steps) -> int:
    """Number of up-down factors of a Dyck path."""
    steps = _check_dyck(steps)
    return sum(1 for i in range(len(steps) - 1) if steps[i] == UP and steps[i + 1] == DOWN)


def is_fine(steps: tuple[str, ...]) -> bool:
    """No peak whose up step starts at height 0 (no Dyck factor split there)."""
    h = 0
    for i, s in enumerate(steps):
        if s == UP and h == 0 and i + 1 < len(steps) and steps[i + 1] == DOWN:
            return False
        h += 1 if s == UP else -1
    return True


def inverse(sigma: Perm) -> Perm:
    out = [0] * len(sigma)
    for i, v in enumerate(sigma, start=1):
        out[v - 1] = i
    return tuple(out)


def enumerate_alternating(n: int) -> Iterator[Perm]:
    """Down-up alternating permutations: sigma(1) > sigma(2) < sigma(3) > ..."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(prefix: list[int], used: int):
        k = len(prefix)
        if k == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used >> v & 1:
                continue
            if k >= 1:
                if k % 2 == 1 and not prefix[-1] > v:
                    continue
                if k % 2 == 0 and not prefix[-1] < v:
                    continue
            prefix.append(v)
            yield from rec(prefix, used | (1 << v))
            prefix.pop()

    return rec([], 0)
