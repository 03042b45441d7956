"""Discretized compact parameter spaces: a loop or a two-torus.

Vertices carry angular coordinates; edges and plaquettes are oriented so
that every plaquette boundary is a closed edge cycle.  Plaquette
circulation is counterclockwise in (b1, b2); this orientation fixes the
sign of all lattice Chern numbers in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class BaseGrid:
    topology: str           # "loop" or "torus"
    size: int

    def __post_init__(self):
        if self.topology not in ("loop", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.size < 2:
            raise ValueError("grid size must be at least 2")

    @classmethod
    def loop(cls, m: int) -> "BaseGrid":
        return cls("loop", m)

    @classmethod
    def torus(cls, m: int) -> "BaseGrid":
        return cls("torus", m)

    @classmethod
    def parse(cls, text: str) -> "BaseGrid":
        kind, _, num = text.partition(":")
        return cls(kind, int(num))

    @property
    def is_torus(self) -> bool:
        return self.topology == "torus"

    @property
    def vertices(self) -> list[tuple[int, ...]]:
        m = self.size
        if self.is_torus:
            return [(i, j) for i in range(m) for j in range(m)]
        return [(i,) for i in range(m)]

    @cached_property
    def positions(self) -> dict[tuple[int, ...], int]:
        """Position of each vertex in ``vertices``."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Positions of the tail and the head of every edge, in the order
        of ``edges`` (2 x edges)."""
        at = self.positions
        return np.array([[at[a] for a, _ in self.edges],
                         [at[b] for _, b in self.edges]], dtype=int)

    @cached_property
    def plaquette_index(self) -> np.ndarray:
        """Positions of the corners of every plaquette, in the order of
        ``plaquettes`` and of ``plaquette_corners`` (plaquettes x 4)."""
        at = self.positions
        return np.array([[at[c] for c in self.plaquette_corners(p)]
                         for p in self.plaquettes], dtype=int).reshape(-1, 4)

    def coordinates(self, vertex) -> tuple[float, ...]:
        step = 2 * np.pi / self.size
        return tuple(step * c for c in vertex)

    @property
    def edges(self) -> list[tuple[tuple, tuple]]:
        m = self.size
        if self.is_torus:
            out = []
            for i in range(m):
                for j in range(m):
                    out.append(((i, j), ((i + 1) % m, j)))
                    out.append(((i, j), (i, (j + 1) % m)))
            return out
        return [((i,), ((i + 1) % m,)) for i in range(m)]

    @property
    def plaquettes(self) -> list[tuple[int, int]]:
        if not self.is_torus:
            return []
        m = self.size
        return [(i, j) for i in range(m) for j in range(m)]

    def plaquette_corners(self, plaquette) -> list[tuple[int, int]]:
        """Counterclockwise boundary cycle of the plaquette based at its
        lower-left vertex."""
        i, j = plaquette
        m = self.size
        return [(i, j), ((i + 1) % m, j), ((i + 1) % m, (j + 1) % m),
                (i, (j + 1) % m)]

    def check_consistency(self):
        """Closed plaquette boundaries and the Euler count of the
        topology."""
        v, e, f = len(self.vertices), len(self.edges), len(self.plaquettes)
        expected = 0  # both S^1 (v - e) and T^2 (v - e + f) have Euler number 0
        if v - e + f != expected:
            raise AssertionError(f"Euler count {v - e + f} != {expected}")
        for p in self.plaquettes:
            cs = self.plaquette_corners(p)
            if len(set(cs)) != 4:
                raise AssertionError(f"degenerate plaquette {p}")
            for a, b in zip(cs, cs[1:] + cs[:1]):
                diff = tuple((x - y) % self.size for x, y in zip(b, a))
                if diff not in ((1, 0), (0, 1), (self.size - 1, 0),
                                (0, self.size - 1)):
                    raise AssertionError(f"plaquette {p} boundary is not an "
                                         f"edge cycle")
