"""Diffeomorphism classes of compact oriented surfaces, and the surface errors.

This module holds what the group layers (``squares_k0`` and ``sk_groups``)
share with the triangulated surface calculus (``surface``) without needing
triangulations: ``DiffeoClass``, a multiset of connected types
(genus, boundary circles), and the ``SurfaceError`` family.  ``surface``
re-exports every name here, so ``surface.DiffeoClass`` and
``surface.NonSeparatingCut`` are these same objects; a caller that only
computes groups loads this module and never compiles ``surface``.
"""

from __future__ import annotations

from dataclasses import dataclass


class SurfaceError(ValueError):
    """Base class for domain errors in the surface calculus."""


class InvalidSurface(SurfaceError):
    pass


class NonSeparatingCut(SurfaceError):
    """Raised when a cut system fails to two-color the complement.

    For a single circle this means the two new boundary cycles would land
    in the same connected component; take a parallel copy (double_circle)
    and cut along the pair instead.
    """


class CircleTouchesBoundary(SurfaceError):
    pass


class LengthMismatch(SurfaceError):
    """Cycle lengths differ; refine_boundary can equalize them."""


class OrientationClash(SurfaceError):
    pass


@dataclass(frozen=True, order=True)
class DiffeoClass:
    """Multiset of connected-surface types (genus, boundary circles)."""

    components: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for g, b in self.components:
            if g < 0 or b < 0:
                raise ValueError("genus and boundary count must be nonnegative")
        if tuple(sorted(self.components)) != self.components:
            raise ValueError("components must be sorted; use from_pairs")

    @classmethod
    def from_pairs(cls, pairs) -> "DiffeoClass":
        return cls(tuple(sorted((int(g), int(b)) for g, b in pairs)))

    @classmethod
    def empty(cls) -> "DiffeoClass":
        return cls(())

    @classmethod
    def connected(cls, genus: int, boundary: int) -> "DiffeoClass":
        return cls(((genus, boundary),))

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def chi(self) -> int:
        return sum(2 - 2 * g - b for g, b in self.components)

    @property
    def boundary_circles(self) -> int:
        return sum(b for _, b in self.components)

    @property
    def is_closed(self) -> bool:
        return self.boundary_circles == 0

    def union(self, other: "DiffeoClass") -> "DiffeoClass":
        return DiffeoClass.from_pairs(self.components + other.components)

    def label(self) -> str:
        if not self.components:
            return "{}"
        return "{" + ",".join(f"({g},{b})" for g, b in self.components) + "}"

    def __str__(self):
        return self.label()

    @classmethod
    def from_label(cls, text: str) -> "DiffeoClass":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"bad class label {text!r}")
        inner = text[1:-1]
        pairs = []
        for chunk in inner.split(")"):
            chunk = chunk.strip().lstrip(",").strip().lstrip("(")
            if not chunk:
                continue
            g, b = chunk.split(",")
            pairs.append((int(g), int(b)))
        return cls.from_pairs(pairs)
