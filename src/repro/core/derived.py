"""Derived state: fields an owner rebuilds from primary state, never
pickles (DESIGN.md §9 P8)."""

from __future__ import annotations

from typing import Any


class DerivedState:
    """Mixin: pickles drop the fields ``_DERIVED`` names, and unpickling
    calls ``rebuild_derived``, which sets exactly those fields."""

    _DERIVED: tuple[str, ...] = ()

    def rebuild_derived(self) -> None:
        raise NotImplementedError

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.rebuild_derived()
