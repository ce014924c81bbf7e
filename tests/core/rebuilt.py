"""Rebuilt twins: what an owner's derived fields hold when computed afresh.

The segment grid, the compaction engine, the routing engine and each
virtual bus compute their derived fields from primary state in
``rebuild_derived`` (DESIGN.md §9 P8).  The soundness tests compare a
live owner, whose fields the hot paths keep up to date, with a twin
that rebuilt them.
"""

from __future__ import annotations

from typing import Any

#: Every derived field, by owner class name.  Kept here rather than read
#: from the owners' own ``_DERIVED`` lists, so that a name dropped there
#: shows up as a carried field.
DERIVED_FIELDS = {
    "SegmentGrid": ("_occupied_count", "_faulty_index", "_faulty_count",
                    "_dirty", "epochs"),
    "CompactionEngine": ("_hot",),
    "RoutingEngine": ("_extending", "_signalling", "_streaming",
                      "_parked", "_ready", "_reach", "_arcs"),
    "VirtualBus": ("source", "destination", "span"),
}


def rebuilt(owner: Any) -> Any:
    """A twin of ``owner`` that shares its primary state and rebuilt
    every derived field.  ``owner`` itself is not touched: a rebuild
    assigns new containers, it never mutates the old ones."""
    twin = object.__new__(type(owner))
    twin.__dict__.update(owner.__dict__)
    twin.rebuild_derived()
    return twin


def derived(owner: Any) -> dict[str, Any]:
    """``owner``'s derived fields by name.  The extending headers are
    listed as items, since the header pass visits them in that order
    (the other passes sort); the compiled arcs hold bound methods of
    their own owner and are left out."""
    fields = {}
    for name in DERIVED_FIELDS[type(owner).__name__]:
        if name == "_arcs":
            continue
        value = getattr(owner, name)
        fields[name] = list(value.items()) if name == "_extending" else value
    return fields
