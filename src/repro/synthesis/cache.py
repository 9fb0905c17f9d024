"""Content-addressed cache of what is derived from a synthesized netlist.

A fault campaign or a swap matrix synthesizes the same design over and
over. :func:`~repro.synthesis.tool.synthesize_communication` still
builds fresh IR on every call, so each result owns its netlists, but
the lint verdict, the HDL text, the report row and the compiled code
are functions of the netlist's content alone. They are looked up here
by :meth:`~repro.synthesis.ir.RtlModule.fingerprint` (plus whatever
else the artifact depends on) and built once per distinct netlist per
process.
"""

from __future__ import annotations

import collections
import typing

#: Entries kept before the least recently used one is evicted. One
#: synthesized group stores at most five artifacts per netlist (lint
#: verdict, Verilog, VHDL, report row, compiled code) for two or three
#: netlists, so this holds a few dozen distinct designs.
MAX_ENTRIES = 512

T = typing.TypeVar("T")


class NetlistCache:
    """A bounded LRU map from artifact keys to built artifacts.

    Keys are tuples whose first items name the artifact kind and the
    netlist fingerprint. A build that raises stores nothing, so a
    failure is recomputed (and raised) on every lookup.
    """

    def __init__(self) -> None:
        self._entries: collections.OrderedDict[tuple, typing.Any] = (
            collections.OrderedDict()
        )

    def get(self, key: tuple, build: typing.Callable[[], T]) -> T:
        """The artifact stored under *key*, built by *build* on a miss."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return entries[key]
        value = build()
        entries[key] = value
        if len(entries) > MAX_ENTRIES:
            entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache every synthesis run shares.
NETLIST_CACHE = NetlistCache()
