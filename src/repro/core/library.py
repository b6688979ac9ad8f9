"""The communication library (Definition 2.2).

A :class:`CommunicationLibrary` is a collection ``L ∪ N`` of
:class:`Link` types and :class:`NodeSpec` types (repeaters, muxes,
demuxes, switches).  Each *link* carries the three link properties of
the paper — maximum realizable length ``d(l)``, maximum bandwidth
``b(l)`` and a cost — and each *node* a cost ``c(n)``.

Cost model
----------
The paper prices links two ways: fixed-cost components and per-length
components (Example 1's radio link costs "$2 × meter").  Both are
subsumed by the affine model::

    c(instance of length x) = cost_fixed + cost_per_unit * x,   x <= d(l)

A classic fixed-size library link is ``cost_per_unit = 0`` with finite
``max_length``; Example 1's links are ``cost_fixed = 0`` with infinite
``max_length``.  Assumption 2.1 of the paper (cost monotone
nondecreasing in (distance, bandwidth), strictly positive) is checked by
:func:`repro.core.point_to_point.check_assumption` against a set of
arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs import current_tracer
from .exceptions import LibraryError

__all__ = ["Link", "NodeKind", "NodeSpec", "CommunicationLibrary"]


@dataclass(frozen=True)
class Link:
    """A library link type (Definition 2.2's ``l ∈ L``).

    Attributes
    ----------
    name:
        Identifier used in reports and serialization.
    bandwidth:
        ``b(l)`` — the fastest channel this link can realize (canonical
        bps, but any consistent unit works).
    max_length:
        ``d(l)`` — the longest channel this link can realize.  May be
        ``math.inf`` for per-length-priced link families (optical fiber
        priced per meter realizes any length).
    cost_fixed:
        Cost charged per instance regardless of length.
    cost_per_unit:
        Cost charged per unit of length actually spanned.
    """

    name: str
    bandwidth: float
    max_length: float = math.inf
    cost_fixed: float = 0.0
    cost_per_unit: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise LibraryError("link name must be nonempty")
        if self.bandwidth <= 0:
            raise LibraryError(f"link {self.name!r}: bandwidth must be positive, got {self.bandwidth}")
        if self.max_length <= 0:
            raise LibraryError(f"link {self.name!r}: max_length must be positive, got {self.max_length}")
        if self.cost_fixed < 0 or self.cost_per_unit < 0:
            raise LibraryError(f"link {self.name!r}: costs must be nonnegative")
        if self.cost_fixed == 0 and self.cost_per_unit == 0:
            raise LibraryError(
                f"link {self.name!r}: a free link violates Assumption 2.1 "
                "(every arc implementation must have positive cost)"
            )
        if math.isinf(self.max_length) and self.cost_per_unit == 0:
            raise LibraryError(
                f"link {self.name!r}: an unbounded-length link must be priced per unit "
                "of length, otherwise one instance spans any distance at constant cost "
                "and Assumption 2.1 (cost monotone in distance) fails"
            )

    def cost_of(self, length: float) -> float:
        """Cost of one instance spanning ``length`` (must fit ``max_length``)."""
        if length < 0:
            raise LibraryError(f"link {self.name!r}: negative span {length}")
        if length > self.max_length * (1 + 1e-12):
            raise LibraryError(
                f"link {self.name!r}: span {length} exceeds max_length {self.max_length}"
            )
        return self.cost_fixed + self.cost_per_unit * length

    def can_span(self, length: float) -> bool:
        """True when one instance covers ``length``."""
        return length <= self.max_length * (1 + 1e-12)

    def can_carry(self, bandwidth: float) -> bool:
        """True when one instance sustains ``bandwidth``."""
        return bandwidth <= self.bandwidth * (1 + 1e-12)


class NodeKind(Enum):
    """The node taxonomy of the paper's Section 2.

    - ``REPEATER`` receives and re-transmits one stream (1-in, 1-out);
      used by arc segmentation.
    - ``MUX`` merges multiple incoming links into one outgoing link
      (N-in, 1-out); opens K-way mergings and duplication.
    - ``DEMUX`` is the inverse (1-in, N-out).
    - ``SWITCH`` connects multiple links sharing bandwidth (N-in, N-out)
      and can act as any of the above.
    """

    REPEATER = "repeater"
    MUX = "mux"
    DEMUX = "demux"
    SWITCH = "switch"

    def can_act_as(self, role: "NodeKind") -> bool:
        """A switch substitutes for any role; a mux/demux can repeat
        (degenerate 1-in/1-out use); a repeater only repeats."""
        if self is role:
            return True
        if self is NodeKind.SWITCH:
            return True
        if role is NodeKind.REPEATER and self in (NodeKind.MUX, NodeKind.DEMUX):
            return True
        return False


@dataclass(frozen=True)
class NodeSpec:
    """A library communication node type (Definition 2.2's ``n ∈ N``).

    ``max_degree`` bounds fan-in (for a mux), fan-out (for a demux) or
    both (switch); ``None`` means unbounded.
    """

    name: str
    kind: NodeKind
    cost: float = 0.0
    max_degree: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise LibraryError("node name must be nonempty")
        if self.cost < 0:
            raise LibraryError(f"node {self.name!r}: cost must be nonnegative")
        if self.max_degree is not None and self.max_degree < 2:
            raise LibraryError(f"node {self.name!r}: max_degree must be >= 2 when given")


class CommunicationLibrary:
    """A collection of link and node types, ``L ∪ N``.

    Example — the paper's Example 1 library::

        >>> lib = CommunicationLibrary("wan")
        >>> _ = lib.add_link(Link("radio", bandwidth=11e6, cost_per_unit=2.0))
        >>> _ = lib.add_link(Link("optical", bandwidth=1e9, cost_per_unit=4.0))
        >>> _ = lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=0.0))
        >>> _ = lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=0.0))
    """

    def __init__(self, name: str = "library") -> None:
        self.name = name
        self._links: Dict[str, Link] = {}
        self._nodes: Dict[str, NodeSpec] = {}
        #: mutation counter — bumped by every add_link/add_node so that
        #: derived-data caches keyed on it can never serve stale entries.
        self._version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_link(self, link: Link) -> Link:
        """Register a link type; duplicate names are rejected."""
        if link.name in self._links:
            raise LibraryError(f"duplicate link name {link.name!r}")
        self._links[link.name] = link
        self._invalidate_caches()
        return link

    def add_node(self, node: NodeSpec) -> NodeSpec:
        """Register a node type; duplicate names are rejected."""
        if node.name in self._nodes:
            raise LibraryError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._invalidate_caches()
        return node

    def _invalidate_caches(self) -> None:
        """Bump the mutation counter and drop derived-data caches."""
        self._version += 1
        self.__dict__.pop("_derived_caches", None)
        self.__dict__.pop("_stage_cost_cache", None)  # pre-derived_cache layout

    @property
    def version(self) -> int:
        """Monotone mutation counter (add_link/add_node increment it).

        Derived-data caches key on this so that mutating the library
        after a synthesis run can never silently reuse stale costs.
        """
        return self._version

    def derived_cache(self, name: str) -> dict:
        """A named memo dict tied to the current library ``version``.

        Returns the same dict while the library is unchanged and a
        fresh empty one after any mutation, so callers get correct
        invalidation for free.  Cache contents (which may hold
        closures) are excluded from pickling — worker processes rebuild
        them lazily.
        """
        caches = self.__dict__.setdefault("_derived_caches", {})
        entry = caches.get(name)
        if entry is None or entry[0] != self._version:
            entry = (self._version, {})
            caches[name] = entry
            current_tracer().count_local(f"cache.derived.rebuild.{name}")
        return entry[1]

    def __getstate__(self) -> dict:
        """Pickle without derived caches (their closures don't pickle,
        and worker processes must rebuild them at the current version)."""
        state = self.__dict__.copy()
        state.pop("_derived_caches", None)
        state.pop("_stage_cost_cache", None)
        return state

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def links(self) -> List[Link]:
        """All link types, in insertion order."""
        return list(self._links.values())

    @property
    def nodes(self) -> List[NodeSpec]:
        """All node types, in insertion order."""
        return list(self._nodes.values())

    def link(self, name: str) -> Link:
        """Look up a link type by name."""
        try:
            return self._links[name]
        except KeyError:
            raise LibraryError(f"unknown link {name!r} in library {self.name!r}") from None

    def node(self, name: str) -> NodeSpec:
        """Look up a node type by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise LibraryError(f"unknown node {name!r} in library {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._links or name in self._nodes

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links.values())

    def max_link_bandwidth(self) -> float:
        """``max_{l in L} b(l)`` — the quantity in Theorem 3.2."""
        self._require_links()
        return max(l.bandwidth for l in self._links.values())

    def links_carrying(self, bandwidth: float) -> List[Link]:
        """All link types able to sustain ``bandwidth`` on one instance."""
        return [l for l in self._links.values() if l.can_carry(bandwidth)]

    def cheapest_node(self, role: NodeKind) -> Optional[NodeSpec]:
        """The cheapest node type able to act as ``role``; ``None`` when
        the library offers no such node (then the corresponding graph
        transformation — segmentation, duplication, merging — is simply
        unavailable).  Memoized per role until the library mutates,
        keyed by the role's value: hashing the member itself runs
        ``Enum.__hash__`` in Python."""
        nodes = self.derived_cache("cheapest_node")
        key = role._value_
        if key not in nodes:
            candidates = [n for n in self._nodes.values() if n.kind.can_act_as(role)]
            # On cost ties prefer the exact-kind node (an inverter should
            # repeat before a demux is drafted into the role).
            nodes[key] = min(
                candidates, key=lambda n: (n.cost, n.kind is not role, n.name), default=None
            )
        return nodes[key]

    def node_cost(self, role: NodeKind) -> Optional[float]:
        """Cost of the cheapest node playing ``role``; ``None`` if absent."""
        node = self.cheapest_node(role)
        return None if node is None else node.cost

    def _require_links(self) -> None:
        if not self._links:
            raise LibraryError(f"library {self.name!r} has no links")

    def validate(self) -> None:
        """Sanity-check the library as a whole (non-emptiness)."""
        self._require_links()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommunicationLibrary(name={self.name!r}, links={len(self._links)}, "
            f"nodes={len(self._nodes)})"
        )
