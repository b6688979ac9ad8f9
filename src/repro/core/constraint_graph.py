"""The communication constraint graph (Definition 2.1).

A :class:`ConstraintGraph` is a directed graph whose vertices are
*ports* of computational modules — each carrying a position ``p(v)`` —
and whose arcs are point-to-point unidirectional channels annotated
with the two *arc properties* of the paper:

- ``d(a)`` — the arc length (distance between the endpoint positions);
- ``b(a)`` — the required communication bandwidth.

The arc length must be *consistent* with the endpoint positions under
the graph's norm; :meth:`ConstraintGraph.add_channel` computes it, while
:meth:`ConstraintGraph.add_arc` accepts an explicit value and verifies
consistency (Definition 2.1's requirement).

Several parallel channels between the same pair of ports are legal ("a
module may communicate with another module through multiple
unidirectional channels"); :meth:`ConstraintGraph.to_networkx` exports
the graph as a :class:`networkx.MultiDiGraph` and
:meth:`ConstraintGraph.from_networkx` imports one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import networkx as nx

from .exceptions import ModelError
from .geometry import EUCLIDEAN, Norm, Point, bounding_box

__all__ = ["Port", "Arc", "ConstraintGraph"]

#: tolerance used when checking declared arc lengths against geometry.
_LENGTH_TOL = 1e-6


@dataclass(frozen=True)
class Port:
    """A vertex of the constraint graph: one port of a computational module.

    ``module`` is an optional tag naming the computational module the
    port belongs to; the paper's WAN example collapses all ports of a
    node to the same position, which is expressed here simply by giving
    several ports equal positions (and, typically, the same module tag).
    """

    name: str
    position: Point
    module: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("port name must be a nonempty string")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Arc:
    """A directed constraint arc ``a = (u, v)`` with its arc properties.

    ``distance`` is ``d(a)`` and ``bandwidth`` is ``b(a)`` from
    Definition 2.1.  ``name`` identifies the arc in reports and in the
    covering matrix (the paper's ``a1 ... a8``).
    """

    name: str
    source: Port
    target: Port
    distance: float
    bandwidth: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("arc name must be a nonempty string")
        if self.source == self.target:
            raise ModelError(f"arc {self.name!r} is a self-loop on port {self.source.name!r}")
        if self.distance < 0:
            raise ModelError(f"arc {self.name!r} has negative distance {self.distance}")
        if self.bandwidth <= 0:
            raise ModelError(
                f"arc {self.name!r} has nonpositive bandwidth {self.bandwidth}; "
                "a channel that carries no data should be omitted"
            )

    @property
    def endpoints(self) -> Tuple[Port, Port]:
        """``(u, v)`` as a tuple, for unpacking."""
        return (self.source, self.target)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}:{self.source.name}->{self.target.name}"


class ConstraintGraph:
    """Communication constraint graph ``G = (V, A)`` of Definition 2.1.

    Example::

        >>> g = ConstraintGraph()
        >>> a = g.add_port("A", Point(0, 0))
        >>> b = g.add_port("B", Point(4, 3))
        >>> arc = g.add_channel("a1", "B", "A", bandwidth=10e6)
        >>> arc.distance
        5.0
    """

    def __init__(self, norm: Norm = EUCLIDEAN, name: str = "constraint-graph") -> None:
        self.norm = norm
        self.name = name
        self._ports: Dict[str, Port] = {}
        self._arcs: Dict[str, Arc] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_port(self, name: str, position: Point, module: Optional[str] = None) -> Port:
        """Register a port; re-adding the identical port is a no-op.

        Re-adding a name with a *different* position or module raises
        :class:`ModelError` — silently moving a port would invalidate
        every arc length already computed from it.
        """
        port = Port(name=name, position=position, module=module)
        existing = self._ports.get(name)
        if existing is not None:
            if existing != port:
                raise ModelError(
                    f"port {name!r} already exists at {existing.position} "
                    f"(module={existing.module!r}); refusing to redefine it"
                )
            return existing
        self._ports[name] = port
        return port

    def add_channel(
        self,
        name: str,
        source: str,
        target: str,
        bandwidth: float,
        distance: Optional[float] = None,
    ) -> Arc:
        """Add a constraint arc between two existing ports.

        When ``distance`` is omitted it is computed from the endpoint
        positions under the graph norm (the usual case).  When given, it
        must agree with the geometry within a small tolerance.
        """
        u = self._require_port(source)
        v = self._require_port(target)
        geometric = self.norm.distance(u.position, v.position)
        if distance is None:
            distance = geometric
        elif abs(distance - geometric) > _LENGTH_TOL * max(1.0, geometric):
            raise ModelError(
                f"arc {name!r}: declared distance {distance} is inconsistent with the "
                f"{self.norm.name} distance {geometric} between {source!r} and {target!r}"
            )
        arc = Arc(name=name, source=u, target=v, distance=distance, bandwidth=bandwidth)
        return self._register_arc(arc)

    def add_arc(self, arc: Arc) -> Arc:
        """Add a fully-constructed :class:`Arc`, enforcing consistency."""
        for port in arc.endpoints:
            known = self._ports.get(port.name)
            if known is None:
                self.add_port(port.name, port.position, port.module)
            elif known != port:
                raise ModelError(
                    f"arc {arc.name!r} references port {port.name!r} with a position "
                    f"different from the registered one"
                )
        geometric = self.norm.distance(arc.source.position, arc.target.position)
        if abs(arc.distance - geometric) > _LENGTH_TOL * max(1.0, geometric):
            raise ModelError(
                f"arc {arc.name!r}: distance {arc.distance} inconsistent with geometry "
                f"({geometric} under {self.norm.name})"
            )
        return self._register_arc(arc)

    def _register_arc(self, arc: Arc) -> Arc:
        if arc.name in self._arcs:
            raise ModelError(f"duplicate arc name {arc.name!r}")
        self._arcs[arc.name] = arc
        return arc

    def _require_port(self, name: str) -> Port:
        try:
            return self._ports[name]
        except KeyError:
            raise ModelError(f"unknown port {name!r}; add_port it first") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def ports(self) -> List[Port]:
        """All ports, in insertion order."""
        return list(self._ports.values())

    @property
    def arcs(self) -> List[Arc]:
        """All constraint arcs, in insertion order (the paper's a1..aN)."""
        return list(self._arcs.values())

    def port(self, name: str) -> Port:
        """Look up a port by name (raises :class:`ModelError` on a miss)."""
        return self._require_port(name)

    def arc(self, name: str) -> Arc:
        """Look up an arc by name (raises :class:`ModelError` on a miss)."""
        try:
            return self._arcs[name]
        except KeyError:
            raise ModelError(f"unknown arc {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arcs or name in self._ports

    def __len__(self) -> int:
        """Number of constraint arcs, |A|."""
        return len(self._arcs)

    def __iter__(self) -> Iterator[Arc]:
        return iter(self._arcs.values())

    def arcs_between(self, source: str, target: str) -> List[Arc]:
        """All (parallel) arcs from ``source`` to ``target``."""
        return [a for a in self._arcs.values() if a.source.name == source and a.target.name == target]

    def arcs_touching(self, port_name: str) -> List[Arc]:
        """All arcs having ``port_name`` as an endpoint."""
        return [
            a
            for a in self._arcs.values()
            if a.source.name == port_name or a.target.name == port_name
        ]

    def distance(self, u: str, v: str) -> float:
        """Norm distance between two ports by name."""
        return self.norm.distance(self._require_port(u).position, self._require_port(v).position)

    def total_demand(self) -> float:
        """Sum of all arc bandwidths (useful for reports)."""
        return sum(a.bandwidth for a in self._arcs.values())

    def total_wirelength(self) -> float:
        """Sum of all arc distances — the point-to-point wiring lower bound."""
        return sum(a.distance for a in self._arcs.values())

    def extent(self) -> Tuple[Point, Point]:
        """Bounding box over all port positions."""
        return bounding_box(p.position for p in self._ports.values())

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export to a :class:`networkx.MultiDiGraph` (fresh copy): one
        node per port (attribute ``port``), one edge per arc keyed by
        its name (attribute ``arc``), both in insertion order."""
        import networkx as nx

        g = nx.MultiDiGraph()
        for port in self._ports.values():
            g.add_node(port.name, port=port)
        for arc in self._arcs.values():
            g.add_edge(arc.source.name, arc.target.name, key=arc.name, arc=arc)
        return g

    @classmethod
    def from_networkx(
        cls,
        source: nx.DiGraph,
        norm: Norm = EUCLIDEAN,
        pos_attr: str = "pos",
        bandwidth_attr: str = "bandwidth",
        name: Optional[str] = None,
    ) -> "ConstraintGraph":
        """Build a constraint graph from any networkx (multi)digraph.

        Nodes need a position attribute (``(x, y)`` tuple, default key
        ``"pos"``); edges need a bandwidth attribute.  Edge keys (for
        multigraphs) become arc-name suffixes; missing attributes raise
        :class:`ModelError` naming the offender.  This is the interop
        path for floorplanners and traffic tools that already speak
        networkx.
        """
        graph = cls(norm=norm, name=name or str(source.name or "from-networkx"))
        for node, data in source.nodes(data=True):
            if pos_attr not in data:
                raise ModelError(f"node {node!r} lacks the {pos_attr!r} attribute")
            x, y = data[pos_attr]
            graph.add_port(str(node), Point(float(x), float(y)), module=data.get("module"))
        counter = 0
        for u, v, data in source.edges(data=True):
            if bandwidth_attr not in data:
                raise ModelError(
                    f"edge ({u!r}, {v!r}) lacks the {bandwidth_attr!r} attribute"
                )
            counter += 1
            arc_name = str(data.get("name", f"e{counter}"))
            graph.add_channel(arc_name, str(u), str(v), bandwidth=float(data[bandwidth_attr]))
        return graph

    def with_bandwidths(self, overrides: Dict[str, float]) -> "ConstraintGraph":
        """A copy of the graph with some arcs' bandwidths replaced.

        Ports, geometry, arc names and insertion order are preserved;
        only ``b(a)`` changes for the named arcs.  This is the
        tightening primitive of the closed loop (:mod:`repro.loop`):
        simulation feedback becomes a new provisioning requirement
        without perturbing anything a fingerprint or candidate
        generator keys on besides bandwidth.  Unknown arc names raise
        :class:`ModelError`.
        """
        unknown = sorted(set(overrides) - set(self._arcs))
        if unknown:
            raise ModelError(f"with_bandwidths: unknown arcs {unknown}")
        out = ConstraintGraph(norm=self.norm, name=self.name)
        for port in self._ports.values():
            out.add_port(port.name, port.position, port.module)
        for arc in self._arcs.values():
            out.add_channel(
                arc.name,
                arc.source.name,
                arc.target.name,
                bandwidth=overrides.get(arc.name, arc.bandwidth),
                distance=arc.distance,
            )
        return out

    def with_scaled_bandwidths(self, factor: float) -> "ConstraintGraph":
        """A copy with every ``b(a)`` multiplied by ``factor`` — the
        uniform demand-margin transform (``factor = 1 + margin``)."""
        if factor <= 0:
            raise ModelError(f"bandwidth scale factor must be positive, got {factor}")
        if factor == 1.0:
            return self
        return self.with_bandwidths(
            {a.name: a.bandwidth * factor for a in self._arcs.values()}
        )

    def subgraph(self, arc_names: Iterable[str]) -> "ConstraintGraph":
        """Projection of the graph onto a subset of arcs (Definition 3.1's
        ``G^k``): the returned graph has exactly those arcs and the ports
        they touch."""
        sub = ConstraintGraph(norm=self.norm, name=f"{self.name}[sub]")
        for arc_name in arc_names:
            arc = self.arc(arc_name)
            sub.add_port(arc.source.name, arc.source.position, arc.source.module)
            sub.add_port(arc.target.name, arc.target.position, arc.target.module)
            sub.add_arc(arc)
        return sub

    def validate(self) -> None:
        """Re-check every arc's declared length against the geometry.

        Useful after deserialization; raises :class:`ModelError` on the
        first inconsistency.
        """
        for arc in self._arcs.values():
            geometric = self.norm.distance(arc.source.position, arc.target.position)
            if abs(arc.distance - geometric) > _LENGTH_TOL * max(1.0, geometric):
                raise ModelError(
                    f"arc {arc.name!r}: stored distance {arc.distance} inconsistent "
                    f"with geometry {geometric}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConstraintGraph(name={self.name!r}, ports={len(self._ports)}, "
            f"arcs={len(self._arcs)}, norm={self.norm.name})"
        )
