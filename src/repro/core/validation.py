"""Implementation-graph validation against Definition 2.4.

Three layers, from literal to strict:

1. :func:`validate_structure` — the mapping conditions: χ is a
   position-preserving bijection between constraint ports and
   computational vertices, every communication vertex instantiates a
   library node (ψ), every arc instantiates a library link within its
   property limits (φ), and every registered path runs χ(u) → χ(v)
   touching only communication vertices in between.
2. :func:`validate_bandwidth` — Definition 2.4's literal bandwidth
   condition: for every constraint arc, Σ_{q ∈ P(a)} b(q) >= b(a).
3. :func:`validate_capacity` — a *stricter* flow-feasibility check the
   paper implies via its mux semantics: there must exist an assignment
   of per-path flows delivering b(a) for every arc simultaneously
   without exceeding any link instance's bandwidth.  This is a linear
   program (variables = flow per registered path), solved with scipy.

:func:`validate` runs all three and raises
:class:`~repro.core.exceptions.ValidationError` with an explicit
message on the first failure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy import optimize

from .constraint_graph import ConstraintGraph
from .exceptions import ValidationError
from .implementation import ImplementationGraph, Path

__all__ = [
    "validate_structure",
    "validate_bandwidth",
    "validate_capacity",
    "validate",
]

_TOL = 1e-6


def validate_structure(impl: ImplementationGraph, constraints: ConstraintGraph) -> None:
    """Check the χ/ψ/φ mapping conditions and path shapes."""
    comp = {v.name: v for v in impl.computational_vertices}
    ports = {p.name: p for p in constraints.ports}

    missing = set(ports) - set(comp)
    if missing:
        raise ValidationError(f"ports without computational vertex: {sorted(missing)}")
    extra = set(comp) - set(ports)
    if extra:
        raise ValidationError(f"computational vertices without port: {sorted(extra)}")
    for name, port in ports.items():
        if not comp[name].position.is_close(port.position):
            raise ValidationError(
                f"vertex {name!r} at {comp[name].position} but port at {port.position}"
            )

    library_links = {l.name for l in impl.library.links}
    library_nodes = {n.name for n in impl.library.nodes}
    for v in impl.communication_vertices:
        if v.node.name not in library_nodes:
            raise ValidationError(f"vertex {v.name!r} instantiates unknown node {v.node.name!r}")
    for a in impl.arcs:
        if a.link.name not in library_links:
            raise ValidationError(f"arc {a.name!r} instantiates unknown link {a.link.name!r}")
        # ImplArc enforces d/b limits at construction; re-check defensively
        if not a.link.can_span(a.length):
            raise ValidationError(f"arc {a.name!r}: span {a.length} > d({a.link.name})")

    implemented = set(impl.implemented_arcs)
    wanted = {a.name for a in constraints.arcs}
    if implemented != wanted:
        raise ValidationError(
            f"arc implementations mismatch: missing {sorted(wanted - implemented)}, "
            f"spurious {sorted(implemented - wanted)}"
        )

    for arc in constraints.arcs:
        for path in impl.arc_implementation(arc.name):
            vertices = impl.path_vertices(path)
            if vertices[0] != arc.source.name:
                raise ValidationError(
                    f"arc {arc.name!r}: path starts at {vertices[0]!r}, expected χ({arc.source.name!r})"
                )
            if vertices[-1] != arc.target.name:
                raise ValidationError(
                    f"arc {arc.name!r}: path ends at {vertices[-1]!r}, expected χ({arc.target.name!r})"
                )
            for middle in vertices[1:-1]:
                if impl.vertex(middle).is_computational:
                    raise ValidationError(
                        f"arc {arc.name!r}: path passes through computational vertex {middle!r}"
                    )
            if len(set(vertices)) != len(vertices):
                raise ValidationError(f"arc {arc.name!r}: path revisits a vertex: {vertices}")


def validate_bandwidth(impl: ImplementationGraph, constraints: ConstraintGraph) -> None:
    """Definition 2.4 condition 2: Σ_{q ∈ P(a)} b(q) >= b(a)."""
    for arc in constraints.arcs:
        paths = impl.arc_implementation(arc.name)
        total = sum(impl.path_bandwidth(p) for p in paths)
        if total < arc.bandwidth * (1 - _TOL):
            raise ValidationError(
                f"arc {arc.name!r}: paths provide {total:.6g} < required {arc.bandwidth:.6g}"
            )


def validate_capacity(impl: ImplementationGraph, constraints: ConstraintGraph) -> None:
    """Flow feasibility: a simultaneous routing of all demands exists.

    LP: for every constraint arc a and registered path q a flow
    f_{a,q} >= 0 with Σ_q f_{a,q} = b(a) and, per link instance a',
    Σ_{paths through a'} f <= b(link).  Infeasibility (or solver
    failure) raises :class:`ValidationError`.
    """
    flows: List[Tuple[str, Path]] = []
    for arc in constraints.arcs:
        for path in impl.arc_implementation(arc.name):
            flows.append((arc.name, path))
    if not flows:
        return

    n = len(flows)
    arc_names = [a.name for a in impl.arcs]
    arc_index = {name: i for i, name in enumerate(arc_names)}

    # capacity rows: A_ub f <= capacities
    a_ub = np.zeros((len(arc_names), n))
    for j, (_, path) in enumerate(flows):
        for impl_arc_name in path:
            a_ub[arc_index[impl_arc_name], j] = 1.0
    b_ub = np.array([a.link.bandwidth for a in impl.arcs], dtype=float)

    # demand rows: A_eq f == b(a)
    demands = constraints.arcs
    demand_row = {arc.name: i for i, arc in enumerate(demands)}
    a_eq = np.zeros((len(demands), n))
    for j, (name, _) in enumerate(flows):
        a_eq[demand_row[name], j] = 1.0
    b_eq = np.array([a.bandwidth for a in demands], dtype=float)

    res = optimize.linprog(
        np.zeros(n), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=[(0, None)] * n, method="highs",
    )
    if not res.success:
        raise ValidationError(
            "no simultaneous flow assignment satisfies all bandwidth demands "
            f"within link capacities (LP status: {res.message})"
        )


def validate(impl: ImplementationGraph, constraints: ConstraintGraph) -> None:
    """Run all three validation layers (structure, bandwidth, capacity)."""
    validate_structure(impl, constraints)
    validate_bandwidth(impl, constraints)
    validate_capacity(impl, constraints)
