"""Frozen naive edge decomposition: the test oracle for the indexed one.

These are the straightforward restart-from-scratch versions of
``UndirectedGraph.triangles``, ``greedy_vertex_cover``,
``vertex_cover_decomposition``, the Figure 7 loop and ``decompose``.
They use only the graph's basic public queries (``vertices``, ``edges``,
``degree``, ``copy``, ``remove_edges``) and recompute everything else
with full scans, so they are slow (roughly cubic) but obviously follow
the paper's "first in insertion order" wording.  The property suite
checks the library's worklist implementations against them group for
group and trace entry for trace entry.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Set, Tuple

from repro.graphs.decomposition import (
    DecompositionTrace,
    EdgeDecomposition,
    StarGroup,
    bounded_decomposition,
    triangle_group,
)
from repro.graphs.graph import Edge, UndirectedGraph
from repro.graphs.vertex_cover import is_vertex_cover, matching_vertex_cover

Vertex = Hashable


def naive_incident_edges(graph: UndirectedGraph, vertex: Vertex) -> List[Edge]:
    return [e for e in graph.edges if e.incident_to(vertex)]


def naive_triangles(
    graph: UndirectedGraph,
) -> List[Tuple[Vertex, Vertex, Vertex]]:
    """Every triangle once, corners in vertex order, edge-order first."""
    vertices = graph.vertices
    edge_set = set(graph.edges)
    order = {v: i for i, v in enumerate(vertices)}
    found: List[Tuple[Vertex, Vertex, Vertex]] = []
    for edge in graph.edges:
        u, v = edge.endpoints
        if order[u] > order[v]:
            u, v = v, u
        for w in vertices:
            if order[w] <= order[v]:
                continue
            if Edge(u, w) in edge_set and Edge(v, w) in edge_set:
                found.append((u, v, w))
    return found


def naive_greedy_vertex_cover(graph: UndirectedGraph) -> List[Vertex]:
    """Repeatedly take the first vertex covering the most uncovered edges."""
    remaining: Set[Edge] = set(graph.edges)
    cover: List[Vertex] = []
    while remaining:
        best_vertex: Optional[Vertex] = None
        best_count = 0
        for vertex in graph.vertices:
            count = sum(1 for e in remaining if e.incident_to(vertex))
            if count > best_count:
                best_count = count
                best_vertex = vertex
        assert best_vertex is not None
        cover.append(best_vertex)
        remaining = {e for e in remaining if not e.incident_to(best_vertex)}
    return cover


def naive_vertex_cover_decomposition(
    graph: UndirectedGraph, cover: Sequence[Vertex]
) -> EdgeDecomposition:
    """Each edge joins the star of the first cover vertex it touches."""
    assert is_vertex_cover(graph, cover)
    assignment = {v: [] for v in cover}
    for edge in graph.edges:
        for vertex in cover:
            if edge.incident_to(vertex):
                assignment[vertex].append(edge)
                break
    groups = [
        StarGroup(vertex, tuple(edges))
        for vertex, edges in assignment.items()
        if edges
    ]
    return EdgeDecomposition(graph, groups)


def naive_paper_decomposition(
    graph: UndirectedGraph, step3_choice: str = "most-adjacent"
) -> Tuple[EdgeDecomposition, DecompositionTrace]:
    """Figure 7, rescanning the whole working graph after every action."""
    working = graph.copy()
    groups: list = []
    trace = DecompositionTrace()

    def emit_star(root: Vertex, edges: Sequence[Edge], step: int, note: str):
        group = StarGroup(root, tuple(edges))
        groups.append(group)
        trace.record(step, group, note)
        working.remove_edges(edges)

    while working.edge_count() > 0:
        progressed = True
        while progressed:
            progressed = False
            for x in working.vertices:
                if working.degree(x) != 1:
                    continue
                (edge,) = naive_incident_edges(working, x)
                y = edge.other(x)
                emit_star(
                    y,
                    naive_incident_edges(working, y),
                    step=1,
                    note=f"vertex {x!r} has degree 1",
                )
                progressed = True
                break

        progressed = True
        while progressed:
            progressed = False
            for corners in naive_triangles(working):
                low_degree = [v for v in corners if working.degree(v) == 2]
                if len(low_degree) < 2:
                    continue
                group = triangle_group(*corners)
                groups.append(group)
                trace.record(2, group, "two corners have degree 2")
                working.remove_edges(group.edges)
                progressed = True
                break

        if working.edge_count() == 0:
            break

        if step3_choice == "most-adjacent":
            pivot = max(
                working.edges,
                key=lambda e: working.degree(e.u) + working.degree(e.v) - 2,
            )
        else:
            pivot = working.edges[0]
        x, y = pivot.endpoints
        if working.degree(x) > working.degree(y):
            x, y = y, x
        emit_star(
            y,
            naive_incident_edges(working, y),
            step=3,
            note=f"edge {pivot!r} has the most adjacent edges",
        )
        x_edges = naive_incident_edges(working, x)
        if x_edges:
            emit_star(
                x,
                x_edges,
                step=3,
                note=f"companion star of edge {pivot!r}",
            )

    return EdgeDecomposition(graph, groups), trace


def naive_decompose(graph: UndirectedGraph) -> EdgeDecomposition:
    """``decompose`` built from the naive pieces above."""
    candidates = [
        naive_paper_decomposition(graph)[0],
        naive_vertex_cover_decomposition(
            graph, naive_greedy_vertex_cover(graph)
        ),
        naive_vertex_cover_decomposition(graph, matching_vertex_cover(graph)),
    ]
    if graph.vertex_count() > 3:
        candidates.append(bounded_decomposition(graph))
    return min(candidates, key=lambda d: d.size)
