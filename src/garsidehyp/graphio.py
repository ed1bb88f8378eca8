"""DOT and JSON export of metric graphs; JSON import round-trips exactly.

Output is bit-stable for identical inputs: vertices are already sorted in
the graph, and edges come in the order of the graph's edge codes, the
lexicographic order of the pairs (i, j).  The JSON export writes the bytes
of `json.dump(graph_to_json_dict(graph), fh, sort_keys=True, indent=1)`
followed by a newline, byte for byte, and never holds the whole text: the
edges are written from the graph's runs, in one loop over the run starts
(`MetricGraph.starts`).  The items [i, j] of run i differ only in j, so
the run's text is one join of the numerals of its j, read from a table of
the numerals 0..n-1, with the separator that carries i; the texts of
WRITE_CHUNK nonempty runs are joined and written at once, and so are the
encoded keys of WRITE_CHUNK vertices.  Edges are never formed as pairs.
The import checks the types, then hands the pairs, sorted, to the
`MetricGraph` constructor, which checks their range before it encodes them.
"""

from __future__ import annotations

import itertools
import json
import operator
from json.encoder import encode_basestring_ascii   # what json.dumps runs for a str
from pathlib import Path
from typing import Iterator

from .errors import MalformedGraph
from .metrics import MetricGraph

JSON_SCHEMA_VERSION = 1


def graph_to_json_dict(graph: MetricGraph) -> dict:
    return {
        "schema": JSON_SCHEMA_VERSION,
        "vertices": graph.vertices,   # tuples encode as JSON arrays
        "edges": graph.edges,
        "provenance": graph.provenance,
    }


def graph_from_json_dict(data: dict) -> MetricGraph:
    """The graph of a JSON dict; its edges may come in any order.  Vertex
    keys must be strings and each edge a pair of ints, else MalformedGraph."""
    if not isinstance(data, dict):
        raise MalformedGraph("a graph is a JSON object")
    vertices, edges = data.get("vertices"), data.get("edges")
    provenance = data.get("provenance", {})
    if not isinstance(vertices, (list, tuple)) or not all(isinstance(v, str) for v in vertices):
        raise MalformedGraph("vertices must be a list of strings")
    if not isinstance(edges, (list, tuple)) or not (
            set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {2}
            and set(map(type, itertools.chain.from_iterable(edges))) <= {int}):
        # exact types: no bool, float or string endpoint
        raise MalformedGraph("edges must be a list of pairs of ints")
    if not isinstance(provenance, dict):
        raise MalformedGraph("provenance must be an object")
    return MetricGraph(tuple(vertices), sorted(map(tuple, edges)), dict(provenance))


# Nonempty edge runs, or vertices, whose text is written at once.  A chunk
# of the B3 length-3 quotient-Cayley graph (10,413 vertices, 102,928 edges)
# holds about 260 KB of edges: a tenth of its edge text.
WRITE_CHUNK = 1024


def _write_list(fh, chunks: Iterator[str]) -> None:
    """A JSON list at indent level 1 whose items are already encoded and
    joined by ",\n" into nonempty chunks."""
    first = next(chunks, None)
    if first is None:
        fh.write("[]")
        return
    fh.write("[\n" + first)
    for chunk in chunks:
        fh.write(",\n" + chunk)
    fh.write("\n ]")


def _edge_chunks(graph: MetricGraph) -> Iterator[str]:
    """The encoded edges, WRITE_CHUNK nonempty runs to a chunk."""
    n = len(graph.vertices)
    numerals = list(map(str, range(n)))
    named = list(map(numerals.__getitem__,
                     map(operator.mod, graph.codes, itertools.repeat(n))))
    runs: list[str] = []
    for i, (lo, hi) in enumerate(itertools.pairwise(graph.starts)):
        if lo < hi:
            head = f"  [\n   {i},\n   "
            runs.append(head + ("\n  ],\n" + head).join(named[lo:hi]) + "\n  ]")
            if len(runs) == WRITE_CHUNK:
                yield ",\n".join(runs)
                runs.clear()
    if runs:
        yield ",\n".join(runs)


def _vertex_chunks(graph: MetricGraph) -> Iterator[str]:
    keys = graph.vertices
    for lo in range(0, len(keys), WRITE_CHUNK):
        yield "  " + ",\n  ".join(map(encode_basestring_ascii, keys[lo:lo + WRITE_CHUNK]))


def export_json(graph: MetricGraph, path) -> None:
    prov = json.dumps(graph.provenance, sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write('{\n "edges": ')
        _write_list(fh, _edge_chunks(graph))
        fh.write(',\n "provenance": ' + prov.replace("\n", "\n "))
        fh.write(f',\n "schema": {JSON_SCHEMA_VERSION},\n "vertices": ')
        _write_list(fh, _vertex_chunks(graph))
        fh.write("\n}\n")


def import_json(path) -> MetricGraph:
    return graph_from_json_dict(json.loads(Path(path).read_text()))


def export_dot(graph: MetricGraph, path) -> None:
    lines = []
    prov = json.dumps(graph.provenance, sort_keys=True)
    lines.append(f"// provenance: {prov}")
    lines.append("graph truncation {")
    lines.append(f'  graph [provenance={json.dumps(prov)}];')
    for i, key in enumerate(graph.vertices):
        lines.append(f'  v{i} [label={json.dumps(key)}];')
    for i, j in graph.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_graph(graph: MetricGraph, fmt: str, path) -> None:
    """Write the graph as DOT or JSON."""
    fmt = fmt.lower()
    if fmt == "dot":
        export_dot(graph, path)
    elif fmt == "json":
        export_json(graph, path)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
