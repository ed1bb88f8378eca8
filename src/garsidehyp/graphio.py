"""DOT and JSON export of metric graphs; JSON import round-trips exactly.

Output is bit-stable for identical inputs: vertices are already sorted in
the graph, and edges come in the order of the graph's edge codes, the
lexicographic order of the pairs (i, j).  The JSON export writes, one item
at a time into the open file, the bytes of
`json.dump(graph_to_json_dict(graph), fh, sort_keys=True, indent=1)`
followed by a newline, byte for byte; the edges are written from the
graph's runs (`MetricGraph.runs`), each run as one join, and never as
pairs.  The import checks the types, then hands the pairs, sorted, to the
`MetricGraph` constructor, which checks their range before it encodes them.
"""

from __future__ import annotations

import itertools
import json
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


def _write_list(fh, items: Iterator[str]) -> None:
    """A JSON list at indent level 1 whose items are already encoded."""
    first = next(items, None)
    if first is None:
        fh.write("[]")
        return
    fh.write("[\n")
    fh.write(first)
    fh.writelines(",\n" + item for item in items)
    fh.write("\n ]")


def _edge_runs(graph: MetricGraph) -> Iterator[str]:
    """The encoded edges, one run of equal first endpoint i at a time: the
    items [i, j] of a run differ only in j, so its text is one join over a
    table of the numerals 0..n-1."""
    numerals = list(map(str, range(len(graph.vertices))))
    for i, higher in graph.runs(numerals):
        yield (f"  [\n   {i},\n   " + f"\n  ],\n  [\n   {i},\n   ".join(higher)
               + "\n  ]")


def export_json(graph: MetricGraph, path) -> None:
    prov = json.dumps(graph.provenance, sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write('{\n "edges": ')
        _write_list(fh, _edge_runs(graph))
        fh.write(',\n "provenance": ' + prov.replace("\n", "\n "))
        fh.write(f',\n "schema": {JSON_SCHEMA_VERSION},\n "vertices": ')
        _write_list(fh, ("  " + v for v in map(encode_basestring_ascii, graph.vertices)))
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
