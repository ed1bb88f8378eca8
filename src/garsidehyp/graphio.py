"""DOT and JSON export of metric graphs; JSON import round-trips exactly.

Output is bit-stable for identical inputs: vertices are already sorted in
the graph, and DOT lines follow vertex and edge order.  The JSON export
writes, one item at a time into the open file, the bytes of
`json.dump(graph_to_json_dict(graph), fh, sort_keys=True, indent=1)`
followed by a newline, byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

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
    """The graph of a JSON dict; its edges may come in any order."""
    return MetricGraph(tuple(data["vertices"]),
                       tuple(sorted((int(i), int(j)) for i, j in data["edges"])),
                       dict(data.get("provenance", {})))


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


def export_json(graph: MetricGraph, path) -> None:
    prov = json.dumps(graph.provenance, sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write('{\n "edges": ')
        _write_list(fh, (f"  [\n   {i},\n   {j}\n  ]" for i, j in graph.edges))
        fh.write(',\n "provenance": ' + prov.replace("\n", "\n "))
        fh.write(f',\n "schema": {JSON_SCHEMA_VERSION},\n "vertices": ')
        _write_list(fh, ("  " + json.dumps(v) for v in graph.vertices))
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
