"""Every public name of the package has a use in the package or the benchmark.

The modules of `src/garsidehyp` and `perfbench` are parsed, never imported.
A public top-level function or class passes when its name appears somewhere
in those files as a name, an attribute, or a string that is a dotted name
ending in it (as the tracer names what it wraps).  A public method passes
only through an attribute, `x.name`, or a string with a dot, "mod.name": a
method is never called by its bare name, so a local variable or function
of the same name does not count for it.  The guard still matches names, not
objects: a method passes when any attribute of its name is read, so of two
classes with one attribute name, one may be unused and pass through the
other's readers; a `CoxeterGraph.m()` method would pass through
`summary.m`, the field of `absorbable.CensusSummary`.  The allow-list holds
the few names kept for a use beyond a caller, each with its reason; a name
that leaves the package must leave the list too.

No module of the package reads another package module's leading-underscore
name, through a module alias (`gd._name`) or an import (`from .garside
import _name`); the one read kept is allow-listed with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "garsidehyp"

ALLOWED = {
    "parabolic.standardize":
        "the standardizer of a parabolic subgroup (Cumplido, Gebhardt, "
        "Gonzalez-Meneses & Wiest, Adv. Math. 352, 2019), checked against "
        "oracles.reference_standardize",
    "parabolic.simultaneous_standardize":
        "the simultaneous standardizer of a pair of parabolic subgroups, from "
        "the same paper and checked against the same oracle",
    "braidtop.curve_parabolic_dictionary":
        "the curve <-> parabolic-subgroup dictionary on which the paper's "
        "analogy rests",
    "metrics.coset_key":
        "the only public way to name an element's vertex for MetricGraph.index_of",
    "graphio.import_json":
        "reads an exported graph through the validating graph_from_json_dict: "
        "input from outside the program",
    "graphio.graph_to_json_dict":
        "the reference that the streaming JSON writer is tested against",
}


def _sources():
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions():
    """(module.name or module.Class.method) for every public definition."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            out.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.update(f"{module}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def _referenced_names():
    """(names, attributes): every name, attribute and dotted-name string of
    the sources, and the attributes and the strings with a dot only."""
    names, attrs = set(), set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    (attrs if len(parts) > 1 else names).add(parts[-1])
    return names | attrs, attrs


def test_every_public_name_is_used_or_allowed():
    names, attrs = _referenced_names()
    unused = sorted(name for name in _public_definitions() - ALLOWED.keys()
                    if name.rsplit(".", 1)[1] not in (attrs if name.count(".") == 2 else names))
    assert unused == [], f"public names with no use in src/ or perfbench/: {unused}"


def test_allowed_names_still_exist():
    assert sorted(ALLOWED.keys() - _public_definitions()) == []


PRIVATE_READS = {
    "metrics -> garside._normalise":
        "`metrics._key_product` forms key products with the kernel's own "
        "normaliser; routing `multiply` through a shared key product instead "
        "made enumerate_absorbable(B3, 2) 7-11% slower (2 vCPUs, Python 3.11)",
}


def _private_reads():
    """'module -> other._name' for each read of another package module's
    leading-underscore name in the package's sources."""
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in paths}
    out = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = {}   # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
                    elif node.module in modules and alias.name.startswith("_"):
                        out.add(f"{path.stem} -> {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases and node.attr.startswith("_") \
                    and not node.attr.startswith("__"):
                out.add(f"{path.stem} -> {aliases[node.value.id]}.{node.attr}")
    return out


def test_no_module_reads_another_modules_private_names():
    assert sorted(_private_reads() - PRIVATE_READS.keys()) == []


def test_allowed_private_reads_still_happen():
    assert sorted(PRIVATE_READS.keys() - _private_reads()) == []
