"""Every top-level function and class of the package has a use outside
the tests.

A definition is in use when its name is in ``superpoisson.__all__`` or is
referenced from the demos, the benchmark, the test helpers the benchmark
loads by path, module-level package code, or the body of a package
definition that is itself in use.  A reference is a name, an attribute,
an import or a dotted part of a string constant (the benchmark's tracer
names its layers by string).  Cross-checks that only the tests need live
in ``tests/routes.py`` and ``tests/draws.py``.
"""

import ast
import os

import superpoisson

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _trees(directory):
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append((name, ast.parse(fh.read())))
    return out


def references(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def unused_definitions(root, exempt):
    """(module file, name) of each package definition under root with no
    use; the names in exempt count as used."""
    bench = _trees(os.path.join(root, "perfbench"))
    helpers = {node.args[-1].value for _name, tree in bench
               for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_load_helper"}
    outside = bench + _trees(os.path.join(root, "demos")) + [
        (name, tree) for name, tree in _trees(os.path.join(root, "tests"))
        if name[:-3] in helpers]
    reached = set(exempt)
    for _name, tree in outside:
        reached |= references(tree)
    definitions = []
    for module, tree in _trees(os.path.join(root, "src", "superpoisson")):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((module, node))
            else:
                reached |= references(node)
    grew = True
    while grew:
        grew = False
        for _module, node in definitions:
            if node.name in reached and not references(node) <= reached:
                reached |= references(node)
                grew = True
    return [(module, node.name) for module, node in definitions
            if node.name not in reached]


def test_every_package_definition_is_used_outside_the_tests():
    assert unused_definitions(ROOT, superpoisson.__all__) == []


def test_definitions_reached_only_from_tests_are_reported(tmp_path):
    files = {
        "src/superpoisson/mod.py": (
            "def entry():\n    return chained()\n"
            "def chained():\n    return 1\n"
            "def from_helper():\n    return 2\n"
            "def exported():\n    return 3\n"
            "def traced():\n    return 4\n"
            "def test_only():\n    return test_only()\n"),
        "demos/demo.py": "from superpoisson.mod import entry\nentry()\n",
        "perfbench/bench.py": ("LAYERS = ('mod.traced',)\n"
                               "h = _load_helper(root, 'helper')\n"),
        "tests/helper.py": "from superpoisson import mod\nmod.from_helper()\n",
        "tests/test_mod.py": "from superpoisson import mod\nmod.test_only()\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unused_definitions(str(tmp_path), ["exported"]) \
        == [("mod.py", "test_only")]
