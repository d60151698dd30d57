"""Every top-level function and class of the package, and every public
method of a package class, has a use outside the tests, and every
defaulted parameter of a package function or method is passed by some
call.

A definition is in use when its name is in ``superpoisson.__all__`` or is
referenced from the demos, the benchmark, the test helpers the benchmark
loads by path, module-level package code, or the body of a package
definition that is itself in use.  A reference is a name, an attribute,
an import or a dotted part of a string constant (the benchmark's tracer
names its layers by string).  A public method (a name without a leading
underscore) is matched by its name alone, and its class's body counts
without the public methods in it.  Cross-checks that only the tests need
live in ``tests/routes.py`` and ``tests/draws.py``.

A defaulted parameter is set when a call in the package, the tests, the
demos or the benchmark passes it by keyword or by position.  Calls are
matched by name, ``__init__`` by its class's name, and a ``*`` or ``**``
argument counts as passing every parameter; a default no call overrides
is a constant dressed as an option.
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


def _definitions(tree):
    """(name, reach name, nodes whose references the definition makes) of
    each top-level function, each top-level class and each public method of
    a top-level class.  A method is named Class.method and is reached by its
    own name; its class's references leave its body out."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name, [node]))
        elif isinstance(node, ast.ClassDef):
            public = [m for m in node.body if isinstance(m, ast.FunctionDef)
                      and not m.name.startswith("_")]
            out.append((node.name, node.name,
                        node.bases + node.keywords + node.decorator_list
                        + [m for m in node.body if m not in public]))
            out.extend(("%s.%s" % (node.name, m.name), m.name, [m])
                       for m in public)
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
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reached |= references(node)
        for name, reach, nodes in _definitions(tree):
            refs = set().union(*map(references, nodes))
            definitions.append((module, name, reach, refs))
    grew = True
    while grew:
        grew = False
        for _module, _name, reach, refs in definitions:
            if reach in reached and not refs <= reached:
                reached |= refs
                grew = True
    return [(module, name) for module, name, reach, _refs in definitions
            if reach not in reached]


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
            "def test_only():\n    return test_only()\n"
            "def from_method():\n    return 5\n"
            "def from_unused_method():\n    return 6\n"
            "class Box:\n"
            "    def __init__(self):\n        self._size()\n"
            "    def _size(self):\n        return 0\n"
            "    def used(self):\n        return from_method()\n"
            "    def unused(self):\n        return from_unused_method()\n"),
        "demos/demo.py": ("from superpoisson.mod import entry, Box\n"
                          "entry()\nBox().used()\n"),
        "perfbench/bench.py": ("LAYERS = ('mod.traced',)\n"
                               "h = _load_helper(root, 'helper')\n"),
        "tests/helper.py": "from superpoisson import mod\nmod.from_helper()\n",
        "tests/test_mod.py": "from superpoisson import mod\nmod.test_only()\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unused_definitions(str(tmp_path), ["exported"]) == [
        ("mod.py", "test_only"), ("mod.py", "from_unused_method"),
        ("mod.py", "Box.unused")]


def _defaulted(fn, method):
    """(position or None, name) of each parameter of fn with a default;
    position counts the call's positional arguments, so a method's self
    is not one."""
    params = fn.args.posonlyargs + fn.args.args
    if method:
        params = params[1:]
    first = len(params) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(params) if i >= first]
    out += [(None, a.arg)
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _passes(call, position, name):
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def _package_functions(tree):
    """(call name, definition, is a method) of each top-level function and
    each method of a top-level class."""
    out = [(node.name, node, False) for node in tree.body
           if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                name = cls.name if node.name == "__init__" else node.name
                out.append((name, node, not static))
    return out


def unset_defaults(root):
    """(module file, function, parameter) of each defaulted parameter of a
    package function or method that no call under root passes."""
    package = os.path.join(root, "src", "superpoisson")
    calls = {}
    for directory in (package, os.path.join(root, "tests"),
                      os.path.join(root, "demos"),
                      os.path.join(root, "perfbench")):
        for _name, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    out = []
    for module, tree in _trees(package):
        for name, fn, method in _package_functions(tree):
            for position, param in _defaulted(fn, method):
                if not any(_passes(call, position, param)
                           for call in calls.get(name, ())):
                    out.append((module, name, param))
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unset_defaults(ROOT) == []


def test_defaults_no_call_passes_are_reported(tmp_path):
    files = {
        "src/superpoisson/mod.py": (
            "def by_keyword(a, b=1):\n    return a\n"
            "def by_position(a, b=1, c=2):\n    return a\n"
            "def splat(a=1, *, b=2):\n    return a\n"
            "class Box:\n"
            "    def __init__(self, size=1):\n        pass\n"
            "    def grow(self, by=1):\n        pass\n"
            "    @staticmethod\n"
            "    def make(kind=None):\n        pass\n"),
        "demos/demo.py": ("from superpoisson.mod import *\n"
                          "by_keyword(0, b=2)\nby_position(0, 1)\n"
                          "splat(*args, **kwargs)\nBox(3).grow()\n"
                          "Box.make(None)\n"),
        "perfbench/bench.py": "",
        "tests/test_mod.py": "",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unset_defaults(str(tmp_path)) \
        == [("mod.py", "by_position", "c"), ("mod.py", "grow", "by")]
