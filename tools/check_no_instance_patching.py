#!/usr/bin/env python
"""Gate: no code replaces a simulator method on an instance.

Observers attach to the machine's probe bus (``machine.probes``, see
``repro.obs.events.Probes``).  None may shadow a method of the machine,
a node kernel, the migration manager, the network or a coherence
controller instead: neither by assigning to it (``machine._access =
f``, ``kernel.fault = f``, ``del machine._access``) nor through
``setattr``/``delattr``.  Run from the repository root::

    python tools/check_no_instance_patching.py [PATH ...]

PATH defaults to ``src``; directories are searched for ``*.py``.  Prints
every offending line and exits 1 when there is one.  A ``setattr`` or
``delattr`` with a computed name is flagged unless it targets ``self``,
since it can replace any method.
``repro/verify/mutations.py`` is allowed by name: its class-level
patches are the protocol-mutation self-test.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: (source file under repro/, class) whose methods must not be replaced.
GUARDED = (("sim/machine.py", "Machine"),
           ("kernel/vm.py", "NodeKernel"),
           ("core/migration.py", "MigrationManager"),
           ("interconnect/network.py", "Network"),
           ("core/controller.py", "CoherenceController"))

#: Files allowed to patch guarded methods (at class level).
ALLOWED = ("repro/verify/mutations.py",)


def _is_method(item) -> bool:
    return (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(isinstance(d, ast.Name) and d.id == "property"
                        for d in item.decorator_list))


def guarded_methods() -> "set[str]":
    """Names of every method (not property) of the guarded classes."""
    names = set()
    for module, cls in GUARDED:
        tree = ast.parse((SRC / module).read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                names.update(item.name for item in node.body
                             if _is_method(item))
    return names


def _targets(node):
    if isinstance(node, (ast.Assign, ast.Delete)):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _flatten(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten(elt)
    else:
        yield target


def offences(path: pathlib.Path, methods: "set[str]"):
    """``(line, text)`` of every method replacement in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        for target in _targets(node):
            for leaf in _flatten(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr in methods:
                    yield node.lineno, ast.unparse(node)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) >= 2):
            # A literal guarded name on any object, or any name on an
            # object other than ``self`` (a generic wrapper).
            owner, name = node.args[0], node.args[1]
            if isinstance(name, ast.Constant):
                flagged = name.value in methods
            else:
                flagged = not (isinstance(owner, ast.Name)
                               and owner.id == "self")
            if flagged:
                yield node.lineno, ast.unparse(node)


def main(argv) -> int:
    roots = [pathlib.Path(arg) for arg in argv] or [pathlib.Path("src")]
    methods = guarded_methods()
    found = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            if path.as_posix().endswith(ALLOWED):
                continue
            for lineno, text in offences(path, methods):
                print("%s:%d: instance method replacement: %s"
                      % (path, lineno, text))
                found += 1
    if found:
        print("%d instance method replacement(s); attach to "
              "machine.probes instead" % found, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
