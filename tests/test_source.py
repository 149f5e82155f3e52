"""Layout rules of the program source, and what importing its CLI loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from lattice_waves import cayley, cosets, tree, verify
from lattice_waves.groups import (
    GeneratorSet, GroupSpec, make_element, make_group, quotient, validate_generators,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "lattice_waves"


def test_no_source_line_exceeds_100_columns():
    files = sorted(SRC.glob("*.py"))
    assert files
    long = [
        f"{path.name}:{number} ({len(line)} columns)"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long, long


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; __future__ imports switch features on.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(module)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, unused


def test_fraction_stays_at_the_api_boundary():
    # Values are integer numerators over one denominator; these modules
    # neither build nor name a Fraction.
    for name in ("cayley.py", "cosets.py", "serialize.py"):
        assert "Fraction" not in (SRC / name).read_text(encoding="utf-8"), name


def test_engine_and_oracles_read_numerators_not_entries():
    # ``entries`` is a Fraction view for readers outside the program.
    reads = [
        f"{name}:{node.lineno}"
        for name in ("cayley.py", "cosets.py", "oracles.py", "serialize.py", "tree.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]
    assert not reads, reads


def test_only_functions_knows_the_packed_layout():
    # The Kronecker layout and its decode live in functions.py; every other
    # module goes through convolve_polynomials or convolve (the tree tables
    # use neither: they run integer recurrences).
    layout = {"_Packing", "_packing", "unit_shifts", "unpack", "fold", "room", "_power", "_horner",
              "_copies", "COPIES"}
    named = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "functions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # Names read, attributes, definitions and imported names (ast.alias).
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            named += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & layout)]
    assert not named, named


def test_only_serialize_writes_csv():
    # serialize.py holds the CSV headers and the row rule, and every line it
    # writes ends in "\n": no module holds a carriage return, escaped or raw.
    writers = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "\\r" in text or "\r" in text:
            writers.append(f"{path.name}: carriage return")
        if path.name != "serialize.py" and "num,den" in text:
            writers.append(f"{path.name}: CSV header")
    assert not writers, writers


def test_only_groups_converts_integers():
    # groups.integer is the one rule for a coordinate, a letter, a rank or a
    # modulus: no other module calls int() or maps it over its input.
    conversions = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            if node.func.id == "int" or (node.func.id == "map" and node.args
                                         and getattr(node.args[0], "id", None) == "int"):
                conversions.append(f"{path.name}:{node.lineno}")
    assert not conversions, conversions


def test_one_module_bounds_time_indices_and_radii():
    # groups.natural holds every time index and radius to 0..sys.maxsize;
    # no other module words a range check of its own.
    holders = {
        text: [path.name for path in sorted(SRC.glob("*.py"))
               if text in path.read_text(encoding="utf-8")]
        for text in ("must be non-negative", "is above")
    }
    assert holders == {"must be non-negative": ["groups.py"], "is above": ["groups.py"]}, holders


def test_one_rule_per_document_shape():
    # serialize.json_object and required decide every JSON object and its
    # fields, groups.selector every string that picks one of a fixed set:
    # cli.py raises no ShapeMismatch of its own, no module but serialize.py
    # tests for a dict, and no module but groups.py words a choice.
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "groups.py" and "must be one of" in text:
            found.append(f"{path.name}: a selector message")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if path.name == "cli.py" and callee == "ShapeMismatch":
                    found.append(f"{path.name}:{node.lineno} ShapeMismatch")
                tested = node.args[1:2] if callee == "isinstance" else []
            elif isinstance(node, ast.Compare):
                tested = [node.left, *node.comparators]
            else:
                continue
            names = {n.id for t in tested for n in ast.walk(t) if isinstance(n, ast.Name)}
            if path.name != "serialize.py" and "dict" in names:
                found.append(f"{path.name}:{node.lineno} dict test")
    assert not found, found


def test_one_domain_rule():
    # functions.require_domain decides whether a function lives on the group
    # or tree it is used on: no other module raises GroupMismatch.
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(call, "id", getattr(call, "attr", None)) == "GroupMismatch":
                    raisers.append(f"{path.name}:{node.lineno}")
    assert len(raisers) == 1 and raisers[0].startswith("functions.py:"), raisers


def test_a_value_lives_on_a_group_or_a_tree():
    # A Scaled tag is a group or a tree degree, so Scaled has two subclasses,
    # direct or not: the radial profiles stepped by the oracles are lists.
    classes = [
        (node.name, {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases})
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    subclasses, found = {"Scaled"}, None
    while found != subclasses:
        found = set(subclasses)
        subclasses |= {name for name, bases in classes if bases & subclasses}
    assert subclasses - {"Scaled"} == {"SupportedFunction", "TreeFunction"}, subclasses


def test_no_function_takes_a_group_beside_its_generator_set():
    # A generator set carries its group, so a second group argument could
    # only disagree with it.
    both = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                names = {ast.unparse(a.annotation) for a in arguments if a.annotation}
                if {"GroupSpec", "GeneratorSet"} <= names:
                    both.append(f"{path.name}:{node.lineno} {node.name}")
    assert not both, both


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, and builds each class
    # through exec: the records are NamedTuples.
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, importers


def test_a_solver_command_loads_no_oracle_code():
    # Importing the CLI, as every command does, leaves out what only compare
    # and verify run; the records stay equal, hashable and readable.
    code = ("import sys, lattice_waves.cli; print(' '.join(m for m in ('dataclasses', 'inspect', "
            "'lattice_waves.oracles', 'lattice_waves.randgen') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split() == []

    G = make_group(1, [4])
    S = [make_element(G, [1], [0]), make_element(G, [-1], [0]), make_element(G, [0], [1]),
         make_element(G, [0], [3])]
    H = [make_element(G, [0], [2])]

    def records():
        return [make_group(1, [4]), validate_generators(G, S), quotient(G, H),
                cosets.build_coset_problem(G, H, S), verify.CheckResult("quadrature", True, 121)]

    for a, b in zip(records(), records()):
        assert a == b and hash(a) == hash(b)
    assert records()[:2] == [GroupSpec(1, (4,)), GeneratorSet(G, tuple(S))]
    # A kernel holds a function and a weight table a list, so neither is hashable.
    assert cayley.heat_kernel(validate_generators(G, S), 2) == cayley.heat_kernel(
        validate_generators(G, S), 2)
    assert tree.tree_heat_weights(3, 4) == tree.tree_heat_weights(3, 4)
    assert repr(GroupSpec(1, (4,))) == "GroupSpec(rank=1, moduli=(4,))"
