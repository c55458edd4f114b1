"""Source-level rules for the package."""

import ast
from pathlib import Path

import spechtvar


def test_package_uses_no_assert_statements():
    # invariants must hold under ``python -O``, which strips assert
    found = []
    for path in sorted(Path(spechtvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + ", ".join(found)


def _unused_imports(path: Path) -> list[str]:
    """Names a file imports and never reads; ``__all__`` entries count as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    package = Path(spechtvar.__file__).parent
    tests = Path(__file__).parent
    found = []
    for path in sorted(package.glob("*.py")) + sorted(tests.glob("*.py")):
        found += _unused_imports(path)
    assert not found, "unused imports: " + ", ".join(found)


def _scopes(match) -> list[str]:
    """``module.function`` enclosing each package AST node that ``match`` accepts."""
    found = []
    for path in sorted(Path(spechtvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not match(path.stem, node):
                continue
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            found.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    return found


def _calls(match) -> list[str]:
    """``module.function`` enclosing each package call that ``match`` accepts."""
    return _scopes(lambda mod, node: isinstance(node, ast.Call) and match(mod, node))


def _is_attr_call(node: ast.Call, owner: str, name: str) -> bool:
    f = node.func
    return (isinstance(f, ast.Attribute) and f.attr == name
            and isinstance(f.value, ast.Name) and f.value.id == owner)


def _calls_method(node: ast.Call, name: str) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == name


def test_one_blowup_and_one_freeness_elimination():
    # one companion blowup, in the rank path for fields above the table
    # cap, and one early-stopping elimination outside the kernels: the one
    # place that decides freeness, for many points at once
    assert _calls(lambda mod, node: _is_attr_call(node, "np", "kron")) == [
        "gfq._blowup_rank"]
    assert _calls(lambda mod, node: mod not in ("gfp", "gfq")
                  and any(_is_attr_call(node, owner, name) for owner, name in
                          (("gfp", "rank"), ("gfq", "rank"), ("gfq", "ranks")))
                  and (len(node.args) > 2
                       or any(kw.arg == "stop_at" for kw in node.keywords))) == [
        "jordan.are_free_at"]


def test_one_rank_route_per_field():
    # GF(p) is GF(p^1): every field with tables is ranked by the stack
    # kernel, and only the blowup above the table cap ranks over GF(p)
    assert _calls(lambda mod, node: _is_attr_call(node, "gfp", "rank")
                  or (mod == "gfp" and getattr(node.func, "id", None) == "rank")) == [
        "gfq._blowup_rank"]
    assert _calls(lambda mod, node: getattr(node.func, "id", None) == "_blowup_rank") == [
        "gfq.ranks"]

    def is_k_one(mod, node):
        if mod != "gfq" or not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        return (any(isinstance(x, ast.Constant) and x.value == 1 for x in sides)
                and any(getattr(x, "attr", getattr(x, "id", None)) == "k" for x in sides))
    assert _scopes(is_k_one) == []
    # the GF(p) eliminator always runs to the full rank
    assert _scopes(lambda mod, node: mod == "gfp" and (
        (isinstance(node, ast.arg) and node.arg == "stop_at")
        or (isinstance(node, ast.Name) and node.id == "stop_at"))) == []


def test_one_extension_field_elimination():
    # the Zech table is read only by the one GF(q) elimination, the stack
    # kernel, and only gfq.ranks calls that
    assert _scopes(lambda mod, node: isinstance(node, ast.Attribute)
                   and node.attr == "zech") == ["gfq._rank_stack"]
    assert _calls(lambda mod, node: getattr(node.func, "id", None) == "_rank_stack") == [
        "gfq.ranks"]


def test_sweeps_and_generic_types_hand_over_stacks():
    # the many-point callers rank their points together: no per-point
    # rank_vector_at / is_free_at call inside them
    def per_point(mod, node):
        f = node.func
        return getattr(f, "id", getattr(f, "attr", None)) in ("rank_vector_at", "is_free_at")
    callers = set(_calls(per_point))
    hot = {"jordan.generic_type", "variety.enumerate_locus", "variety.sweep_rank_vectors"}
    assert not callers & hot, callers & hot
    def names(name):
        return set(_calls(lambda mod, node: getattr(node.func, "id", None) == name))
    assert names("rank_vectors_at") >= {"jordan.generic_type", "variety.sweep_rank_vectors"}
    assert names("are_free_at") >= {"variety.enumerate_locus"}


def test_point_operator_builds_no_blowup():
    # N is assembled as coefficient slices: no multiplication matrices, no kron
    uses = _calls(lambda mod, node: _calls_method(node, "mul_matrix")
                  or _calls_method(node, "kron"))
    assert "jordan._point_operator" not in uses
    # multiplication matrices are built only for the table build
    assert set(_calls(lambda mod, node: _calls_method(node, "mul_matrix"))) == {
        "ffalg.tables"}


def test_one_point_walk():
    # every sweep enumerates points through the one orbit walk
    def names_projective_points(mod, node):
        f = node.func
        return getattr(f, "id", getattr(f, "attr", None)) == "projective_points"
    assert _calls(names_projective_points) == ["variety._point_orbits"]


def test_variety_evaluates_forms_on_code_tables():
    # interpolation reads monomial values from log/exp tables
    # (variety._monomials_at), never from FieldElement arithmetic
    def names_poly_eval(mod, node):
        f = node.func
        return mod == "variety" and getattr(f, "id", getattr(f, "attr", None)) == "poly_eval"
    assert _calls(names_poly_eval) == []
