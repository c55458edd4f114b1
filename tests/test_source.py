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
    # cap; and no elimination stops early: freeness reads rank N in full,
    # so the GF(q) kernel, like the GF(p) one, has no stop count
    assert _calls(lambda mod, node: _is_attr_call(node, "np", "kron")) == [
        "gfq._blowup_rank"]

    def stop_name(mod, node):
        name = (node.arg if isinstance(node, (ast.arg, ast.keyword))
                else node.id if isinstance(node, ast.Name) else None)
        return name in ("stop_at", "top_only") or (mod == "gfq" and name == "limit")
    assert _scopes(stop_name) == []


def test_one_rank_route_per_field():
    # GF(p) is GF(p^1): every field with tables is ranked by the stack
    # kernel, and only the blowup above the table cap ranks over GF(p)
    assert _calls(lambda mod, node: _is_attr_call(node, "gfp", "rank")
                  or (mod == "gfp" and getattr(node.func, "id", None) == "rank")) == [
        "gfq._blowup_rank"]
    assert _calls(lambda mod, node: getattr(node.func, "id", None) == "_blowup_rank") == [
        "gfq.ranks"]

    def is_k_one(mod, node):
        if mod not in ("gfq", "jordan") or not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        return (any(isinstance(x, ast.Constant) and x.value == 1 for x in sides)
                and any(getattr(x, "attr", getattr(x, "id", None)) == "k" for x in sides))
    # no k == 1 branch: GF(p) points are evaluated, prepared and ranked on
    # the path of every other field
    assert _scopes(is_k_one) == []
    # the GF(p) eliminator always runs to the full rank
    assert _scopes(lambda mod, node: mod == "gfp" and (
        (isinstance(node, ast.arg) and node.arg == "stop_at")
        or (isinstance(node, ast.Name) and node.id == "stop_at"))) == []


def test_one_extension_field_elimination():
    # the Zech table (``plus``, read from the larger log) is read only by
    # the one GF(q) elimination, the stack kernel, and only gfq.ranks calls
    # that; no second Zech table (``zech``) is read anywhere
    assert _scopes(lambda mod, node: isinstance(node, ast.Attribute)
                   and node.attr == "plus") == ["gfq._rank_stack"]
    assert _scopes(lambda mod, node: isinstance(node, ast.Attribute)
                   and node.attr == "zech") == []
    assert _calls(lambda mod, node: getattr(node.func, "id", None) == "_rank_stack") == [
        "gfq.ranks"]


def test_rank_stack_update_is_branch_free():
    # no np.where in the GF(q) kernel, and its one % is per row (the
    # multiplier's log), not per entry
    def where(mod, node):
        return mod == "gfq" and _is_attr_call(node, "np", "where")
    assert _calls(where) == []
    def mod_in_kernel(mod, node):
        return (mod == "gfq" and isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Mod))
    assert _scopes(mod_in_kernel).count("gfq._rank_stack") == 1


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
    # N and its powers are evaluated from GF(p) coefficient stacks: the
    # point-evaluation path (jordan, and symrank's builder) forms no
    # multiplication matrix, no kron and no multiplication-by-t^c matrix
    def on_path(scopes):
        return [s for s in scopes if s.split(".")[0] in ("jordan", "symrank")]
    assert on_path(_calls(lambda mod, node: _calls_method(node, "mul_matrix")
                          or _calls_method(node, "kron"))) == []
    assert on_path(_scopes(lambda mod, node: isinstance(node, ast.Attribute)
                           and node.attr == "tmats")) == []
    # the slice product gfq.matmul (now the tests' oracle), the per-point
    # power chain and the per-point operator are gone
    gone = {"_powers", "_point_operator"}

    def names_gone(mod, node):
        if isinstance(node, ast.FunctionDef):
            return node.name in gone or (mod == "gfq" and node.name == "matmul")
        if isinstance(node, ast.Attribute):
            return node.attr in gone or (node.attr == "matmul"
                                         and getattr(node.value, "id", None) == "gfq")
        return isinstance(node, ast.Name) and node.id in gone
    assert _scopes(names_gone) == []
    # multiplication matrices are built only for the table build
    assert set(_calls(lambda mod, node: _calls_method(node, "mul_matrix"))) == {
        "ffalg.tables"}


def test_one_builder_of_power_coefficients():
    # exact mode and random mode share one builder of the coefficients of
    # N^s, and only it takes the recurrence step
    def names(name):
        return sorted(_calls(lambda mod, node: getattr(node.func, "id",
                                                       getattr(node.func, "attr", None)) == name))
    assert names("_next_power") == ["symrank.power_coefficients"]
    assert names("power_coefficients") == ["jordan._coefficients",
                                           "symrank.generic_power_ranks"]


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


def test_bareiss_steps_take_blocks_of_rows():
    # exact mode forms each fraction-free step for blocks of rows at once:
    # no loop of the elimination walks the rows one by one, and the
    # per-row product helper it replaced is gone (it is the tests' oracle)
    def row_loop(mod, node):
        if mod != "symrank" or not isinstance(node, ast.For):
            return False
        it = node.iter
        blocked = (isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range"
                   and len(it.args) == 3 and not isinstance(it.args[2], ast.Constant))
        return not blocked
    elimination = {"symrank.generic_rank", "symrank._bareiss_step"}
    assert not elimination & set(_scopes(row_loop))
    assert _scopes(lambda mod, node: isinstance(node, ast.FunctionDef)
                   and node.name == "_mul_many") == []
    assert _calls(lambda mod, node: getattr(node.func, "id", None) == "_mul_many") == []


def test_construction_runs_no_elimination():
    # the standard-tabloid minor is unit lower triangular, so a build solves
    # on it by forward substitution: spechtmod names no general gfp
    # elimination; the triangular kernel serves the minor solve and exact
    # mode's division by the previous pivot, nothing else
    general = {"rank", "rref", "solve", "nullspace", "_echelon", "_reduce"}
    assert _scopes(lambda mod, node: mod == "spechtmod" and isinstance(node, ast.Attribute)
                   and node.attr in general and getattr(node.value, "id", None) == "gfp") == []
    assert _scopes(lambda mod, node: mod == "spechtmod" and isinstance(node, ast.ImportFrom)
                   and node.module == "gfp") == []
    assert sorted(_calls(lambda mod, node: _is_attr_call(node, "gfp", "solve_unit_lower"))) == [
        "spechtmod._solve_on_minor", "symrank._bareiss_step"]


def test_one_enumeration_of_standard_tableaux():
    # the standard tableaux are the ballot rows of the tabloid table: the
    # package defines no second enumeration of them (the depth-first search
    # is the tests' oracle) and no per-row combination rank
    gone = {"standard_tableaux", "_ranking"}

    def names_gone(mod, node):
        name = (node.name if isinstance(node, ast.FunctionDef)
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return name in gone
    assert _scopes(names_gone) == []
    # a lookup is one key product, one search and one check: no Python
    # loop on its path
    path = Path(spechtvar.__file__).parent / "spechtmod.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    steps = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and node.name in ("lookup", "_find", "_keys")]
    assert len(steps) == 3
    loops = (ast.For, ast.While, ast.comprehension)
    assert [step.name for step in steps
            if any(isinstance(node, loops) for node in ast.walk(step))] == []


def test_tabloid_keys_draw_no_numpy_random():
    # the key weights are read from hashlib's SHAKE-128: importing
    # numpy.random for them alone adds about 2 MB to the peak RSS of
    # processes that draw nothing else, such as perfbench's construct runs
    assert _scopes(lambda mod, node: mod == "spechtmod" and isinstance(node, ast.Attribute)
                   and node.attr == "random") == []


def test_one_triangular_solver_and_one_float_reduction():
    # exact mode keeps only polynomial bookkeeping: its division, powers and
    # reductions go through gfp, and no private product, triangular
    # inverse or float reduction is left in the package
    gone = {"tri_inv_mod", "sym_matmul", "_scatter_plan", "_reduce_floats"}

    def names_gone(mod, node):
        name = (node.name if isinstance(node, ast.FunctionDef)
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return name in gone
    assert _scopes(names_gone) == []
    # floats are reduced mod p by one rule
    assert _scopes(lambda mod, node: isinstance(node, ast.Attribute) and node.attr == "floor"
                   and getattr(node.value, "id", None) == "np") == ["gfp.float_mod"]


def test_cache_has_no_npz_reader_or_writer():
    # the module cache is one raw record per key: no npz archive is read or
    # written anywhere in the package, and no zip reader is kept as a fallback
    npz = {"load", "savez", "savez_compressed"}
    assert _calls(lambda mod, node: any(_is_attr_call(node, "np", name) for name in npz)) == []

    def imports_zip(mod, node):
        if isinstance(node, ast.Import):
            return any(alias.name in ("zipfile", "zlib") for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.module in ("zipfile", "zlib")
    assert _scopes(imports_zip) == []


def test_jordan_reads_modules_only_through_blocks():
    # a module's action has one form, the (stack, multiplicity) pairs of
    # ``acts.blocks``: jordan needs no module type to find its matrices
    def imports_spechtmod(mod, node):
        if mod != "jordan" or not isinstance(node, (ast.Import, ast.ImportFrom)):
            return False
        names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        return any(name.split(".")[-1] == "spechtmod" for name in names)
    assert _scopes(imports_spechtmod) == []

    def module_type_test(mod, node):
        return (mod == "jordan" and isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and any(getattr(n, "id", None) in ("PermutationActions", "RestrictedActions")
                        for n in ast.walk(node.args[1])))
    assert _scopes(module_type_test) == []
    gone = {"_action_stack", "_blocks", "distinct_blocks"}

    def names_gone(mod, node):
        name = (node.name if isinstance(node, ast.FunctionDef)
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return name in gone
    assert _scopes(names_gone) == []
