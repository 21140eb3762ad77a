"""Import structure of the armpose package, read from its source with ast.

Every module imports the package modules it needs at module level, so a
module's dependencies show in its header, and the package's internal
imports form an acyclic graph.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "armpose"


def _module_names():
    return sorted(path.stem for path in PACKAGE.glob("*.py"))


def _internal_targets(node, names):
    """Package modules an import node names; empty for outside imports."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "armpose"}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        if node.module is None or node.module.split(".")[0] != "armpose":
            return set()
        module = node.module.split(".")[1:]
    else:
        module = node.module.split(".") if node.module else []
    if module:
        return {module[0]}
    # "from . import x" names the submodule x when it is one
    return {alias.name for alias in node.names if alias.name in names} or {"__init__"}


def _imports():
    """(module, imported package module, line, inside a function) for every import."""
    names = set(_module_names())
    found = []
    for name in _module_names():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        in_function = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                in_function.update(id(inner) for inner in ast.walk(node) if inner is not node)
        for node in ast.walk(tree):
            for target in _internal_targets(node, names):
                found.append((name, target, node.lineno, id(node) in in_function))
    return found


def test_the_parser_sees_the_package_imports():
    edges = {(src, dst) for src, dst, _, _ in _imports()}
    assert {("cli", "refine"), ("refine", "kinematics"), ("__init__", "poseinit")} <= edges


def test_no_function_imports_a_package_module():
    lazy = [f"{src}.py:{line} imports {dst}" for src, dst, line, inside in _imports() if inside]
    assert lazy == []


def test_internal_import_graph_is_acyclic():
    graph = {name: set() for name in _module_names()}
    for src, dst, _, _ in _imports():
        if dst in graph and dst != src:
            graph[src].add(dst)
    done, active = set(), []

    def visit(node):
        if node in active:
            cycle = active[active.index(node):] + [node]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if node in done:
            return
        active.append(node)
        for dst in sorted(graph[node]):
            visit(dst)
        active.pop()
        done.add(node)

    for node in sorted(graph):
        visit(node)


def test_every_module_import_is_used():
    """A module-level import binds a name the module reads, unless its line
    says ``# noqa: F401``. The package ``__init__`` is skipped: it imports
    names to re-export them."""
    unused = []
    for name in _module_names():
        if name == "__init__":
            continue
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                waived = any("# noqa: F401" in lines[at - 1] for at in (node.lineno, alias.lineno))
                if bound not in read and not waived:
                    unused.append(f"{name}.py:{alias.lineno} imports {bound}, which it never reads")
    assert unused == []


def test_only_io_imports_json():
    """_io is the one module that imports json: every JSON and JSONL file,
    config files and the package's own chain files included, is parsed by
    its readers, which name a bad file, and written by its writers, which
    fix each file's layout."""
    found = []
    for name in _module_names():
        if name == "_io":
            continue
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}.py:{node.lineno} imports {m}" for m in modules if m.split(".")[0] == "json"]
    assert found == []


def _is_bool_test(node):
    """isinstance(x, bool) or isinstance(x, (..., bool, ...))."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
        return False
    kinds = node.args[1:]
    if kinds and isinstance(kinds[0], ast.Tuple):
        kinds = kinds[0].elts
    return any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds)


def _is_conversion(node):
    """A call of int, float, str, np.asarray or np.array."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("int", "float", "str")
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("asarray", "array")
        and isinstance(func.value, ast.Name)
        and func.value.id == "np"
    )


def test_only_io_decides_json_field_types():
    """Every from_json reads its fields through _io.json_field rather than
    converting raw JSON values itself, and only _io tells a boolean from a
    number, so the JSON type rule is written once."""
    found = []
    for name in _module_names():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if name != "_io" and _is_bool_test(node):
                found.append(f"{name}.py:{node.lineno} tests isinstance(..., bool)")
            if isinstance(node, ast.FunctionDef) and node.name == "from_json":
                found += [
                    f"{name}.py:{inner.lineno} converts a raw value in from_json"
                    for inner in ast.walk(node)
                    if _is_conversion(inner)
                ]
    assert found == []


def test_only_poseinit_composes_the_geometric_stages():
    """MDS, alignment and the IK are composed in one place,
    poseinit.estimate_from_distances, which every caller goes through; only
    distgeo (which defines them) and the package ``__init__`` (which
    re-exports them) name them besides."""
    stages = {"gram_from_edm", "points_from_gram", "align_points", "configuration_from_points"}
    found = []
    for name in _module_names():
        if name in ("distgeo", "poseinit", "__init__"):
            continue
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            named = {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else set()
            if isinstance(node, ast.Name):
                named = {node.id}
            elif isinstance(node, ast.Attribute):
                named = {node.attr}
            found += [f"{name}.py:{node.lineno} names {stage}" for stage in sorted(named & stages)]
    assert found == []


def test_only_poseinit_reads_the_pinhole_constants():
    """CameraIntrinsics.project is the one pinhole projection: no module
    besides poseinit reads a focal length or the principal point."""
    found = []
    for name in _module_names():
        if name == "poseinit":
            continue
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        found += [
            f"{name}.py:{node.lineno} reads .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("fx", "fy", "cx", "cy")
        ]
    assert found == []


def _calls(tree, called):
    """The calls in tree of a function or method named called, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == called:
                yield node


def test_only_kinematics_walks_the_chain():
    """kinematics.chain_frames is the one forward-kinematics walk: no module
    besides kinematics composes DH locals, except distgeo's IK, which picks
    each angle as it walks."""
    found = []
    for name in _module_names():
        if name == "kinematics":
            continue
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        allowed = set()
        if name == "distgeo":
            allowed = {
                id(inner)
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "configuration_from_points"
                for inner in ast.walk(node)
            }
        found += [
            f"{name}.py:{node.lineno} calls dh_transform"
            for node in _calls(tree, "dh_transform")
            if id(node) not in allowed
        ]
    assert found == []


def test_only_silhouette_poses_link_clouds():
    """silhouette._LinkClouds.pose is the one pose of link clouds, which
    render_link_clouds and the refiner's cache share: no module besides
    silhouette calls np.matmul."""
    found = []
    for name in _module_names():
        if name == "silhouette":
            continue
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        found += [f"{name}.py:{node.lineno} calls np.matmul" for node in _calls(tree, "matmul")]
    assert found == []


def test_only_silhouette_and_refine_rasterize():
    """silhouette._splat_window, fed by pixel_centers, is the one rasterizer:
    every mask is painted by render_silhouette, render_polyline or the
    refiner's cache, and no other module turns points into pixels."""
    found = []
    for name in _module_names():
        if name in ("silhouette", "refine"):
            continue
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        found += [
            f"{name}.py:{node.lineno} calls {called}"
            for called in ("pixel_centers", "_splat_window")
            for node in _calls(tree, called)
        ]
    assert found == []


def test_refine_keeps_one_rotation_state():
    """The search's only rotation state is the matrix: refine.py neither
    defines nor references the 6D codec, rot6d_to_matrix and
    matrix_to_rot6d, or a 6D code named r6."""
    banned = {"rot6d_to_matrix", "matrix_to_rot6d", "r6"}
    tree = ast.parse((PACKAGE / "refine.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named = {node.id}
        elif isinstance(node, ast.Attribute):
            named = {node.attr}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named = {node.name}
        elif isinstance(node, ast.arg):
            named = {node.arg}
        elif isinstance(node, ast.keyword):
            named = {node.arg}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named = {alias.asname or alias.name for alias in node.names} | {alias.name for alias in node.names}
        else:
            continue
        found += [f"refine.py:{getattr(node, 'lineno', '?')} names {name}" for name in sorted(named & banned)]
    assert found == []
