import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "miflab").glob("*.py"))
CONCURRENCY = ("multiprocessing", "concurrent.futures", "threading")


def concurrency_imports(tree):
    """The modules of CONCURRENCY, or their submodules, that tree imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in names
            if any(name == mod or name.startswith(mod + ".") for mod in CONCURRENCY)]


def test_scan_finds_concurrency_imports():
    tree = ast.parse("import threading\nfrom concurrent import futures\n"
                     "from multiprocessing.pool import Pool\nimport concurrent\n")
    assert concurrency_imports(tree) == [
        "threading", "concurrent.futures", "multiprocessing.pool",
        "multiprocessing.pool.Pool"]


def test_the_package_runs_in_one_thread_of_one_process():
    # searches are exact and deterministic; one process keeps them simple
    found = {path.name: concurrency_imports(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {name: mods for name, mods in found.items() if mods} == {}
