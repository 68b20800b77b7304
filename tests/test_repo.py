"""Repository hygiene: nothing ignored by .gitignore is tracked, every
third-party module the package imports at load time is a declared dependency,
and every data file the package reads is declared package data."""
import ast
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "comal"


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a checkout")
def test_no_tracked_file_is_gitignored():
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout == ""


def load_time_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports that run when ``source`` is
    imported: those outside any function body."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.add(child.module.partition(".")[0])
            visit(child)

    visit(ast.parse(source))
    return found


def undeclared(sources, dependencies) -> set[str]:
    """Third-party modules imported at load time by ``sources`` but missing
    from the requirement strings ``dependencies``."""
    declared = {re.match(r"[A-Za-z0-9._-]+", d).group().lower().replace("-", "_")
                for d in dependencies}
    imported = set().union(*map(load_time_imports, sources))
    return {m for m in imported - set(sys.stdlib_module_names) - {PACKAGE.name}
            if m.lower() not in declared}


def pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def declared_dependencies() -> list[str]:
    return pyproject()["project"]["dependencies"]


def test_every_load_time_import_is_a_declared_dependency():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))]
    assert undeclared(sources, declared_dependencies()) == set()


def test_the_dependency_check_sees_what_it_must():
    harness = (PACKAGE / "harness.py").read_text(encoding="utf-8")
    deps = declared_dependencies()
    assert undeclared([harness], [d for d in deps if not d.startswith("orjson")]) == {"orjson"}
    in_function = "def complete():\n    import requests\n"
    assert undeclared([in_function], []) == set()
    assert undeclared(["import requests.adapters\n"], []) == {"requests"}
    assert undeclared(["try:\n    from requests import post\nexcept ImportError:\n"
                       "    pass\n"], ["requests>=2.28"]) == set()


def unpackaged(package_dir: Path, globs) -> set[str]:
    """Files under the package's ``templates/`` and ``experiences/`` that no
    package-data glob in ``globs`` picks up, relative to ``package_dir``."""
    data = {p for d in ("templates", "experiences")
            for p in (package_dir / d).rglob("*") if p.is_file()}
    packaged = set().union(*(package_dir.glob(g) for g in globs))
    return {p.relative_to(package_dir).as_posix() for p in data - packaged}


def declared_package_data() -> list[str]:
    return pyproject()["tool"]["setuptools"]["package-data"][PACKAGE.name]


def test_every_data_file_is_declared_package_data():
    # tier-1 imports comal from src/, so only this sees what an install would lack
    assert unpackaged(PACKAGE, declared_package_data()) == set()


def test_the_package_data_check_sees_what_it_must():
    globs = declared_package_data()
    experiences = {f"experiences/{p.name}" for p in (PACKAGE / "experiences").glob("*.json")}
    assert experiences
    assert unpackaged(PACKAGE, [g for g in globs if g != "experiences/*.json"]) == experiences
    assert unpackaged(PACKAGE, []) >= experiences | {"templates/v1/reason_user.txt"}
