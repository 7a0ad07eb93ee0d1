"""Documentation guards.

* every public class/function in the package carries a docstring;
* the generated API reference is in sync with the code;
* the prose docs reference only files that exist.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))


def _iter_public_members():
    import repro

    modules = [("repro", repro)] + [
        (info.name, importlib.import_module(info.name))
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith("__main__")
    ]
    for module_name, module in modules:
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or inspect.isfunction(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue
            yield module_name, name, member


class TestDocstrings:
    def test_every_module_documented(self):
        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue
            module = importlib.import_module(info.name)
            if not inspect.getdoc(module):
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_member_documented(self):
        missing = [
            f"{module}.{name}"
            for module, name, member in _iter_public_members()
            if not inspect.getdoc(member)
        ]
        assert not missing, f"public members without docstrings: {missing}"

    def test_public_methods_documented(self):
        missing = []
        for module, name, member in _iter_public_members():
            if not inspect.isclass(member):
                continue
            for attr_name, attr in vars(member).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not inspect.getdoc(attr):
                    missing.append(f"{module}.{name}.{attr_name}")
        assert not missing, f"public methods without docstrings: {missing}"


class TestGeneratedApiReference:
    def test_api_md_in_sync(self):
        gen = importlib.import_module("gen_api_docs")
        current = (ROOT / "docs" / "API.md").read_text()
        assert current == gen.render(), (
            "docs/API.md is stale; run `python tools/gen_api_docs.py`"
        )


#: Every prose document: the top-level ones and each page under docs/.
PROSE_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    p.relative_to(ROOT).as_posix() for p in (ROOT / "docs").glob("*.md")
)


class TestProseDocs:
    @pytest.mark.parametrize("doc", PROSE_DOCS)
    def test_referenced_paths_exist(self, doc):
        text = (ROOT / doc).read_text()
        # Check backticked repo-relative paths that look like files.
        candidates = re.findall(
            r"`((?:src|tests|benchmarks|examples|docs|tools)/[\w/.]+\.(?:py|md))`",
            text,
        )
        missing = [c for c in set(candidates) if not (ROOT / c).exists()]
        assert not missing, f"{doc} references missing files: {missing}"
