"""Documentation-coverage gates: every public item carries a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.asn1",
    "repro.uni",
    "repro.x509",
    "repro.lint",
    "repro.tlslibs",
    "repro.fuzz",
    "repro.testgen",
    "repro.tls",
    "repro.ct",
    "repro.threats",
    "repro.analysis",
    "repro.engine",
    "repro.corpusstore",
    "repro.service",
    "repro.memo",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                if info.name == "__main__":
                    continue  # importing it executes the CLI
                yield importlib.import_module(f"{package_name}.{info.name}")


@pytest.mark.parametrize(
    "module", list(iter_modules()), ids=lambda m: m.__name__
)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


def test_public_classes_and_functions_documented():
    undocumented = []
    for module in iter_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their source
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented[:20]}"
