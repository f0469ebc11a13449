"""Static checks on the package source that no linter here makes."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "seqcontrast"

# Kept although only tests use them: the scikit-learn estimator convention,
# the independent trajectory validator the generation tests compare against,
# the documented usage exit code, and the inverse transform the
# correspondence tests map object points back to canonical coordinates with.
TEST_ONLY_ALLOWED = {"fit_transform", "trajectory_violations", "EXIT_USAGE", "inverse"}

# Defaulted parameters kept although no call in the package or the benchmark
# passes them, each with its reason.
UNCALLED_DEFAULTS_ALLOWED = {
    "autodiff.channel_norm(eps)": "the normalisation's epsilon, named where it is set; the tests vary it",
    "cli.main(argv)": "None reads the command line, as the console script does; the tests pass argument lists",
    "gradcheck.tiny_sequence(n_points)": "P8's bit-exact run trains on larger tiny sequences",
    "gradcheck.run_gradcheck(n_components)": "components sampled per term; P1 states its count",
    "synth.make_room(n_clutter)": "rooms without clutter let the synth tests check the walls and floor alone",
    "trainer.pretrain(resume)": "continues a saved run bit for bit; the resume test uses it",
    "trainer.probe(max_pairs_per_sequence)": "the probe's sample size; the tests raise it",
    **{
        f"trainer.ContrastivePretrainer.{name}": "the scikit-learn estimator convention"
        for name in (
            "__init__(steps)", "__init__(batch_size)", "__init__(learning_rate)", "__init__(seed)",
            "__init__(t)", "__init__(dtype)", "__init__(model)", "get_params(deep)", "fit_transform(y)",
        )
    },
}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never uses, unless it re-exports them
    through ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(b)\n") == ["line 2: c", "line 1: os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Modules a source imports, by ``import m`` or ``from m import n``;
    relative imports name their module without the package."""
    tree = ast.parse(source)
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names} | {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
    }


def test_only_formats_computes_checksums():
    """The CRC32 framing of the binary containers lives in one module:
    `formats` is the only package module that imports `zlib`."""
    assert imported_modules("import zlib\nfrom .formats import seal\ndef f():\n    import os\n") == {"zlib", "formats", "os"}
    assert [path.name for path in sorted(SRC.glob("*.py")) if "zlib" in imported_modules(path.read_text())] == ["formats.py"]


def defined_names(source: str) -> set[str]:
    """Module-level functions, classes and assigned names; dunder names are
    left out."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


def method_names(source: str) -> set[str]:
    """The methods of module-level classes; dunder names are left out."""
    return {
        sub.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
        for sub in node.body if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
    }


def attribute_names(source: str) -> set[str]:
    """Names a module looks up on an object: attributes, and string constants
    that are one identifier (names patched or fetched by string)."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


def referenced_names(source: str) -> set[str]:
    """Names a module reads or looks up: loaded names and `attribute_names`."""
    loaded = {
        node.id for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return loaded | attribute_names(source)


def test_detects_a_name_nothing_references():
    source = "X = 1\ndef f():\n    return g()\ndef g():\n    pass\nclass C:\n    def m(self):\n        pass\n"
    assert defined_names(source) == {"X", "f", "g", "C"}
    assert method_names(source) == {"m"}
    assert defined_names(source) - referenced_names(source) == {"X", "f", "C"}
    assert referenced_names("patch(mod, 'f')\n'not a name'\n") >= {"patch", "mod", "f"}
    # a local variable named like a method is no use of the method
    shadowed = source + "def h(x):\n    m = x\n    return m\n"
    assert method_names(shadowed) - attribute_names(shadowed) == {"m"}
    assert method_names(source) - attribute_names(source + "C().m()\n") == set()


def markdown_code_names(text: str) -> set[str]:
    """Words inside the fenced code blocks and inline code spans of a
    Markdown text; prose words do not count."""
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def test_detects_names_outside_markdown_code():
    text = "Run `check(x)` and read\n\n```\nfit(a)\n```\n\nthen check prose words.\n"
    assert markdown_code_names(text) == {"check", "x", "fit", "a"}
    assert "prose" not in markdown_code_names(text)


def test_no_src_names_only_tests_use():
    """Every function, method, class and constant of the package is used by
    the package, the benchmark or the README's code, not by tests alone. A
    method counts as used only through an attribute (or by string), so a
    local variable of the same name does not keep it. A benchmark name counts
    only if the benchmark does not define it itself."""
    readme = markdown_code_names((ROOT / "README.md").read_text())
    src = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
    bench = [path.read_text() for path in sorted((ROOT / "seqbench").rglob("*.py"))]
    bench_defined = set().union(*(defined_names(s) | method_names(s) for s in bench))
    used = readme.union(*map(referenced_names, src), *(referenced_names(s) - bench_defined for s in bench))
    looked_up = readme.union(*map(attribute_names, src), *(attribute_names(s) - bench_defined for s in bench))
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(
            ((defined_names(path.read_text()) - used) | (method_names(path.read_text()) - looked_up))
            - TEST_ONLY_ALLOWED
        )
    ]
    assert unused == []


def dataclass_fields(source: str) -> dict[str, list[str]]:
    """The fields of each module-level class decorated with ``dataclass``."""
    out = {}
    for node in ast.parse(source).body:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", [])]
        if isinstance(node, ast.ClassDef) and any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            out[node.name] = [
                sub.target.id for sub in node.body
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
            ]
    return out


def attribute_reads(source: str) -> set[str]:
    """Attribute names a module reads (``x.name`` in a load context), leaving
    out a read that only feeds the attribute of the same name
    (``a.f += b.f``): a field that is only summed into itself is never read."""
    tree = ast.parse(source)
    feeds = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = {t.attr for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Attribute)}
            feeds |= {id(sub) for sub in ast.walk(node.value) if isinstance(sub, ast.Attribute) and sub.attr in targets}
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in feeds
    }


def test_detects_a_field_nothing_reads():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "@dataclass\nclass B:\n    z: int\nclass C:\n    w: int\n"
        "def f(a, b):\n    b.z = a.x\n    b.y += a.y\n    b.y = a.y + 1\n"
    )
    assert dataclass_fields(source) == {"A": ["x", "y"], "B": ["z"]}
    assert attribute_reads(source) == {"x"}
    assert attribute_reads("b.z = a.y\nb.y += a.z\n") == {"y", "z"}


def test_no_dataclass_field_src_never_reads():
    """Every field of the package's dataclasses is read as an attribute
    somewhere in the package: a field that nothing reads is a setting that
    changes nothing."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    read = set().union(*(attribute_reads(source) for source in sources.values()))
    unread = [
        f"{name}: {cls}.{fld}"
        for name, source in sources.items()
        for cls, flds in dataclass_fields(source).items()
        for fld in flds
        if fld not in read
    ]
    assert unread == []


def uncalled_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of a
    function or method in ``sources`` (module name -> source) that no call in
    ``callers`` passes, by keyword, by position or through ``*``/``**``.
    Calls match by the called name alone: ``f(...)`` and ``obj.f(...)`` call
    every ``f``, and ``C(...)`` calls ``C.__init__``."""
    calls = defaultdict(list)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)].append(node)
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {id(sub): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for sub in node.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            positional = fn.args.posonlyargs + fn.args.args
            if cls and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list):
                positional = positional[1:]  # self or cls: calls pass the others
            first = len(positional) - len(fn.args.defaults)
            params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            callee = cls if fn.name == "__init__" else fn.name
            for index, name in params:
                if not any(
                    any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg in (None, name) for k in call.keywords)
                    or (index is not None and len(call.args) > index)
                    for call in calls[callee]
                ):
                    found.append(f"{module}.{cls + '.' if cls else ''}{fn.name}({name})")
    return found


def test_detects_a_defaulted_parameter_no_call_passes():
    source = (
        "def f(a, b=1, *, c=2):\n    pass\n"
        "def g(a=0, b=0):\n    pass\n"
        "class C:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
        "    @staticmethod\n    def s(w=0):\n        pass\n"
    )
    calls = "f(1, c=3)\ng(*args)\nC()\nobj.m(1)\nC.s(**kw)\n"
    assert sorted(uncalled_defaults({"mod": source}, [source, calls])) == ["mod.C.__init__(x)", "mod.C.m(z)", "mod.f(b)"]
    assert uncalled_defaults({"mod": source}, [calls + "f(0, 1)\nC(x=1)\nobj.m(z=2)\n"]) == []


def test_every_defaulted_parameter_has_a_caller():
    """A defaulted parameter that no call in the package or the benchmark
    passes is a setting that nothing sets: it goes, or it is listed with its
    reason in `UNCALLED_DEFAULTS_ALLOWED`, and a listed one is still found."""
    src = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "seqbench").rglob("*.py"))]
    found = set(uncalled_defaults(src, [*src.values(), *bench]))
    assert sorted(found - UNCALLED_DEFAULTS_ALLOWED.keys()) == []
    assert sorted(UNCALLED_DEFAULTS_ALLOWED.keys() - found) == []
