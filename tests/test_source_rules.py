"""Source rules that no runtime test checks.

Most properties the paper's tables rest on are held by runtime tests:
serial and pool runs agree byte for byte, the worker entry points leave
process state alone (``tests/lint/test_process_state.py``), lint bodies
leave the certificate alone (``tests/lint/test_view_snapshots.py``) and
a leaked file or store fails the test that leaked it.  Three rules stay
here, because the bug each one names changes no output a test compares:

* **exception hygiene** in the parse, lint, engine, service and fuzz
  packages: no bare ``except:``; a broad ``except Exception`` re-raises
  or uses the exception it binds; and no tuple mixes ``Exception`` with
  narrow types it would make dead letters;
* **no blocking call in an** ``async def``: one ``time.sleep`` on the
  service's event loop stalls every connection, and every request still
  gets the right answer, later;
* **seeded randomness only in** ``repro.fuzz``: a campaign replays from
  its seed only if every draw comes from a ``random.Random(seed)``.  An
  unseeded draw taken once in a hundred samples slips past the campaign
  determinism tests in most runs.

Each rule maps a parsed module to the lines that break it.  The planted
cases parse from strings; the last tests run each rule over the tree.
"""

import ast
import pathlib
import textwrap

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: Packages whose parse, lint and service paths must not swallow errors.
HYGIENE_PACKAGES = ("asn1", "x509", "uni", "lint", "service", "engine", "fuzz")

_BROAD = frozenset({"Exception", "BaseException"})

_CF_MODULES = frozenset({"futures", "_cf", "cf", "concurrent"})
_SUBPROCESS_WAITS = frozenset({"run", "call", "check_call", "check_output"})

_RANDOM_MODULES = frozenset({"random", "secrets"})


def _chain(node: ast.expr) -> list[str]:
    """``a.b.c`` as ``["a", "b", "c"]``; the root is ``""`` when it is
    not a plain name (``f().result`` gives ``["", "result"]``)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "")
    return parts[::-1]


def _parse(source: str) -> ast.Module:
    return ast.parse(textwrap.dedent(source))


# -- exception hygiene --------------------------------------------------


def _uses_exception(handler: ast.ExceptHandler) -> bool:
    for node in handler.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if (
                isinstance(sub, ast.Name)
                and sub.id == handler.name
                and isinstance(sub.ctx, ast.Load)
            ):
                return True
    return False


def hygiene_violations(tree: ast.Module) -> list[int]:
    """Lines of handlers that swallow errors they cannot name."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            lines.append(node.lineno)
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {_chain(kind)[-1] for kind in types}
        if not names & _BROAD:
            continue
        if names - _BROAD or not _uses_exception(node):
            lines.append(node.lineno)
    return lines


# -- blocking calls on the event loop -----------------------------------


def _blocks(call: ast.Call) -> bool:
    chain = _chain(call.func)
    root, leaf = chain[0], chain[-1]
    if len(chain) == 1:
        return leaf in ("open", "urlopen")
    return (
        (leaf == "sleep" and root in ("time", "_time"))
        or (leaf in ("wait", "as_completed") and root in _CF_MODULES)
        # fut.result() blocks on a concurrent future and races an
        # asyncio one; await asyncio.wrap_future(fut) instead.
        or (leaf in ("result", "exception") and root not in _CF_MODULES)
        or root == "socket"
        or (root == "subprocess" and leaf in _SUBPROCESS_WAITS)
        or (leaf == "urlopen" and root in ("urllib", "request"))
    )


def blocking_calls(tree: ast.Module) -> list[int]:
    """Lines of blocking calls made on the loop inside ``async def``.

    A nested ``def`` or ``lambda`` is a done-callback or helper that
    runs off the loop, so it is skipped; a nested ``async def`` is
    checked on its own.
    """
    lines = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call) and _blocks(child):
                lines.append(child.lineno)
            visit(child)

    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            visit(node)
    return sorted(lines)


# -- seeded randomness ----------------------------------------------------


def unseeded_randomness(tree: ast.Module) -> list[int]:
    """Lines drawing randomness from anything but ``random.Random(seed)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in _RANDOM_MODULES:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            chain = _chain(node.func)
            if chain[0] in _RANDOM_MODULES:
                seeded = chain == ["random", "Random"] and (node.args or node.keywords)
                if not seeded:
                    lines.append(node.lineno)
            elif chain in (["os", "urandom"], ["uuid", "uuid1"], ["uuid", "uuid4"]):
                lines.append(node.lineno)
    return lines


# -- planted cases --------------------------------------------------------


class TestHygiene:
    @pytest.mark.parametrize("source", [
        """
        try:
            x = 1
        except:
            pass
        """,
        """
        try:
            x = 1
        except Exception:
            x = 2
        """,
        """
        try:
            x = 1
        except (ValueError, Exception) as exc:
            raise
        """,
        """
        class Certificate:
            @property
            def is_ca(self):
                try:
                    return parse(self)
                except:
                    return False
        """,
    ])
    def test_swallowing_handlers_are_flagged(self, source):
        assert len(hygiene_violations(_parse(source))) == 1

    @pytest.mark.parametrize("source", [
        """
        try:
            x = 1
        except ValueError:
            pass
        """,
        """
        try:
            x = 1
        except Exception as exc:
            record(exc)
        """,
        """
        try:
            x = 1
        except BaseException:
            cleanup()
            raise
        """,
    ])
    def test_handled_errors_pass(self, source):
        assert hygiene_violations(_parse(source)) == []


class TestBlocking:
    @pytest.mark.parametrize("call", [
        "time.sleep(0.01)",
        "open(path).read()",
        "future.result()",
        "_cf.wait(futures)",
        "subprocess.run(argv)",
        "socket.create_connection(address)",
        "urllib.request.urlopen(url)",
    ])
    def test_blocking_calls_in_coroutines_are_flagged(self, call):
        source = f"""
        class LintService:
            async def _handle_lint(self, request):
                {call}
                return await self._lint_der(request.body)
        """
        assert blocking_calls(_parse(source)) == [4]

    def test_off_loop_code_passes(self):
        source = """
        import time

        def pace():
            time.sleep(0.01)

        async def handle(future):
            def settle(done):
                return done.result()

            future.add_done_callback(settle)
            await asyncio.sleep(0.01)
            return await asyncio.wrap_future(future)
        """
        assert blocking_calls(_parse(source)) == []

    def test_nested_coroutines_are_checked(self):
        source = """
        async def outer():
            async def inner():
                time.sleep(1)
            await inner()
        """
        assert blocking_calls(_parse(source)) == [4]


class TestSeededRandomness:
    @pytest.mark.parametrize("source", [
        "position = rng.randrange(1 << 16) + (random.random() < 0.01)",
        "rng = random.Random()",
        "from random import choice",
        "token = secrets.token_bytes(4)",
        "noise = os.urandom(4)",
    ])
    def test_unseeded_draws_are_flagged(self, source):
        assert unseeded_randomness(_parse(source)) == [1]

    def test_a_seeded_generator_passes(self):
        source = """
        rng = random.Random(config.seed)
        value = rng.choice(options)
        """
        assert unseeded_randomness(_parse(source)) == []


# -- the live tree --------------------------------------------------------


def _offenders(rule, paths) -> list[str]:
    return [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in paths
        for line in rule(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_tree_handles_every_exception_it_catches():
    paths = sorted(p for pkg in HYGIENE_PACKAGES for p in (SRC / pkg).rglob("*.py"))
    assert len(paths) > 50
    assert _offenders(hygiene_violations, paths) == []


def test_tree_never_blocks_the_event_loop():
    paths = sorted(SRC.rglob("*.py"))
    assert any("async def" in path.read_text(encoding="utf-8") for path in paths)
    assert _offenders(blocking_calls, paths) == []


def test_fuzz_draws_only_from_seeded_generators():
    paths = sorted((SRC / "fuzz").rglob("*.py"))
    assert paths
    assert _offenders(unseeded_randomness, paths) == []
