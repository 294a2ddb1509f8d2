"""Program-model unit tests: module naming, IR extraction, call
resolution (including package re-exports and function-local imports)."""

import ast
import textwrap

from repro.analysis.callgraph import (
    Program, extract_module, module_name_for_path,
)


def module(source: str, path: str) -> dict:
    return extract_module(ast.parse(textwrap.dedent(source)), path)


def test_module_name_for_src_layout_paths():
    assert module_name_for_path("src/repro/dsig/verifier.py") == \
        "repro.dsig.verifier"
    assert module_name_for_path("src/repro/xkms/__init__.py") == \
        "repro.xkms"


def test_extract_module_collects_functions_and_methods():
    info = module("""
        def helper(x):
            return x

        class Server:
            def handle(self, request):
                return helper(request)
    """, "src/repro/xkms/server.py")
    names = {f["qname"] for f in info["functions"]}
    assert "repro.xkms.server:helper" in names
    assert "repro.xkms.server:Server.handle" in names


def test_function_local_imports_are_visible():
    info = module("""
        def late(data):
            from repro.core.playback_pipeline import PlaybackPipeline
            return PlaybackPipeline()
    """, "src/repro/tools/cli.py")
    assert info["imports"]["PlaybackPipeline"] == \
        "repro.core.playback_pipeline.PlaybackPipeline"


def test_resolution_chases_package_reexports():
    program = Program([
        module("""
            from repro.xmlcore.parser import parse_element
        """, "src/repro/xmlcore/__init__.py"),
        module("""
            def parse_element(text):
                return text
        """, "src/repro/xmlcore/parser.py"),
        module("""
            from repro.xmlcore import parse_element

            def go(data):
                return parse_element(data)
        """, "src/repro/network/client.py"),
    ])
    assert program.resolve("repro.network.client", "parse_element") == \
        "repro.xmlcore.parser:parse_element"


def test_resolution_uses_tracked_variable_types():
    program = Program([
        module("""
            class Verifier:
                def verify(self, doc):
                    return doc
        """, "src/repro/dsig/verifier.py"),
        module("""
            from repro.dsig.verifier import Verifier

            def go(doc):
                v = Verifier()
                return v.verify(doc)
        """, "src/repro/core/example.py"),
    ])
    assert program.resolve(
        "repro.core.example", "v.verify",
        var_types={"v": ("repro.dsig.verifier", "Verifier")},
    ) == "repro.dsig.verifier:Verifier.verify"


def test_dataclass_plain_repr_fields_recorded():
    info = module("""
        from dataclasses import dataclass, field

        @dataclass
        class Key:
            n: int
            d: int
            data: bytes = field(repr=False)
    """, "src/repro/primitives/example.py")
    cls = info["classes"]["Key"]
    assert cls["dataclass"] is True
    fields = {name for name, _ in cls["plain_repr_fields"]}
    assert fields == {"n", "d"}


def test_class_defining_repr_is_marked():
    info = module("""
        from dataclasses import dataclass

        @dataclass
        class Key:
            d: int

            def __repr__(self):
                return "Key(<redacted>)"
    """, "src/repro/primitives/example.py")
    assert info["classes"]["Key"]["defines_repr"] is True


def test_ir_is_json_serializable():
    import json

    info = module("""
        class C:
            def m(self, x, cache):
                y = [x, f"v={x}"]
                cache[x] = y
                try:
                    return self.helper(y)
                except ValueError as exc:
                    raise RuntimeError(f"bad {exc}")
    """, "src/repro/network/roundtrip.py")
    assert json.loads(json.dumps(info)) == info
