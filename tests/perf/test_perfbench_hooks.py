"""The benchmark's traced run patches program names from outside ``src/``.

``perfbench/layers.py`` wraps layer functions at the module attribute or
class attribute their callers look up.  A refactor that drops or renames one
of those names breaks the traced benchmark run; this test makes it fail here
instead, and checks that removing the tracer restores every original object.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "..", "perfbench")


@pytest.fixture
def perfbench_modules():
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        import layers
        import spans

        yield layers, spans
    finally:
        sys.path.remove(os.path.abspath(PERFBENCH))


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_every_name_and_remove_restores_it(perfbench_modules):
    layers, spans = perfbench_modules
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patches)
        assert patched, "the tracer patched nothing"
        for owner, attr, original in patched:
            current = _current(owner, attr)
            assert current is not original, f"{owner!r}.{attr} was not replaced"
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, f"{owner!r}.{attr} was not restored"
