"""The benchmark's tracer can patch every program function it names.

`seqbench/tracing.py` rebinds public functions of the program by name; a
renamed or deleted one makes `Tracer.install` fail. This runs the install and
uninstall alone, so that shows up here instead of in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "seqbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_install_then_uninstall_restores_every_name(tracing):
    from seqcontrast import gradcheck, losses, nets, trainer

    modules = [gradcheck, losses, nets, trainer]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nets.points_to_tensor is not before[2]["points_to_tensor"]
        assert losses.loss_4d is not before[1]["loss_4d"]
    finally:
        tracer.uninstall()
    for module, names in zip(modules, before):
        for name, value in names.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name} not restored"
