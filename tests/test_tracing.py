"""The benchmark's tracer can patch every program function it names.

`seqbench/tracing.py` rebinds public functions of the program by name; a
renamed or deleted one makes `Tracer.install` fail. This runs the install and
uninstall alone, so that shows up here instead of in a traced benchmark run,
and checks that the wrapped `build_kernel_map` still records its builds.
"""

import sys
from pathlib import Path

import numpy as np
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


def test_kernel_map_builds_are_recorded(tracing):
    """The tracer wraps `sparse.build_kernel_map` by name and positional
    signature; a sub, a stride-2 and a transposed conv each build one map.
    Repeated on the same tensors they find their maps in ``x.maps`` and build
    none, and each conv still counts the pairs recorded at the build."""
    from seqcontrast import sparse
    from seqcontrast.autodiff import Var

    rng = np.random.default_rng(0)
    coords, _ = sparse.unique_coords(np.column_stack([np.zeros(40, dtype=np.int64), rng.integers(0, 4, size=(40, 3))]))
    x = sparse.SparseTensor(coords, rng.normal(size=(len(coords), 2)), (1, 1, 1))
    w_sub, w_down, w_up = (Var(rng.normal(size=shape)) for shape in ((27, 2, 2), (8, 2, 3), (8, 2, 3)))
    names = [tracing.shape_name(*shape) for shape in (("conv", 3, 27, 2, 2), ("conv", 3, 8, 2, 3), ("up", 3, 8, 3, 2))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sparse.sparse_conv(x, w_sub, stride=1)
        down = sparse.sparse_conv(x, w_down, stride=2)
        sparse.transpose_conv(down, w_up, x.coords, x.stride)
        at_build = {name: tracer.total(f"{name}.pairs") for name in names}
        sparse.sparse_conv(x, w_sub, stride=1)
        sparse.sparse_conv(x, w_down, stride=2)
        sparse.transpose_conv(down, w_up, x.coords, x.stride)
    finally:
        tracer.uninstall()
    assert tracer.total("sparse.kmap_builds") == 3
    assert tracer.total("sparse.kmap_build_ms") > 0
    assert set(tracer.densities) == {"sub3d", "down3d", "up3d"}
    assert all(at_build.values())
    assert {name: tracer.total(f"{name}.pairs") for name in names} == {name: 2 * n for name, n in at_build.items()}
