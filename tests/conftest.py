import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from seqcontrast import autodiff as ad
from seqcontrast import synth
from seqcontrast.geom import height_accumulate
from seqcontrast.seqgen import GenParams, generate_dataset, make_sequence, valid_positions
from seqcontrast.synth import object_footprint_radius


def mul(a, b):
    """Elementwise product with its gradient, to turn op outputs into scalar
    test losses (sum_all(mul(out, weights)))."""
    av, bv = a.value, b.value
    return ad.Var(av * bv, (a, b), lambda g: (g * bv, g * av))


def sum_all(x):
    """Sum of every entry, with its gradient."""
    return ad.Var(np.asarray(x.value.sum()), (x,), lambda g: (np.broadcast_to(g, x.value.shape).copy(),))


@pytest.fixture(scope="session")
def small_room():
    rng = np.random.default_rng(11)
    return synth.make_room(rng, size=3.0, spacing=0.08)


@pytest.fixture(scope="session")
def small_object():
    rng = np.random.default_rng(12)
    return synth.make_object(rng, kind="box", n_points=300)


@pytest.fixture(scope="session")
def small_candidates(small_room, small_object):
    occ = height_accumulate(small_room)
    cand = valid_positions(occ, object_footprint_radius(small_object))
    assert len(cand), "fixture room must admit placements"
    return occ, cand


@pytest.fixture(scope="session")
def small_sequence(small_room, small_object, small_candidates):
    occ, cand = small_candidates
    rng = np.random.default_rng(13)
    params = GenParams(t=4, object_sample=300, scene_cell=0.04)
    return make_sequence(small_room, small_object, cand, occ.floor_height, rng, params)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory, small_room, small_object):
    out = tmp_path_factory.mktemp("dataset")
    params = GenParams(t=4, object_sample=300, scene_cell=0.04)
    stats = generate_dataset([small_room], [small_object], out, per_scene=3, t=4, seed=5, params=params)
    assert stats["written"] >= 1
    return out
