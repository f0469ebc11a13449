import numpy as np
import pytest

from seqcontrast.gradcheck import (
    ABS_NOISE_FLOOR,
    check_term,
    relative_error,
    run_gradcheck,
    tiny_sequence,
)
from seqcontrast.losses import LossWeights
from seqcontrast.seqgen import build_correspondences


class TestRelativeError:
    def test_noise_floor_absorbs_roundoff(self):
        assert relative_error(0.0, 5e-8) == 0.0
        assert relative_error(1.0, 1.0 + 5e-8) == 0.0

    def test_real_errors_reported(self):
        assert relative_error(1.0, 1.1) == pytest.approx(0.1 / 1.1)
        assert relative_error(0.0, 1e-3) > 0

    def test_floor_constant_above_fd_roundoff(self):
        assert 1e-9 < ABS_NOISE_FLOOR < 1e-4


class TestTinySequence:
    def test_has_correspondences_everywhere(self):
        rng = np.random.default_rng(0)
        seq = tiny_sequence(rng, t=3)
        corr = build_correspondences(seq)
        assert all(len(ia) > 0 for ia, _ in corr.values())


class TestCheckTerm:
    @pytest.mark.parametrize(
        "weights",
        [LossWeights(1, 0, 0), LossWeights(0, 1, 0), LossWeights(0, 0, 1)],
        ids=["3d", "3d4d", "4d"],
    )
    def test_each_term_within_tolerance(self, weights):
        results = check_term(seed=0, weights=weights, n_components=10)
        assert len(results) == 10
        worst = max(r[3] for r in results)
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"


class TestRunGradcheck:
    def test_report_shape_and_pass(self):
        report = run_gradcheck(seed=0, n_seeds=1, n_components=5)
        assert report["checked"] == 4 * 5
        assert report["failures"] == []
        assert report["worst"] <= report["tolerance"]
