"""Ensemble diagnostics and the principal-component machinery.

Oracles: numpy's covariance for the stacking logic, bisection on the
characteristic polynomial for 3x3 eigenvalues (conftest helper), and
closed-form spectra for structured matrices.
"""

import json
import math

import numpy as np
import pytest
from conftest import charpoly_eigenvalues_3x3

from masshist.analysis import (DynamicsReport, Spectrum, cross_section,
                               dynamics_report, mean_curve, pca_cumvar,
                               trajectory_covariance, write_report)
from masshist.core import CountDataset, FitResult, ModelKind, Trajectory
from masshist.errors import DomainError, GridMismatch, NotSymmetric
from masshist.likelihood import ssb_count_loglik


def hourly_trajectory(event_times, horizon=10):
    """counts[h] = number of the given event times strictly before h."""
    ev = np.sort(np.asarray(event_times, dtype=float))
    counts = np.searchsorted(ev, np.arange(horizon + 1), side="left")
    return Trajectory(counts=counts, lead_time=0.0)


class TestMeanCurve:
    def test_single_trajectory_is_identity(self):
        tr = hourly_trajectory([0.5, 2.5, 2.6])
        assert np.array_equal(mean_curve([tr]), tr.counts.astype(float))

    def test_all_zero(self):
        trs = [hourly_trajectory([]) for _ in range(4)]
        assert np.array_equal(mean_curve(trs), np.zeros(11))

    def test_elementwise_average(self):
        a = hourly_trajectory([0.5])
        b = hourly_trajectory([0.5, 1.5, 3.5])
        got = mean_curve([a, b])
        assert np.array_equal(got, (a.counts + b.counts) / 2.0)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            mean_curve([hourly_trajectory([], horizon=10),
                        hourly_trajectory([], horizon=12)])

    def test_empty_ensemble(self):
        with pytest.raises(DomainError):
            mean_curve([])


class TestCrossSection:
    def test_point_mass(self):
        trs = [hourly_trajectory([0.5, 1.5])] * 7
        assert cross_section(trs, 1.0) == {1: 7}
        assert cross_section(trs, 2.0) == {2: 7}

    def test_counts_partition_the_ensemble(self):
        trs = [hourly_trajectory([0.5] * k) for k in (0, 0, 1, 2, 2, 2)]
        assert cross_section(trs, 0.0) == {0: 6}
        assert cross_section(trs, 1.0) == {0: 2, 1: 1, 2: 3}

    def test_off_grid_hour_rejected(self):
        with pytest.raises(DomainError):
            cross_section([hourly_trajectory([])], 3.5)
        with pytest.raises(DomainError):
            cross_section([hourly_trajectory([])], 11.0)

    def test_first_hour_mostly_silent(self, ssb_ensemble_2000):
        # a group shows nothing before hour 1 at least as often as its
        # lead time exceeds one hour: Pr[U >= 1] = exp(-(1/4)**1.5) ~ 0.88
        freq = cross_section(ssb_ensemble_2000, 1.0)
        assert freq.get(0, 0) / 2000.0 > 0.8

    def test_hour_four_zero_fraction_matches_model(self, theta0,
                                                   ssb_ensemble_2000):
        # the reading at hour 4 is N(4), the count the likelihood models
        freq = cross_section(ssb_ensemble_2000, 4.0)
        got = freq.get(0, 0) / 2000.0
        want = math.exp(ssb_count_loglik(theta0, 300, 4.0, 0))
        se = math.sqrt(want * (1.0 - want) / 2000.0)
        assert abs(got - want) < 3.0 * se


class TestTrajectoryCovariance:
    def test_identical_trajectories_have_zero_covariance(self):
        trs = [hourly_trajectory([0.5, 3.5])] * 5
        assert np.array_equal(trajectory_covariance(trs), np.zeros((10, 10)))

    def test_matches_numpy_covariance(self):
        rng = np.random.default_rng(31)
        trs = [hourly_trajectory(np.cumsum(rng.random(6) * 3.0))
               for _ in range(9)]
        got = trajectory_covariance(trs)
        stack = np.stack([t.counts[1:] for t in trs]).astype(float)
        want = np.cov(stack.T, ddof=1)
        assert np.allclose(got, want, atol=1e-12)
        assert got.shape == (10, 10)

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(32)
        trs = [hourly_trajectory(np.cumsum(rng.random(5) * 4.0))
               for _ in range(8)]
        cov = trajectory_covariance(trs)
        assert np.array_equal(cov, cov.T)

    def test_needs_two_trajectories(self):
        with pytest.raises(DomainError):
            trajectory_covariance([hourly_trajectory([1.5])])


def eigenvalues(m):
    return pca_cumvar(m).eigenvalues


class TestJacobiEigenvalues:
    """The eigenvalues pca_cumvar reports, whichever solver computes them
    (the class keeps its name so the test ids stay stable)."""

    def test_identity(self):
        assert np.allclose(eigenvalues(np.eye(3)), 1.0, atol=1e-15)

    def test_diagonal_sorted_descending(self):
        ev = eigenvalues(np.diag([2.0, 7.0, -1.0]))
        assert np.allclose(ev, [7.0, 2.0, -1.0], atol=1e-15)

    def test_rank_one(self):
        v = np.array([1.0, -2.0, 2.0])
        ev = eigenvalues(np.outer(v, v))
        assert ev[0] == pytest.approx(9.0, rel=1e-12)
        assert np.all(np.abs(ev[1:]) < 1e-12)

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(3, 3))
        m = 0.5 * (m + m.T)
        got = eigenvalues(m)
        want = charpoly_eigenvalues_3x3(m)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(8, 8))
        m = 0.5 * (m + m.T)
        ev = eigenvalues(m)
        assert ev.sum() == pytest.approx(np.trace(m), rel=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(5, 5))
        m = 0.5 * (m + m.T)
        perm = rng.permutation(5)
        assert np.allclose(eigenvalues(m),
                           eigenvalues(m[np.ix_(perm, perm)]),
                           atol=1e-10)

    def test_zero_matrix(self):
        assert np.array_equal(eigenvalues(np.zeros((4, 4))),
                              np.zeros(4))

    def test_ensemble_covariance_is_psd(self, ssb_ensemble_2000):
        cov = trajectory_covariance(ssb_ensemble_2000[:300])
        ev = eigenvalues(cov)
        scale = max(ev[0], 1.0)
        assert np.all(ev > -1e-9 * scale)
        assert ev.sum() == pytest.approx(np.trace(cov), rel=1e-9)


class TestPcaCumvar:
    def test_two_mode_spectrum(self):
        spec = pca_cumvar(np.diag([3.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0])
        assert np.allclose(spec.cum_frac, [0.75, 1.0])

    def test_zero_matrix_convention(self):
        spec = pca_cumvar(np.zeros((3, 3)))
        assert np.array_equal(spec.cum_frac, np.ones(3))
        assert spec.components_for(0.9) == 1

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(NotSymmetric):
            pca_cumvar(m)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            pca_cumvar(np.ones((2, 3)))


class TestSpectrum:
    def test_components_for_thresholds(self):
        spec = Spectrum(eigenvalues=np.array([4.0, 3.0, 2.0, 1.0]),
                        cum_frac=np.array([0.4, 0.7, 0.9, 1.0]))
        assert spec.components_for(0.39) == 1
        assert spec.components_for(0.4) == 1
        assert spec.components_for(0.41) == 2
        assert spec.components_for(0.9) == 3
        assert spec.components_for(1.0) == 4

    def test_fraction_domain(self):
        spec = Spectrum(eigenvalues=np.array([1.0]),
                        cum_frac=np.array([1.0]))
        with pytest.raises(DomainError):
            spec.components_for(0.0)
        with pytest.raises(DomainError):
            spec.components_for(1.5)

    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(DomainError):
            Spectrum(eigenvalues=np.array([1.0, 2.0]),
                     cum_frac=np.array([0.3, 1.0]))


def fake_fit(model, loglik):
    m = ModelKind(model)
    return FitResult(model=m, estimates={}, loglik=loglik,
                     n_params=m.n_params, converged=True)


def small_report(hours=(2, 5)):
    rng = np.random.default_rng(77)
    ssb = [hourly_trajectory(np.cumsum(rng.random(4) * 4.0))
           for _ in range(12)]
    re = [hourly_trajectory(np.cumsum(rng.random(4) * 2.0))
          for _ in range(12)]
    data = CountDataset(schedule=(2.0, 4.0), counts=((1, 0), (2, 3)),
                        mass=50)
    fits = [fake_fit("lrm", -150.0), fake_fit("ssb", -100.0),
            fake_fit("lrm_re", -120.0)]
    return dynamics_report(ssb, re, data, fits, hours=hours)


class TestDynamicsReport:
    def test_summary_fields(self):
        rep = small_report()
        assert rep.log_lr == pytest.approx(20.0)
        assert rep.n_obs == 4
        assert rep.hours == (2.0, 5.0)
        assert set(rep.cross_ssb) == {2.0, 5.0}
        assert rep.bic is not None
        assert {r["model"] for r in rep.bic} == {"lrm", "lrm_re", "ssb"}

    def test_identical_ensembles_collapse(self):
        trs = [hourly_trajectory([0.5, 1.5, 2.5]),
               hourly_trajectory([0.2, 3.5])]
        data = CountDataset(schedule=(2.0,), counts=((1,),), mass=10)
        rep = dynamics_report(trs, trs, data, [], hours=(2,))
        assert np.array_equal(rep.mean_ssb, rep.mean_re)
        assert rep.cross_ssb == rep.cross_re
        assert np.array_equal(rep.spectrum_ssb.eigenvalues,
                              rep.spectrum_re.eigenvalues)
        assert rep.log_lr is None
        assert rep.bic is None

    def test_grid_mismatch_across_ensembles(self):
        a = [hourly_trajectory([], horizon=10)] * 2
        b = [hourly_trajectory([], horizon=12)] * 2
        data = CountDataset(schedule=(2.0,), counts=((1,),), mass=10)
        with pytest.raises(GridMismatch):
            dynamics_report(a, b, data, [], hours=(2,))

    def test_write_report_inventory(self, tmp_path):
        rep = small_report()
        names = write_report(rep, tmp_path)
        expected = {"mean_curves.csv", "cross_section_2.csv",
                    "cross_section_5.csv", "spectrum_ssb.csv",
                    "spectrum_re.csv", "summary.json"}
        assert set(names) == expected
        for n in expected:
            assert (tmp_path / n).exists()

        lines = (tmp_path / "mean_curves.csv").read_text().strip().split("\n")
        assert lines[0] == "hour,ssb,re"
        assert len(lines) == 1 + rep.grid.size
        hour, ssb, re = lines[1].split(",")
        assert float(ssb) == rep.mean_ssb[0] and int(hour) == 0

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["log_lr"] == pytest.approx(20.0)
        assert summary["n_obs"] == 4
        assert summary["n_params"]["ssb"] == 4
        assert summary["n_params"]["lrm_re"] == 5

        spec_lines = (tmp_path / "spectrum_ssb.csv").read_text().strip()
        rows = spec_lines.split("\n")[1:]
        assert len(rows) == rep.spectrum_ssb.eigenvalues.size
        first = rows[0].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == rep.spectrum_ssb.eigenvalues[0]
