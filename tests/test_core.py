"""Domain types, parameter validation, and the CSV/JSON round trips."""

import math

import numpy as np
import pytest

from masshist.core import (CountDataset, FitResult, ModelKind, ReParams,
                           SsbParams, Trajectory, dump_json, fit_result_from_dict,
                           fit_result_to_dict, format_count_csv,
                           params_from_dict, params_to_dict, parse_count_csv,
                           validate_params)
from masshist.errors import CsvFormatError, DomainError


class TestModelKind:
    def test_parameter_counts(self):
        assert ModelKind.LRM.n_params == 2
        assert ModelKind.LRM_PLUS.n_params == 3
        assert ModelKind.LRM_RE.n_params == 5
        assert ModelKind.SSB.n_params == 4
        assert ModelKind.SSB_PLUS.n_params == 5

    def test_labels(self):
        assert ModelKind.SSB_PLUS.label == "SSB+"
        assert ModelKind.LRM_RE.label == "LRM-RE"

    def test_from_string(self):
        assert ModelKind("ssb_plus") is ModelKind.SSB_PLUS


class TestSsbParams:
    def test_reference_point_is_valid(self):
        p = SsbParams(alpha=-3, beta=0.15, lam=4, gamma=1.5, eta=1)
        assert (p.alpha, p.beta, p.lam, p.gamma, p.eta) == (-3, 0.15, 4, 1.5, 1)

    @pytest.mark.parametrize("field,value", [
        ("beta", 0.0), ("beta", -0.1), ("lam", -1.0), ("lam", 0.0),
        ("gamma", 0.0), ("eta", -0.01), ("eta", 1.01),
    ])
    def test_rejects_out_of_domain(self, field, value):
        kwargs = dict(alpha=-3.0, beta=0.15, lam=4.0, gamma=1.5, eta=1.0)
        kwargs[field] = value
        with pytest.raises(DomainError):
            SsbParams(**kwargs)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SsbParams(alpha=math.nan, beta=0.15, lam=4, gamma=1.5)


class TestReParams:
    def test_valid_and_cov(self):
        p = ReParams(mu1=-2.0, mu2=0.2, rho=-0.5, sigma1=2.0, sigma2=0.1)
        cov = p.cov()
        assert cov.shape == (2, 2)
        assert cov[0, 1] == cov[1, 0] == -0.5 * 2.0 * 0.1
        # SPD for |rho| < 1
        assert np.all(np.linalg.eigvalsh(cov) > 0)
        assert p.eta == 1.0

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_rho_open_interval(self, rho):
        with pytest.raises(DomainError, match="rho"):
            ReParams(mu1=0, mu2=0, rho=rho, sigma1=1, sigma2=1)

    def test_sigma_positive(self):
        with pytest.raises(DomainError, match="sigma2"):
            ReParams(mu1=0, mu2=0, rho=0.0, sigma1=1, sigma2=0.0)


class TestValidateParams:
    def test_ssb_reference_point(self):
        p = validate_params(ModelKind.SSB, {"alpha": -3, "beta": 0.15,
                                            "lambda": 4, "gamma": 1.5,
                                            "eta": 1})
        assert isinstance(p, SsbParams)
        assert p.lam == 4.0

    def test_negative_lambda_names_the_field(self):
        with pytest.raises(DomainError, match="lambda"):
            validate_params(ModelKind.SSB, {"alpha": -3, "beta": 0.15,
                                            "lambda": -1, "gamma": 1.5})

    def test_re_rho_bound(self):
        with pytest.raises(DomainError, match="rho"):
            validate_params(ModelKind.LRM_RE,
                            {"mu1": 0, "mu2": 0, "rho": 1.0,
                             "sigma1": 1, "sigma2": 1})

    def test_lam_alias_accepted(self):
        p = validate_params(ModelKind.SSB, {"alpha": -3, "beta": 0.15,
                                            "lam": 4, "gamma": 1.5})
        assert p.lam == 4.0

    def test_lam_alias_conflict_rejected(self):
        with pytest.raises(DomainError):
            validate_params(ModelKind.SSB, {"alpha": -3, "beta": 0.15,
                                            "lam": 4, "lambda": 5,
                                            "gamma": 1.5})

    def test_base_models_pin_eta(self):
        with pytest.raises(DomainError):
            validate_params(ModelKind.SSB, {"alpha": -3, "beta": 0.15,
                                            "lambda": 4, "gamma": 1.5,
                                            "eta": 0.9})
        with pytest.raises(DomainError):
            validate_params(ModelKind.LRM, {"alpha": -3, "beta": 0.15,
                                            "eta": 0.9})

    def test_missing_field_reported(self):
        with pytest.raises(DomainError, match="gamma"):
            validate_params(ModelKind.SSB, {"alpha": -3, "beta": 0.15,
                                            "lambda": 4})

    def test_plain_logistic_returns_floats(self):
        out = validate_params(ModelKind.LRM_PLUS, {"alpha": -2, "beta": 0.1,
                                                   "eta": 0.8})
        assert out == {"alpha": -2.0, "beta": 0.1, "eta": 0.8}

    def test_param_roundtrip_identity(self):
        for model, vals in [
            (ModelKind.SSB_PLUS, {"alpha": -3.5, "beta": 0.6, "lambda": 4.8,
                                  "gamma": 0.9, "eta": 0.91}),
            (ModelKind.LRM_RE, {"mu1": -2.5, "mu2": 0.2, "rho": -0.7,
                                "sigma1": 2.8, "sigma2": 0.16, "eta": 1.0}),
        ]:
            obj = params_from_dict(model, vals)
            assert params_to_dict(obj) == vals

    def test_param_names(self):
        assert ModelKind.SSB.names == ("alpha", "beta", "lambda", "gamma")
        assert ModelKind.LRM_RE.names == ("mu1", "mu2", "rho", "sigma1",
                                          "sigma2")
        valid = {"alpha": -3.0, "beta": 0.15, "lambda": 4.0, "gamma": 1.5,
                 "eta": 0.9, "mu1": -2.5, "mu2": 0.2, "rho": -0.7,
                 "sigma1": 2.8, "sigma2": 0.16}
        for model in ModelKind:
            names = model.names
            assert model.n_params == len(names)
            vals = {n: valid[n] for n in names}
            out = params_to_dict(validate_params(model, vals))
            assert tuple(out) == tuple(dict.fromkeys(names + ("eta",)))
            assert out == {"eta": 1.0, **vals}


class TestCountDataset:
    def test_basic_properties(self):
        d = CountDataset(schedule=(2, 4), counts=((0, 1), (3,)), mass=10)
        assert d.n_times == 2
        assert d.n_obs == 3
        assert list(d.observations()) == [(2.0, 0), (2.0, 1), (4.0, 3)]
        assert d.n_distinct_times() == 2

    def test_grouped_collapses_duplicates(self):
        d = CountDataset(schedule=(2,), counts=((5, 5, 0, 5),), mass=10)
        [(t, ks, mult)] = d.grouped()
        assert t == 2.0
        assert ks.tolist() == [0, 5]
        assert mult.tolist() == [1, 3]

    @pytest.mark.parametrize("schedule,counts,mass", [
        # missing cells (ragged columns), k = 0 and k = mass
        ((2, 4, 8), ((0, 10, 0, 3), (10,), (0, 10, 10, 7, 7, 7)), 10),
        # a single time
        ((5,), ((1, 1, 0, 4),), 4),
        # empty columns, first, middle and last
        ((1, 2, 3, 4, 5), ((), (2, 0), (), (1,), ()), 2),
        # mass 1
        ((3, 6), ((0, 1, 1), (1,)), 1),
    ])
    def test_cell_table_matches_per_column_unique(self, schedule, counts,
                                                  mass):
        d = CountDataset(schedule=schedule, counts=counts, mass=mass)
        cells = d.cells
        want = []
        for t, col in zip(d.schedule, d.counts):
            if col:
                ks, mult = np.unique(np.asarray(col), return_counts=True)
                want.append((t, ks.tolist(), mult.tolist()))
        got = [(t, ks.tolist(), mult.tolist()) for t, ks, mult in d.grouped()]
        assert got == want
        assert cells.times.tolist() == [t for t, _, _ in want]
        assert cells.k.tolist() == [k for _, ks, _ in want for k in ks]
        assert cells.mult.tolist() == [m for _, _, ms in want for m in ms]
        assert cells.t.tolist() == [t for t, ks, _ in want for _ in ks]
        assert cells.time_index.tolist() == [
            j for j, (_, ks, _) in enumerate(want) for _ in ks]
        assert np.diff(cells.starts).tolist() == [len(ks) for _, ks, _ in want]
        assert cells.starts[0] == 0 and cells.starts[-1] == cells.n_cells
        assert int(cells.mult.sum()) == d.n_obs
        logc = [math.lgamma(mass + 1) - math.lgamma(k + 1)
                - math.lgamma(mass - k + 1) for k in cells.k.tolist()]
        assert np.allclose(cells.logc, logc, rtol=1e-13, atol=1e-13)
        assert d.n_distinct_times() == len(want)
        for name in ("t", "k", "mult", "logc", "times", "starts",
                     "time_index"):
            assert not getattr(cells, name).flags.writeable
        assert d.cells is cells

    def test_cell_table_of_an_empty_dataset(self):
        d = CountDataset(schedule=(2.0, 3.0), counts=((), ()), mass=5)
        assert d.grouped() == []
        assert d.cells.n_cells == 0 and d.cells.starts.tolist() == [0]
        assert d.n_distinct_times() == 0

    def test_rejects_nonincreasing_schedule(self):
        with pytest.raises(DomainError):
            CountDataset(schedule=(4, 2), counts=((0,), (0,)), mass=10)

    def test_rejects_count_above_mass(self):
        with pytest.raises(DomainError):
            CountDataset(schedule=(2,), counts=((11,),), mass=10)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            CountDataset(schedule=(0, 2), counts=((0,), (0,)), mass=10)


class TestTrajectory:
    def test_events_before_and_horizon(self):
        tr = Trajectory(counts=[0, 1, 1, 3], lead_time=2.0)
        assert tr.horizon == 3
        assert [tr.events_before(h) for h in range(4)] == [0, 1, 1, 3]
        with pytest.raises(DomainError):
            tr.events_before(4)
        with pytest.raises(DomainError):
            tr.events_before(-1)

    def test_rejects_decreasing_counts(self):
        with pytest.raises(DomainError):
            Trajectory(counts=[2, 1, 3], lead_time=0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            Trajectory(counts=[-1, 0, 1], lead_time=0.0)

    def test_events_before_exact_vs_hourly(self):
        # the record of events at 0.4, 2.0, 2.5 and 3.999, written out by
        # hand: counts[h] = events strictly before h, so the event at
        # exactly 2.0 first shows at hour 3
        ev = np.array([0.4, 2.0, 2.5, 3.999])
        tr = Trajectory(counts=[0, 1, 1, 3, 4, 4, 4], lead_time=0.0)
        for t in range(7):
            assert tr.events_before(t) == int(np.sum(ev < t))

    def test_events_before_rejects_fractional_hour(self):
        tr = Trajectory(counts=[0, 1, 1], lead_time=0.0)
        with pytest.raises(DomainError):
            tr.events_before(1.5)
        with pytest.raises(DomainError):
            tr.events_before(float("nan"))


class TestCountCsv:
    def test_roundtrip_identity_with_missing_cells(self):
        d = CountDataset(schedule=(2, 4, 10.5),
                         counts=((0, 3), (1, 2, 5), (7,)), mass=10)
        text = format_count_csv(d)
        back = parse_count_csv(text, 10)
        assert back == d

    def test_header_unit_suffix_stripped(self):
        d = parse_count_csv("2hrs,4hrs\n1,2\n", mass=5)
        assert d.schedule == (2.0, 4.0)

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n2,4\n1,2\n# trailing\n"
        d = parse_count_csv(text, mass=5)
        assert d.n_obs == 2

    def test_missing_markers(self):
        d = parse_count_csv("2,4\n.,1\n3,\n", mass=5)
        assert d.counts == ((3,), (1,))

    def test_empty_text_rejected(self):
        with pytest.raises(CsvFormatError):
            parse_count_csv("", mass=5)

    def test_bad_count_names_row_and_column(self):
        with pytest.raises(CsvFormatError, match=r"row 2, column 2"):
            parse_count_csv("2,4\n1,x\n", mass=5)

    def test_count_above_mass_names_cell(self):
        with pytest.raises(CsvFormatError, match=r"row 2, column 1"):
            parse_count_csv("2,4\n9,1\n", mass=5)

    def test_ragged_row_rejected(self):
        with pytest.raises(CsvFormatError, match="row 3"):
            parse_count_csv("2,4\n1,2\n1\n", mass=5)

    def test_bad_header_rejected(self):
        with pytest.raises(CsvFormatError, match="header"):
            parse_count_csv("two,4\n1,2\n", mass=5)

    def test_real_dataset_shape(self, real_dataset):
        # header times with the one missing cell dropped
        assert real_dataset.schedule == (2, 4, 6, 8, 10, 15, 20, 24, 48)
        assert real_dataset.n_obs == 89
        assert real_dataset.mass == 300
        sizes = [len(c) for c in real_dataset.counts]
        assert sizes.count(10) == 8
        assert sizes.count(9) == 1


class TestFitResultJson:
    def test_roundtrip(self):
        fit = FitResult(model=ModelKind.SSB_PLUS,
                        estimates={"alpha": -3.78, "beta": 0.54,
                                   "lambda": 4.81, "gamma": 0.88,
                                   "eta": 0.905},
                        loglik=-467.82, n_params=5, converged=True,
                        info=np.eye(5),
                        std_errors={"alpha": 0.1, "beta": 0.02,
                                    "lambda": 0.5, "gamma": 0.1,
                                    "eta": None},
                        trace=[{"stage": "final", "value": -467.82}])
        doc = fit_result_to_dict(fit, config={"mass": 300}, seed=7)
        back = fit_result_from_dict(doc)
        assert back.model is fit.model
        assert back.estimates == fit.estimates
        assert back.loglik == fit.loglik
        assert back.n_params == fit.n_params
        assert back.std_errors == fit.std_errors
        assert np.array_equal(back.info, fit.info)
        assert doc["config"] == {"mass": 300}
        assert doc["seed"] == 7

    def test_dump_json_layout(self, tmp_path):
        path = tmp_path / "doc.json"
        dump_json({"b": 1, "a": [1, 2]}, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
