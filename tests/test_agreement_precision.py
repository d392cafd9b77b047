"""Method agreement (paired differences, errors-in-variables line) and precision."""

import math
import warnings

import numpy as np
import pytest

from daval.agreement import (
    bland_altman,
    deming,
    precision_cells,
    variance_components,
    variance_components_from_cells,
)
from daval.dataset import StudyTable
from conftest import score_record


def replicate_records(cells):
    """cells: list of (subject, operator, values) -> Score records."""
    records = []
    i = 0
    for subject, operator, values in cells:
        for rep, v in enumerate(values):
            records.append(
                score_record(
                    subject,
                    v,
                    operator_id=operator,
                    replicate_index=rep,
                )
            )
            i += 1
    return records


def test_identical_measurements_agree_perfectly():
    x = [0.1, 0.4, 0.8, 0.3]
    res = bland_altman(x, x)
    assert res.mean_difference == 0.0
    assert res.sd_difference == 0.0
    assert res.loa_lower == 0.0
    assert res.loa_upper == 0.0
    assert res.loa_ci_halfwidth == 0.0


def test_constant_offset_detected_exactly():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    res = bland_altman(x, x + 2.0)
    assert res.mean_difference == -2.0
    assert res.sd_difference == 0.0
    assert res.loa_lower == -2.0
    assert res.loa_upper == -2.0


def test_shift_invariance_is_exact():
    # dyadic values keep every sum exactly representable, so the shifted
    # differences are bitwise identical and the results compare equal
    rng = np.random.default_rng(5)
    x = rng.integers(0, 64, size=25) / 8.0
    y = x + rng.integers(-8, 9, size=25) / 8.0
    assert bland_altman(x + 16.0, y + 16.0) == bland_altman(x, y)


def test_antisymmetry_under_swap():
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, size=30)
    y = x + rng.normal(0.3, 0.4, size=30)
    ab, ba = bland_altman(x, y), bland_altman(y, x)
    assert ba.mean_difference == pytest.approx(-ab.mean_difference, abs=1e-15)
    assert ba.sd_difference == pytest.approx(ab.sd_difference, abs=1e-15)
    assert ba.loa_lower == pytest.approx(-ab.loa_upper, abs=1e-14)
    assert ba.loa_upper == pytest.approx(-ab.loa_lower, abs=1e-14)


def test_loa_halfwidth_formula():
    rng = np.random.default_rng(7)
    x = rng.normal(5, 1, size=40)
    y = x + rng.normal(0, 0.7, size=40)
    res = bland_altman(x, y)
    z = 1.959963984540054
    expected = z * res.sd_difference * math.sqrt(1 / 40 + 1.96**2 / (2 * 39))
    assert res.loa_ci_halfwidth == pytest.approx(expected, rel=1e-12)


def test_bland_altman_input_validation():
    with pytest.raises(ValueError):
        bland_altman([1.0], [1.0])
    with pytest.raises(ValueError):
        bland_altman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        bland_altman([1.0, 2.0], [1.0, 2.0], level=0.0)


def test_deming_identity_line():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    fit = deming(x, x, lam=1.0)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_deming_recovers_noiseless_line_for_any_lambda():
    x = np.array([1.0, 2.5, 3.0, 4.5, 6.0, 7.5])
    y = 2.0 * x + 1.0
    for lam in (0.5, 1.0, 2.0):
        fit = deming(x, y, lam=lam)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)


def test_deming_swap_symmetry():
    rng = np.random.default_rng(8)
    truth = rng.uniform(0, 10, size=50)
    x = truth + rng.normal(0, 0.4, size=50)
    y = 1.7 * truth + 0.9 + rng.normal(0, 0.6, size=50)
    lam = 2.0
    forward = deming(x, y, lam=lam)
    backward = deming(y, x, lam=1.0 / lam)
    assert backward.slope == pytest.approx(1.0 / forward.slope, abs=1e-9)
    # the swapped line is the geometric inverse, so intercepts map too
    assert backward.intercept == pytest.approx(
        -forward.intercept / forward.slope, abs=1e-9
    )


def test_deming_line_passes_through_the_mean_point():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 5, size=20)
    y = 0.8 * x + rng.normal(0, 0.3, size=20)
    fit = deming(x, y, lam=1.0)
    assert fit.intercept + fit.slope * np.mean(x) == pytest.approx(
        float(np.mean(y)), rel=1e-12
    )


def test_deming_default_lambda_warns_and_matches_unity():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.1, 2.1, 2.9, 4.2]
    with pytest.warns(UserWarning, match="defaulting to 1"):
        fit_default = deming(x, y)
    fit_unit = deming(x, y, lam=1.0)
    assert fit_default.slope == fit_unit.slope
    assert fit_default.intercept == fit_unit.intercept
    assert fit_default.lam == 1.0


def test_deming_approaches_ols_as_x_noise_vanishes():
    rng = np.random.default_rng(10)
    truth = rng.uniform(0, 10, size=400)
    y_noise = rng.normal(0, 0.5, size=400)
    gaps = []
    for sd_x in (0.8, 0.3, 0.05):
        x = truth + rng.normal(0, sd_x, size=400)
        y = 1.5 * truth + 2.0 + y_noise
        ols = float(np.cov(x, y, ddof=1)[0, 1] / np.var(x, ddof=1))
        fit = deming(x, y, lam=1.0)
        gaps.append(abs(fit.slope - ols))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02


def test_deming_degenerate_geometry():
    with pytest.raises(ValueError, match="at least 3"):
        deming([1.0, 2.0], [1.0, 2.0], lam=1.0)
    with pytest.raises(ValueError, match="no spread"):
        deming([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], lam=1.0)
    # zero covariance, y variance below lam * x variance: flat line
    flat = deming([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], lam=1.0)
    assert flat.slope == 0.0
    assert flat.intercept == pytest.approx(2 / 3)
    # zero covariance, y variance dominant: vertical, no finite slope
    with pytest.raises(ValueError, match="vertical"):
        deming([1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], lam=1.0)
    # zero covariance at the exact isotropic point: orientation undefined
    # (integer data keep s_yy == lam * s_xx exact: 3 == 3 * 1)
    with pytest.raises(ValueError, match="orientation undefined"):
        deming([-1.0, 0.0, 1.0], [1.0, 4.0, 1.0], lam=3.0)


def test_single_condition_precision_worked_example():
    comp = variance_components_from_cells({("s1", ("op1",)): [9.0, 10.0, 11.0]})
    assert comp.grand_mean == pytest.approx(10.0)
    assert comp.repeatability_sd == pytest.approx(1.0)
    assert comp.between_condition_sd == 0.0
    assert comp.reproducibility_sd == pytest.approx(1.0)
    assert comp.cv_repeatability == pytest.approx(10.0)
    assert comp.df_repeatability == 2
    assert comp.df_condition == 0
    assert not comp.negative_component_clipped


def test_identical_replicate_sets_give_zero_between_component():
    comp = variance_components_from_cells(
        {("s1", ("opA",)): [1.0, 2.0, 3.0], ("s1", ("opB",)): [1.0, 2.0, 3.0]}
    )
    assert comp.between_condition_sd == 0.0
    assert comp.reproducibility_sd == comp.repeatability_sd
    assert comp.negative_component_clipped  # ms_between 0 < ms_within clips


def test_balanced_design_matches_mean_square_oracle():
    cells = {
        ("s1", ("opA",)): [10.1, 9.9, 10.3],
        ("s1", ("opB",)): [10.8, 10.6, 11.0],
        ("s2", ("opA",)): [7.9, 8.2, 8.1],
        ("s2", ("opB",)): [8.6, 8.4, 8.8],
    }
    comp = variance_components_from_cells(cells)

    ss_within = 0.0
    cond_vars = []
    for subject in ("s1", "s2"):
        groups = [np.asarray(cells[(subject, ("opA",))]), np.asarray(cells[(subject, ("opB",))])]
        for g in groups:
            ss_within += float(np.sum((g - g.mean()) ** 2))
        subject_all = np.concatenate(groups)
        ms_between = sum(
            3 * (g.mean() - subject_all.mean()) ** 2 for g in groups
        )  # df 1
        ms_within_subject = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups) / 4
        cond_vars.append(max((ms_between - ms_within_subject) / 3.0, 0.0))
    var_repeat = ss_within / 8  # 4 cells * (3 - 1) df
    var_cond = float(np.mean(cond_vars))  # equal df 1 each

    assert comp.repeatability_sd == pytest.approx(math.sqrt(var_repeat), abs=1e-10)
    assert comp.between_condition_sd == pytest.approx(math.sqrt(var_cond), abs=1e-10)
    assert comp.reproducibility_sd == pytest.approx(
        math.sqrt(var_repeat + var_cond), abs=1e-10
    )
    assert comp.n_subjects == 2
    assert comp.df_repeatability == 8
    assert comp.df_condition == 2


def test_reproducibility_never_below_repeatability_random_designs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cells = {}
        for s in range(rng.integers(1, 4)):
            for c in range(rng.integers(1, 4)):
                n_rep = int(rng.integers(2, 5))
                cells[(f"s{s}", (f"c{c}",))] = rng.normal(10, 1, size=n_rep).tolist()
        comp = variance_components_from_cells(cells)
        assert comp.reproducibility_sd >= comp.repeatability_sd


def test_relabeling_conditions_does_not_change_components():
    records = replicate_records(
        [
            ("s1", "opA", [0.51, 0.49, 0.53]),
            ("s1", "opB", [0.58, 0.56, 0.60]),
            ("s2", "opA", [0.39, 0.42, 0.41]),
            ("s2", "opB", [0.46, 0.44, 0.48]),
        ]
    )
    renamed = replicate_records(
        [
            ("s2", "north", [0.46, 0.44, 0.48]),
            ("s1", "north", [0.58, 0.56, 0.60]),
            ("s1", "south", [0.51, 0.49, 0.53]),
            ("s2", "south", [0.39, 0.42, 0.41]),
        ]
    )
    a = variance_components(StudyTable.from_records(records), condition_fields=("operator_id",))
    b = variance_components(StudyTable.from_records(renamed), condition_fields=("operator_id",))
    assert a.repeatability_sd == pytest.approx(b.repeatability_sd, abs=1e-15)
    assert a.between_condition_sd == pytest.approx(b.between_condition_sd, abs=1e-15)
    assert a.reproducibility_sd == pytest.approx(b.reproducibility_sd, abs=1e-15)


def test_precision_cells_groups_by_subject_and_condition():
    records = replicate_records(
        [("s1", "opA", [0.5, 0.6]), ("s1", "opB", [0.4]), ("s2", "opA", [0.7])]
    )
    cells = precision_cells(StudyTable.from_records(records), condition_fields=("operator_id",))
    assert cells[("s1", ("opA",))] == [0.5, 0.6]
    assert cells[("s1", ("opB",))] == [0.4]
    assert cells[("s2", ("opA",))] == [0.7]


def test_precision_cells_missing_condition_becomes_question_mark():
    records = [score_record("s1", 0.5), score_record("s1", 0.6)]
    cells = precision_cells(StudyTable.from_records(records), condition_fields=("operator_id",))
    assert list(cells) == [("s1", ("?",))]


def test_precision_requires_score_outputs_and_known_fields():
    from conftest import binary_record
    from daval.dataset import Label

    with pytest.raises(ValueError, match="[Ss]core"):
        precision_cells(StudyTable.from_records([binary_record("s1", Label.POSITIVE, Label.POSITIVE)]))
    with pytest.raises(ValueError, match="condition field"):
        precision_cells(StudyTable.from_records([score_record("s1", 0.5)]), condition_fields=("shift",))


def test_unreplicated_cells_cannot_estimate_repeatability():
    cells = {("s1", ("opA",)): [1.0], ("s2", ("opA",)): [2.0]}
    with pytest.raises(ValueError, match="no replicated cell"):
        variance_components_from_cells(cells)
