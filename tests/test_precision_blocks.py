"""The precision kernel's cell statistics, computed in blocks.

`variance_components_from_cells` takes every cell's mean and within-cell sum
of squares from one (k, r) block per replicate count r. These tests pin it,
field for field and bit for bit, to the per-cell loop it replaced, count its
numpy reductions, and check the errors for cells it cannot use.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daval.agreement import PrecisionComponents, variance_components, variance_components_from_cells
from daval.cli import main as cli_main
from daval.dataset import ingest_csv


def _per_cell_reference(cells):
    """The kernel as it was before the block form: numpy calls cell by cell."""
    if not cells:
        raise ValueError("no measurements")
    by_subject = {}
    for (subject, cond), values in cells.items():
        by_subject.setdefault(subject, {})[cond] = values

    ss_within_total = 0.0
    df_within_total = 0
    cond_weighted = 0.0
    df_cond_total = 0
    clipped = False
    all_values = []

    for conditions in by_subject.values():
        ss_within = 0.0
        df_within = 0
        counts = []
        means = []
        values_flat = []
        for vals in conditions.values():
            arr = np.asarray(vals, dtype=float)
            values_flat.extend(arr.tolist())
            counts.append(len(arr))
            means.append(float(np.mean(arr)))
            if len(arr) >= 2:
                ss_within += float(np.sum((arr - np.mean(arr)) ** 2))
                df_within += len(arr) - 1
        all_values.extend(values_flat)
        ss_within_total += ss_within
        df_within_total += df_within

        m = len(conditions)
        if m >= 2:
            n_total = sum(counts)
            subject_mean = 0.0  # left folds: the builtin sum compensates since Python 3.12
            for c, mu in zip(counts, means):
                subject_mean += c * mu
            subject_mean /= n_total
            ss_between = 0.0
            for c, mu in zip(counts, means):
                ss_between += c * (mu - subject_mean) ** 2
            df_between = m - 1
            ms_between = ss_between / df_between
            n0 = (n_total - sum(c * c for c in counts) / n_total) / df_between
            ms_within = ss_within / df_within if df_within > 0 else 0.0
            var_cond = (ms_between - ms_within) / n0
            if var_cond < 0.0:
                var_cond = 0.0
                clipped = True
            cond_weighted += df_between * var_cond
            df_cond_total += df_between

    if df_within_total == 0:
        raise ValueError("no replicated cell: repeatability variance is not estimable")
    var_repeat = ss_within_total / df_within_total
    var_cond_pooled = cond_weighted / df_cond_total if df_cond_total > 0 else 0.0
    repeat_sd = math.sqrt(var_repeat)
    cond_sd = math.sqrt(var_cond_pooled)
    repro_sd = math.sqrt(var_repeat + var_cond_pooled)
    grand_mean = float(np.mean(all_values))
    cv_rep = 100.0 * repeat_sd / abs(grand_mean) if grand_mean != 0.0 else None
    cv_repro = 100.0 * repro_sd / abs(grand_mean) if grand_mean != 0.0 else None
    return PrecisionComponents(
        grand_mean=grand_mean,
        repeatability_sd=repeat_sd,
        between_condition_sd=cond_sd,
        reproducibility_sd=repro_sd,
        cv_repeatability=cv_rep,
        cv_reproducibility=cv_repro,
        n_subjects=len(by_subject),
        df_repeatability=df_within_total,
        df_condition=df_cond_total,
        negative_component_clipped=clipped,
    )


def _bits(comp):
    """Every field, floats by their exact hex form (so -0.0 differs from 0.0)."""
    return {name: v.hex() if isinstance(v, float) else v for name, v in dataclasses.asdict(comp).items()}


def _assert_bit_equal(cells):
    try:
        expected = _per_cell_reference(cells)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            variance_components_from_cells(cells)
        return
    assert _bits(variance_components_from_cells(cells)) == _bits(expected)


_SIZE = st.one_of(st.integers(1, 4), st.integers(1, 300))


@st.composite
def _cell_maps(draw):
    """Unbalanced cells, subjects interleaved in mapping order, single-cell subjects."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = [
        (f"s{s}", (f"op{c}", "u1"))
        for s in range(draw(st.integers(1, 6)))
        for c in range(draw(st.integers(1, 4)))
    ]
    scale = 10.0 ** draw(st.integers(-8, 8))
    cells = {}
    for key in draw(st.permutations(keys)):
        r = draw(_SIZE)
        if r <= 4 and draw(st.booleans()):
            value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e8, 1e8, allow_nan=False))
            cells[key] = draw(st.lists(value, min_size=r, max_size=r))
        else:
            values = scale * (rng.normal(draw(st.integers(-50, 50)), 1.0, r))
            values[rng.random(r) < draw(st.sampled_from([0.0, 0.2]))] = -0.0
            cells[key] = values.tolist()
    return cells


@settings(max_examples=200, deadline=None)
@given(_cell_maps())
def test_block_statistics_match_the_per_cell_loop(cells):
    _assert_bit_equal(cells)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 5000),
    st.integers(-8, 8),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_large_blocks_of_one_size_match_the_per_cell_loop(r, k, exponent, per_subject, seed):
    # Up to 5,000 cells share one replicate count; keep each example under
    # about 40,000 values.
    k = min(k, 40_000 // r)
    rng = np.random.default_rng(seed)
    values = (10.0**exponent) * rng.normal(rng.uniform(-100, 100), 1.0, (k, r))
    cells = {(f"s{i // per_subject}", (f"c{i % per_subject}",)): row.tolist() for i, row in enumerate(values)}
    _assert_bit_equal(cells)


def test_interleaved_subjects_take_the_grand_mean_in_subject_order():
    # Mapping order s1, s2, s1: the old loop laid values out subject by
    # subject, and summation order is part of the bits.
    cells = {
        ("s1", ("a",)): [0.1, 1e8, 0.3],
        ("s2", ("a",)): [-1e8, 0.7],
        ("s1", ("b",)): [0.2, 0.30000000000000004],
    }
    _assert_bit_equal(cells)


@pytest.mark.parametrize(
    "cells, key",
    [
        ({("s1", ("a",)): [1.0, 2.0, 3.0], ("s1", ("b",)): []}, "('s1', ('b',))"),
        ({("s1", ("a",)): [1.0, 2.0], ("s2", ("a",)): [1.0, float("nan"), 3.0]}, "('s2', ('a',))"),
        ({("s1", ("a",)): [float("inf"), 2.0], ("s2", ("a",)): [1.0, 3.0]}, "('s1', ('a',))"),
        ({("s1", ("a",)): [1.0, 2.0], ("s2", ("a",)): [1.0], ("s1", ("b",)): [-math.inf]}, "('s1', ('b',))"),
    ],
)
def test_empty_or_non_finite_cell_is_named(cells, key):
    with pytest.raises(ValueError) as exc:
        variance_components_from_cells(cells)
    assert key in str(exc.value)


def _precision_table(subjects, replicates):
    """`subjects` x 2 operators x 2 units; replicates(subject) values per cell."""
    rng = np.random.default_rng(len(subjects))
    lines = ["subject_id,score,operator_id,device_unit_id,replicate_index"]
    for s in subjects:
        for op in ("op1", "op2"):
            for unit in ("u1", "u2"):
                for rep in range(replicates(s)):
                    lines.append(f"{s},{rng.uniform(0.2, 0.8):.4f},{op},{unit},{rep}")
    result = ingest_csv(io.StringIO("\n".join(lines) + "\n"))
    assert not result.errors
    return result.table


@pytest.fixture
def reduction_count(monkeypatch):
    """Number of np.mean and np.sum calls so far."""
    calls = {"n": 0}
    for name in ("mean", "sum"):
        original = getattr(np, name)

        def counting(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    return calls


def _reductions(reduction_count, table):
    before = reduction_count["n"]
    variance_components(table)
    return reduction_count["n"] - before


def test_reductions_grow_with_distinct_cell_sizes_not_cells(reduction_count):
    ids = [f"m{i:02d}" for i in range(60)]
    three = _reductions(reduction_count, _precision_table(ids, lambda s: 3))
    # 240 cells or 20: the same calls, one mean and one sum per size plus the grand mean.
    assert three == _reductions(reduction_count, _precision_table(ids[:5], lambda s: 3)) == 3
    # A second replicate count adds one block.
    mixed = _reductions(reduction_count, _precision_table(ids, lambda s: 2 + int(s[1:]) % 2))
    assert mixed == 5


def test_between_condition_sd_is_a_left_fold(tmp_path, capsys):
    # One subject, two replicates at each of three operators. Since Python
    # 3.12 the builtin sum compensates, and gave 0.32145502536643183 here.
    data = tmp_path / "p.csv"
    data.write_text(
        "subject_id,score,operator_id,replicate_index\n"
        + "".join(f"s1,{v},op{v},{r}\n" for v in ("0.1", "0.2", "0.7") for r in (0, 1)),
        encoding="utf-8",
    )
    assert cli_main(["precision", str(data), "--condition-fields", "operator_id"]) == 0
    block = json.loads(capsys.readouterr().out)["results"]["precision"]
    assert block["between_condition_sd"] == 0.3214550253664318
