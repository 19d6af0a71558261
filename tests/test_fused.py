"""The fused solver's bit-identity contract, masks, batching, float32.

The headline property — asserted with ``np.array_equal``, never a
tolerance — is that stacking any subset of methods into one
:class:`~repro.core.fused.FusedSolver` pass returns exactly the bits
of each method's update written out by hand as a step map and solved
with :func:`~repro.core.power_iteration.power_iterate`, for any drop
order of the convergence masks and any ``jobs`` value.  The step maps
below are a second, independent statement of each update; the methods
state theirs only in ``fused_column()``.  docs/SOLVER.md derives why
the bits agree.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fused as fused_module
from repro.baselines import make_method
from repro.core.fused import (
    FLOAT32_TOLERANCE,
    FUSE_MIN_COLUMNS,
    FusedColumn,
    FusedSolver,
    solve_methods,
)
from repro.core.power_iteration import power_iterate, uniform_vector
from repro.errors import ConfigurationError, ConvergenceError
from repro.eval.metrics import spearman_rho
from repro.graph.matrix import shared_operator
from repro.synth.profiles import generate_dataset

FUSABLE = [
    ("AR", dict(alpha=0.2, beta=0.5, gamma=0.3)),
    ("PR", dict(alpha=0.5)),
    ("CR", dict(tau_dir=2.0)),
    ("FR", dict(alpha=0.4, beta=0.1, rho=-0.3)),
    ("ECM", dict(alpha=0.3, gamma=0.4)),
    ("KATZ", dict(alpha=0.2)),
]


@pytest.fixture(scope="module")
def net():
    return generate_dataset("hep-th", size="tiny", seed=7)


def _normalized(vector):
    total = vector.sum()
    if total <= 0:
        return np.full(vector.size, 1.0 / max(vector.size, 1))
    return vector / total


def _reference_step(method, net):
    """``method``'s update as a hand-written step map, with the
    :func:`power_iterate` options its solve uses."""
    n = net.n_papers
    operator = shared_operator(net)
    if method.name == "AR":
        attention, recency = method.jump_vectors(net)
        jump = method.beta * attention + method.gamma * recency
        return lambda x: method.alpha * operator.apply(x) + jump, {}
    if method.name == "PR":
        teleport = (1.0 - method.alpha) * uniform_vector(n)
        return lambda x: method.alpha * operator.apply(x) + teleport, {}
    if method.name == "CR":
        rho = method.entry_distribution(net)
        transfer = operator.sparse_part

        def cr_step(x):
            return rho + method.alpha * (transfer @ x)

        return cr_step, dict(start=rho, normalize=False)
    if method.name == "FR":
        time_vector = method.recency_weights(net)
        rest = 1.0 - method.alpha - method.beta - method.gamma
        uniform_mass = max(rest, 0.0) / n
        incidence = net.author_matrix

        def fr_step(x):
            updated = (
                method.alpha * operator.apply(x)
                + method.gamma * time_vector
                + uniform_mass
            )
            authors = _normalized(incidence @ x)
            return updated + method.beta * _normalized(incidence.T @ authors)

        return fr_step, dict(raise_on_failure=False)
    # ECM and KATZ: a Katz series over their own matrix, from base.
    if method.name == "ECM":
        matrix = method.retained_matrix(net)
        base = matrix @ np.ones(n)
    else:
        matrix = net.citation_matrix
        base = np.asarray(matrix.sum(axis=1)).ravel()

    def katz_step(x):
        return base + method.alpha * (matrix @ x)

    return katz_step, dict(start=base, normalize=False, raise_on_failure=False)


@pytest.fixture(scope="module")
def reference(net):
    """Per-method reference solves: scores and convergence info."""
    out = {}
    for position, (label, params) in enumerate(FUSABLE):
        method = make_method(label, **params)
        step, options = _reference_step(method, net)
        out[position] = power_iterate(
            step,
            net.n_papers,
            tol=method.tol,
            max_iterations=method.max_iterations,
            **options,
        )
    return out


def _columns(net, positions):
    return [
        make_method(FUSABLE[i][0], **FUSABLE[i][1]).fused_column(net)
        for i in positions
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_full_stack_matches_scalar_solves(self, net, reference, jobs):
        solver = FusedSolver(
            _columns(net, range(len(FUSABLE))), net.n_papers, jobs=jobs
        )
        for position, (scores, info) in enumerate(solver.solve()):
            want_scores, want_info = reference[position]
            np.testing.assert_array_equal(scores, want_scores)
            assert info.iterations == want_info.iterations
            assert info.residual == want_info.residual
            assert info.residual_history == want_info.residual_history

    @pytest.mark.parametrize(
        "combo",
        [
            combo
            for r in (1, 2, 3)
            for combo in itertools.combinations(range(len(FUSABLE)), r)
        ],
        ids=lambda combo: "+".join(FUSABLE[i][0] for i in combo),
    )
    def test_every_small_subset(self, net, reference, combo):
        solver = FusedSolver(_columns(net, combo), net.n_papers)
        for position, (scores, info) in zip(combo, solver.solve()):
            want_scores, want_info = reference[position]
            np.testing.assert_array_equal(scores, want_scores)
            assert info.residual_history == want_info.residual_history

    def test_single_column_degenerates_to_power_iterate(self, net):
        """m=1 is exactly a hand-written step loop through power_iterate."""
        column = _columns(net, [1])[0]
        fused_scores, fused_info = FusedSolver(
            [column], net.n_papers
        ).solve()[0]
        def legacy_step(x):
            y = column.matrix @ x
            if column.dangling is not None:
                y = y + x[column.dangling].sum() / net.n_papers
            return column.alpha * y + column.jump

        legacy_scores, legacy_info = power_iterate(
            legacy_step,
            net.n_papers,
            tol=column.tol,
            max_iterations=column.max_iterations,
            start=column.start,
        )
        np.testing.assert_array_equal(fused_scores, legacy_scores)
        assert fused_info.iterations == legacy_info.iterations

    def test_wide_stack_batches_bitwise(self, net, monkeypatch):
        """Column batching is pure scheduling — bits never change."""
        monkeypatch.setattr(fused_module, "STACK_BYTES_BUDGET", 1)
        monkeypatch.setattr(fused_module, "MIN_STACK_WIDTH", 7)
        alphas = np.linspace(0.05, 0.95, 23)
        methods = [make_method("PR", alpha=float(a)) for a in alphas]
        solver = FusedSolver(
            [m.fused_column(net) for m in methods], net.n_papers
        )
        assert solver._stack_width(len(methods)) == 7
        for (scores, _), alpha in zip(solver.solve(), alphas):
            want = make_method("PR", alpha=float(alpha)).scores(net)
            np.testing.assert_array_equal(scores, np.asarray(want))


class TestConvergenceMasks:
    def test_column_dropped_at_first_iteration(self, net, reference):
        """A column converging instantly leaves the others' bits alone."""
        columns = _columns(net, range(len(FUSABLE)))
        # A tolerance of 1.0 is met by the first residual (probability
        # vectors differ by at most 2 in L1 after one step... not
        # guaranteed below 1.0 — so solve solo first to learn it).
        solo = FusedSolver([columns[1]], net.n_papers).solve()[0][1]
        loose = FusedColumn(
            label=columns[1].label,
            matrix=columns[1].matrix,
            alpha=columns[1].alpha,
            jump=columns[1].jump,
            dangling=columns[1].dangling,
            start=columns[1].start,
            tol=solo.residual_history[0] * 1.0001,
        )
        stacked = [columns[0], loose, columns[2]]
        results = FusedSolver(stacked, net.n_papers).solve()
        assert results[1][1].iterations == 1
        np.testing.assert_array_equal(results[0][0], reference[0][0])
        np.testing.assert_array_equal(results[2][0], reference[2][0])
        assert (
            results[0][1].residual_history
            == reference[0][1].residual_history
        )

    def test_failure_raises_for_lowest_index(self, net):
        columns = _columns(net, [0, 1])
        starved = [
            FusedColumn(
                label=c.label,
                matrix=c.matrix,
                alpha=c.alpha,
                jump=c.jump,
                dangling=c.dangling,
                start=c.start,
                max_iterations=1,
            )
            for c in columns
        ]
        with pytest.raises(ConvergenceError) as caught:
            FusedSolver(starved, net.n_papers).solve()
        assert caught.value.iterations == 1

    def test_failure_without_raise_reports_unconverged(self, net):
        c = _columns(net, [0])[0]
        lax = FusedColumn(
            label=c.label,
            matrix=c.matrix,
            alpha=c.alpha,
            jump=c.jump,
            dangling=c.dangling,
            start=c.start,
            max_iterations=2,
            raise_on_failure=False,
        )
        scores, info = FusedSolver([lax], net.n_papers).solve()[0]
        assert not info.converged
        assert info.iterations == 2
        assert np.all(np.isfinite(scores))


class TestSolveMethodsDispatch:
    def test_narrow_panel_matches_and_skips_stacking(
        self, net, reference, monkeypatch
    ):
        """< FUSE_MIN_COLUMNS per operator: width-1 solves, same bits."""
        stacked = []
        real_solve = FusedSolver.solve

        def counting_solve(self):
            stacked.append(len(self._columns))
            return real_solve(self)

        monkeypatch.setattr(FusedSolver, "solve", counting_solve)
        methods = [make_method(l, **p) for l, p in FUSABLE]
        solved = solve_methods(net, methods)
        for position, (scores, info) in enumerate(solved):
            want_scores, want_info = reference[position]
            np.testing.assert_array_equal(scores, want_scores)
            assert info.residual_history == want_info.residual_history
            assert methods[position].last_convergence is info
        # The panel's largest operator group is 4 wide, so every solve
        # was one column alone.
        assert stacked == [1] * len(FUSABLE)

    def test_narrow_panel_builds_each_column_once(self, net):
        """Narrow groups solve the columns already built, rather than
        calling ``scores()`` to build them again."""
        calls = Counter()
        methods = [make_method(l, **p) for l, p in FUSABLE]
        for method in methods:
            def counting(network, real=method.fused_column, method=method):
                calls[method.name] += 1
                return real(network)

            method.fused_column = counting
        solve_methods(net, methods)
        assert calls == {label: 1 for label, _ in FUSABLE}

    def test_wide_grid_is_stacked(self, net, monkeypatch):
        stacked = []
        real_solve = FusedSolver.solve

        def counting_solve(self):
            stacked.append(len(self._columns))
            return real_solve(self)

        monkeypatch.setattr(FusedSolver, "solve", counting_solve)
        methods = [
            make_method("PR", alpha=float(a))
            for a in np.linspace(0.05, 0.95, FUSE_MIN_COLUMNS)
        ]
        solve_methods(net, methods)
        assert FUSE_MIN_COLUMNS in stacked

    def test_unfusable_methods_fall_back(self, net):
        methods = [make_method("CC"), make_method("RAM", gamma=0.4)]
        solved = solve_methods(net, methods)
        for (scores, _info), method in zip(
            solved, [make_method("CC"), make_method("RAM", gamma=0.4)]
        ):
            np.testing.assert_array_equal(
                scores, np.asarray(method.scores(net))
            )


class TestFloat32:
    def test_accuracy_bound_vs_float64(self, net, reference):
        columns = _columns(net, range(len(FUSABLE)))
        solved = FusedSolver(
            columns, net.n_papers, dtype=np.float32
        ).solve()
        for position, (scores, info) in enumerate(solved):
            assert scores.dtype == np.float32
            assert info.converged
            want = reference[position][0]
            wide = scores.astype(np.float64)
            assert spearman_rho(wide, want) > 0.999
            scale = float(np.abs(want).max())
            assert float(np.abs(wide - want).max()) / scale < 1e-3

    def test_tolerance_floored(self, net):
        column = _columns(net, [1])[0]  # tol=1e-12, unreachable in f32
        solver = FusedSolver([column], net.n_papers, dtype=np.float32)
        assert solver._effective_tol(column) == FLOAT32_TOLERANCE

    def test_rejects_bare_step_columns(self):
        column = FusedColumn(label="step", step=lambda x: x)
        with pytest.raises(ConfigurationError, match="float32"):
            FusedSolver([column], 4, dtype=np.float32)


class TestFusedColumnValidation:
    def test_needs_exactly_one_of_matrix_step(self, net):
        with pytest.raises(ConfigurationError, match="exactly one"):
            FusedColumn(label="neither")

    def test_linear_column_needs_jump(self, net):
        matrix = _columns(net, [1])[0].matrix
        with pytest.raises(ConfigurationError, match="jump"):
            FusedColumn(label="nojump", matrix=matrix)

    def test_step_columns_do_not_mix_with_linear_columns(self, net):
        step = FusedColumn(label="step", step=lambda x: x)
        with pytest.raises(ConfigurationError, match="share a stack"):
            FusedSolver([_columns(net, [1])[0], step], net.n_papers)

    def test_bad_tol_and_budget(self):
        with pytest.raises(ConfigurationError, match="tol"):
            FusedColumn(label="t", step=lambda x: x, tol=0.0)
        with pytest.raises(ConfigurationError, match="max_iterations"):
            FusedColumn(label="m", step=lambda x: x, max_iterations=0)


# ---------------------------------------------------------------------------
# Hypothesis: subsets, drop orders, jobs — always the scalar bits.
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    subset=st.sets(
        st.integers(0, len(FUSABLE) - 1), min_size=1, max_size=len(FUSABLE)
    ),
    jobs=st.sampled_from([1, 2, 4]),
    data=st.data(),
)
def test_any_subset_any_drop_order_any_jobs(subset, jobs, data):
    """Random subsets with randomly loosened tolerances (which shuffle
    the order columns drop out of the stack) stay bit-identical to the
    width-1 solves with the same tolerances."""
    net = generate_dataset("hep-th", size="tiny", seed=7)
    positions = sorted(subset)
    columns = []
    for i in positions:
        c = make_method(FUSABLE[i][0], **FUSABLE[i][1]).fused_column(net)
        tol = data.draw(
            st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
            label=f"tol[{FUSABLE[i][0]}]",
        )
        columns.append(
            FusedColumn(
                label=c.label,
                matrix=c.matrix,
                alpha=c.alpha,
                jump=c.jump,
                dangling=c.dangling,
                combine=c.combine,
                start=c.start,
                normalize=c.normalize,
                tol=tol,
            )
        )
    fused = FusedSolver(columns, net.n_papers, jobs=jobs).solve()
    for column, (scores, info) in zip(columns, fused):
        solo_scores, solo_info = FusedSolver(
            [column], net.n_papers
        ).solve()[0]
        np.testing.assert_array_equal(scores, solo_scores)
        assert info.iterations == solo_info.iterations
        assert info.residual_history == solo_info.residual_history
