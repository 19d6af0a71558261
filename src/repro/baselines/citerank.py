"""CiteRank (Walker, Xie, Yan & Maslov, 2007) — competitor "CR".

CiteRank models the "traffic" to papers from researchers who *start*
reading at a recently published paper and then follow chains of
references.  The entry distribution decays exponentially with paper age,

    rho_i ∝ exp(-age_i / tau_dir),

and the traffic is the geometric sum over chain lengths

    T = rho + alpha*W @ rho + alpha^2 * W^2 @ rho + ...
      = (I - alpha*W)^(-1) @ rho,

with ``W`` the reference-normalised citation matrix.  Following the
original model, dangling-paper mass is *not* recycled (a researcher who
reaches a reference-free paper stops), so we iterate on the sparse part
of ``S`` only.  The fixed point is computed by iterating
``x <- rho + alpha * W @ x``, which converges at rate ``alpha``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro._typing import FloatVector
from repro.core.power_iteration import DEFAULT_TOLERANCE
from repro.errors import ConfigurationError
from repro.graph.citation_network import CitationNetwork
from repro.graph.matrix import shared_operator
from repro.ranking import RankingMethod

__all__ = ["CiteRank"]


class CiteRank(RankingMethod):
    """CiteRank: traffic from age-biased entry points.

    Parameters
    ----------
    alpha:
        Probability of following a reference at each step (the original
        paper's optimum is around 0.5; must be < 1 for the geometric sum
        to converge).
    tau_dir:
        Characteristic *decay time* in years of the entry distribution —
        researchers start at papers roughly ``tau_dir`` years old or
        newer.
    tol, max_iterations:
        Fixed-point iteration controls.
    now:
        Current time ``tN`` (default: latest publication time).
    """

    name = "CR"
    supports_warm_start = True

    def __init__(
        self,
        *,
        alpha: float = 0.5,
        tau_dir: float = 2.0,
        tol: float = DEFAULT_TOLERANCE,
        max_iterations: int = 1000,
        now: float | None = None,
    ) -> None:
        if not 0 < alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if tau_dir <= 0:
            raise ConfigurationError(
                f"tau_dir must be positive, got {tau_dir}"
            )
        self.alpha = float(alpha)
        self.tau_dir = float(tau_dir)
        self.tol = tol
        self.max_iterations = max_iterations
        self.now = now

    def params(self) -> Mapping[str, Any]:
        return {"alpha": self.alpha, "tau_dir": self.tau_dir}

    def entry_distribution(self, network: CitationNetwork) -> FloatVector:
        """The normalised age-decayed entry vector ``rho``."""
        ages = network.ages(self.now)
        raw = np.exp(-(ages - ages.min()) / self.tau_dir)
        return raw / raw.sum()

    def scores(self, network: CitationNetwork) -> FloatVector:
        return self._solve_column(network)

    def fused_column(self, network: CitationNetwork):
        """CiteRank as one fused-solver column:
        ``x <- alpha * W @ x + rho``, unnormalised.

        Dangling mass is *not* recycled (the original model), so the
        column iterates on the sparse part alone — no dangling mask.
        The iteration is a contraction at rate alpha, so any start
        converges to the same traffic vector; a previous solution (set
        by the incremental-update path) beats the default rho start.
        """
        if network.n_papers == 0:
            raise ConfigurationError("cannot rank an empty network")
        from repro.core.fused import FusedColumn

        rho = self.entry_distribution(network)
        return FusedColumn(
            label=self.name,
            matrix=shared_operator(network).sparse_part,
            alpha=self.alpha,
            jump=rho,
            start=rho if self.start_vector is None else self.start_vector,
            normalize=False,
            tol=self.tol,
            max_iterations=self.max_iterations,
        )
