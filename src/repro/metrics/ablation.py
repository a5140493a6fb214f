"""Dependency-semantics ablation: AND-only vs full AND-OR closure.

The pre-refactor model — and real pre-alternatives tooling like
debootstrap (see the mkosi workaround in SNIPPETS.md) — resolves the
dependency graph as a plain AND over single targets: ``a | b`` is
collapsed to ``a`` and ``Provides:`` edges vanish.  This experiment
quantifies the completeness error that degradation introduces on a
given corpus by running the full Figure-3 curve twice over the *same*
interned footprints: once against the real repository, once against
:meth:`repro.packages.Repository.and_only_view`.

The AND-only error has two opposing components: collapsing a group to
its first alternative *understates* completeness (a package whose
second alternative is supported is wrongly dropped), while dropping
``Provides:`` turns virtual-only dependencies into dangling references
the closure ignores, *overstating* it.  The report therefore records
signed gaps.  On a corpus without alternatives or virtual packages the
two curves are bit-for-bit identical and every gap is exactly ``0.0``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..dataset.core import FootprintsLike, as_dataset
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from .ranking import completeness_curve


def dep_semantics_ablation(footprints: FootprintsLike,
                           popcon: Optional[PopularityContest] = None,
                           repository: Optional[Repository] = None,
                           dimension: str = "syscall",
                           ) -> Dict[str, object]:
    """Compare full AND-OR vs AND-only completeness on one corpus.

    Returns a JSON-ready report.  ``gap`` values are
    ``full - and_only`` at each curve rank: positive means AND-only
    *understates* completeness (alternatives mishandled), negative
    means it *overstates* (virtual dependencies silently dropped).
    """
    dataset = as_dataset(footprints, popcon, repository)
    if dataset.repository is None:
        raise ValueError("dep_semantics_ablation needs a Repository")
    repository = dataset.repository
    full_curve = completeness_curve(dataset, dimension=dimension)
    if (repository.n_alternative_groups() == 0
            and repository.n_provider_edges() == 0):
        # Nothing to degrade: the AND-only view is the repository
        # itself, so its curve is this one and every gap is 0.0.
        and_only_curve = full_curve
    else:
        and_only = dataset.rebound(dataset.popcon,
                                   repository.and_only_view())
        and_only_curve = completeness_curve(and_only,
                                            dimension=dimension)

    gaps = [full.completeness - degraded.completeness
            for full, degraded in zip(full_curve, and_only_curve)]
    max_abs_gap = 0.0
    max_gap = 0.0
    max_gap_rank = 0
    for point, gap in zip(full_curve, gaps):
        if abs(gap) > max_abs_gap:
            max_abs_gap = abs(gap)
            max_gap = gap
            max_gap_rank = point.n_apis
    n_points = len(gaps)
    mean_abs_gap = (sum(abs(gap) for gap in gaps) / n_points
                    if n_points else 0.0)

    def _curve_summary(curve) -> Dict[str, float]:
        if not curve:
            return {"final_completeness": 0.0, "mean_completeness": 0.0}
        return {
            "final_completeness": curve[-1].completeness,
            "mean_completeness": (sum(p.completeness for p in curve)
                                  / len(curve)),
        }

    return {
        "dimension": dimension,
        "n_apis": n_points,
        "n_packages": len(dataset.packages),
        "n_virtual_packages": len(repository.virtual_names()),
        "n_provider_edges": repository.n_provider_edges(),
        "n_alternative_groups": repository.n_alternative_groups(),
        "full": _curve_summary(full_curve),
        "and_only": _curve_summary(and_only_curve),
        "final_gap": gaps[-1] if gaps else 0.0,
        "max_gap": max_gap,
        "max_abs_gap": max_abs_gap,
        "max_gap_rank": max_gap_rank,
        "mean_abs_gap": mean_abs_gap,
        "n_ranks_diverging": sum(1 for gap in gaps if gap != 0.0),
    }
