"""Property-based equivalence: lazy time travel == eager rebuild.

Hypothesis drives evolution seeds, release counts, and query
parameters; for every drawn combination, ``series.at(k)`` must be
indistinguishable from the eagerly evolved release k under every
metric the serve layer exposes — importance, unweighted importance,
weighted completeness, the completeness curve, and the advisor plan —
and the materialized chain must re-encode to the original bytes.
Replaying a release must also stay mask-backed: none of those
metrics may build a source footprint on the way.

Evolved trains are memoized per (seed, n_releases) so examples pay
for metric comparisons, not for re-synthesis.
"""

import contextlib
import functools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compat import coverage_plan
from repro.dataset.interner import ApiInterner
from repro.metrics import (completeness_curve, importance_table,
                           unweighted_importance_table,
                           weighted_completeness)
from repro.series import load_series_bytes, series_to_bytes
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig


@functools.lru_cache(maxsize=None)
def train(seed, n_releases):
    ecosystem = evolve_corpus(EvolutionConfig(
        n_releases=n_releases,
        base=PaperScaleConfig.at_scale(0.001, seed=seed), seed=seed))
    datasets = ecosystem.datasets()
    blob = series_to_bytes(datasets)
    return datasets, blob, load_series_bytes(blob)


seeds = st.integers(min_value=0, max_value=3)
release_counts = st.integers(min_value=2, max_value=4)
dimensions = st.sampled_from(["syscall", "ioctl", "libc"])


@st.composite
def pick(draw):
    seed = draw(seeds)
    n_releases = draw(release_counts)
    release = draw(st.integers(min_value=0,
                               max_value=n_releases - 1))
    return seed, n_releases, release


@settings(max_examples=30, deadline=None)
@given(pick(), dimensions)
def test_importance_matches_eager(case, dimension):
    seed, n_releases, release = case
    datasets, _, series = train(seed, n_releases)
    eager, lazy = datasets[release], series.at(release)
    assert importance_table(lazy, dimension=dimension) == \
        importance_table(eager, dimension=dimension)
    assert unweighted_importance_table(lazy, dimension) == \
        unweighted_importance_table(eager, dimension)


@settings(max_examples=20, deadline=None)
@given(pick(), dimensions, st.integers(min_value=0, max_value=30),
       st.booleans())
def test_weighted_completeness_matches_eager(case, dimension,
                                             n_supported,
                                             ignore_empty):
    seed, n_releases, release = case
    datasets, _, series = train(seed, n_releases)
    eager, lazy = datasets[release], series.at(release)
    # A deterministic "supported" subset: the first n APIs by weight.
    table = importance_table(eager, dimension=dimension)
    supported = [api for api, _ in sorted(table.items(),
                                          key=lambda kv: (-kv[1],
                                                          kv[0]))
                 ][:n_supported]
    assert weighted_completeness(
        supported, lazy, dimension=dimension,
        ignore_empty=ignore_empty) == \
        weighted_completeness(
            supported, eager, dimension=dimension,
            ignore_empty=ignore_empty)


@settings(max_examples=15, deadline=None)
@given(pick())
def test_curve_and_advisor_match_eager(case):
    seed, n_releases, release = case
    datasets, _, series = train(seed, n_releases)
    eager, lazy = datasets[release], series.at(release)
    assert completeness_curve(lazy) == completeness_curve(eager)
    table = importance_table(eager)
    modified = [api for api, value in sorted(table.items(),
                                             key=lambda kv: (-kv[1],
                                                             kv[0]))
                if value > 0.0][:5]
    assert coverage_plan(modified, lazy) == \
        coverage_plan(modified, eager)


@settings(max_examples=10, deadline=None)
@given(seeds, release_counts)
def test_materialized_chain_is_byte_stable(seed, n_releases):
    _, blob, series = train(seed, n_releases)
    assert series_to_bytes(series.releases()) == blob
    # ...and a second decode of those bytes agrees on the chain.
    again = load_series_bytes(blob)
    assert again.series_fingerprint == series.series_fingerprint
    assert again.fingerprints == series.fingerprints


@settings(max_examples=15, deadline=None)
@given(pick())
def test_release_fingerprints_are_stamped(case):
    seed, n_releases, release = case
    _, _, series = train(seed, n_releases)
    dataset = series.at(release)
    assert dataset.source_fingerprint == series.fingerprints[release]


@contextlib.contextmanager
def names_of_calls():
    """Record the mask of every ``ApiInterner.names_of`` call."""
    names_of = ApiInterner.names_of
    calls = []

    def counting(interner, mask):
        calls.append(mask)
        return names_of(interner, mask)

    with mock.patch.object(ApiInterner, "names_of", counting):
        yield calls


@settings(max_examples=15, deadline=None)
@given(pick())
def test_at_builds_no_footprints(case):
    seed, n_releases, release = case
    datasets, blob, _ = train(seed, n_releases)
    eager = datasets[release]
    table = importance_table(eager)
    ranked = [api for api, _ in sorted(table.items(),
                                       key=lambda kv: (-kv[1], kv[0]))]

    def kernels(dataset):
        importance_table(dataset)
        unweighted_importance_table(dataset)
        weighted_completeness(ranked[:20], dataset)
        completeness_curve(dataset)
        coverage_plan(ranked[:5], dataset)

    series = load_series_bytes(blob)   # fresh: no release cached
    with names_of_calls() as at_calls:
        lazy = series.at(release)
    with names_of_calls() as lazy_calls:
        kernels(lazy)
    with names_of_calls() as eager_calls:
        kernels(eager)
    assert at_calls == []
    # coverage_plan names the APIs each workload covers; beyond those
    # calls of its own, no kernel may name a package's masks.
    assert lazy_calls == eager_calls
    # The Mapping contract still holds once footprints are asked for.
    assert dict(lazy) == dict(eager)
    assert lazy.bitsets == eager.bitsets
