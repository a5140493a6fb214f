"""Property-based snapshot equivalence: three paths, one answer.

Drives randomized ecosystems (reusing the adversarial generator from
``test_dataset_equivalence`` — dependency cycles, ghost dependencies,
unmeasured packages, empty footprints, zero-weight packages) through
the snapshot store and asserts the strongest contract the subsystem
claims:

* ``JSON -> .rsnap -> JSON`` is **byte-identical** for every corpus
  the generator can produce;
* every metric — importance, weighted completeness, the completeness
  curve, the advisor coverage plan — is **bit-for-bit equal** across
  the eager-JSON path, the mmap-lazy ``.rsnap`` path, and the legacy
  :mod:`repro.dataset.reference` implementations.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tests.test_dataset_equivalence import _SYSCALLS, ecosystems

from repro.compat import coverage_plan
from repro.dataset import (Dataset, dataset_from_json,
                           dataset_to_json, reference)
from repro.dataset.dimensions import ALL_DIMENSIONS
from repro.metrics import (completeness_curve, importance_table,
                           weighted_completeness)
from repro.store import load_snapshot_bytes, snapshot_to_bytes

_SETTINGS = settings(max_examples=60, deadline=None)


def _three_ways(footprints, popcon, repository):
    """eager JSON decode, mmap-lazy snapshot, and the source dataset."""
    source = Dataset(footprints, popcon, repository)
    text = dataset_to_json(source)
    eager = dataset_from_json(text, popcon, repository)
    lazy = load_snapshot_bytes(snapshot_to_bytes(source),
                               popcon=popcon, repository=repository)
    return source, eager, lazy


class TestByteIdentity:
    @_SETTINGS
    @given(eco=ecosystems())
    def test_json_rsnap_json_round_trip(self, eco):
        footprints, popcon, repository, _ = eco
        source = Dataset(footprints, popcon, repository)
        blob = snapshot_to_bytes(source)
        assert dataset_to_json(load_snapshot_bytes(blob)) == \
            dataset_to_json(source)

    @_SETTINGS
    @given(eco=ecosystems())
    def test_rsnap_encoding_is_deterministic(self, eco):
        footprints, popcon, repository, _ = eco
        source = Dataset(footprints, popcon, repository)
        assert snapshot_to_bytes(source) == snapshot_to_bytes(source)


class TestMetricEquality:
    @_SETTINGS
    @given(eco=ecosystems(), dimension=st.sampled_from(ALL_DIMENSIONS))
    def test_importance_three_ways(self, eco, dimension):
        footprints, popcon, repository, _ = eco
        source, eager, lazy = _three_ways(footprints, popcon,
                                          repository)
        expected = reference.importance_table(footprints, popcon,
                                              dimension)
        assert importance_table(source, dimension=dimension) == expected
        assert importance_table(eager, dimension=dimension) == expected
        assert importance_table(lazy, dimension=dimension) == expected

    @_SETTINGS
    @given(eco=ecosystems(), ignore_empty=st.booleans())
    def test_weighted_completeness_three_ways(self, eco,
                                              ignore_empty):
        footprints, popcon, repository, supported = eco
        source, eager, lazy = _three_ways(footprints, popcon,
                                          repository)
        expected = reference.weighted_completeness(
            supported, footprints, popcon, repository,
            ignore_empty=ignore_empty)
        for dataset in (source, eager, lazy):
            assert weighted_completeness(
                supported, dataset,
                ignore_empty=ignore_empty) == expected

    @_SETTINGS
    @given(eco=ecosystems())
    def test_completeness_curve_three_ways(self, eco):
        footprints, popcon, repository, _ = eco
        source, eager, lazy = _three_ways(footprints, popcon,
                                          repository)
        expected = reference.completeness_curve(footprints, popcon,
                                                repository)
        assert completeness_curve(source) == expected
        assert completeness_curve(eager) == expected
        assert completeness_curve(lazy) == expected

    @_SETTINGS
    @given(eco=ecosystems(), modified=st.lists(
        st.sampled_from(_SYSCALLS), unique=True, min_size=1,
        max_size=4))
    def test_advisor_plan_three_ways(self, eco, modified):
        footprints, popcon, repository, _ = eco
        source, eager, lazy = _three_ways(footprints, popcon,
                                          repository)
        expected = coverage_plan(modified, source, popcon)
        assert coverage_plan(modified, eager, popcon) == expected
        assert coverage_plan(modified, lazy, popcon) == expected

    @_SETTINGS
    @given(eco=ecosystems())
    def test_embedded_bindings_equal_explicit(self, eco):
        """A self-contained snapshot (embedded POPC/DEPS) answers the
        same as one rebound onto the original objects."""
        footprints, popcon, repository, supported = eco
        source = Dataset(footprints, popcon, repository)
        blob = snapshot_to_bytes(source)
        explicit = load_snapshot_bytes(blob, popcon=popcon,
                                       repository=repository)
        embedded = load_snapshot_bytes(blob)
        assert embedded.weights == explicit.weights
        assert weighted_completeness(supported, embedded) == \
            weighted_completeness(supported, explicit)
