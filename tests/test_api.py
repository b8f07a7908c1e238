"""The public API: ``qbp.__all__`` is sorted, unique and resolves, so
``from qbp import *`` cannot hold a stale export after a rename."""

import qbp


def test_all_is_sorted_and_unique():
    assert qbp.__all__ == sorted(set(qbp.__all__))


def test_all_names_resolve():
    missing = [name for name in qbp.__all__ if not hasattr(qbp, name)]
    assert missing == []

