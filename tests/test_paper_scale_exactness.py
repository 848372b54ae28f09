"""Exactness of the full search at the paper's own scale.

The paper's synthetic experiments run on a 100x100 grid (``scale=1.0``).
Here the complete heuristic search over that grid — every window it
explores, to exhaustion — must return exactly the windows the
independent SQL-baseline oracle enumerates.  The search takes a few
hundred thousand steps, so the suite is ``slow``-marked.
"""

from __future__ import annotations

import pytest

from repro.core import SWEngine
from repro.dbms import run_sql_baseline
from repro.workloads import make_database, synthetic_dataset, synthetic_query

pytestmark = pytest.mark.slow


def test_synth_high_full_search_matches_sql_baseline_at_scale_1():
    dataset = synthetic_dataset("high", scale=1.0)
    query = synthetic_query(dataset)
    shape = query.grid.shape
    assert shape == (100, 100)

    oracle = run_sql_baseline(make_database(dataset, "cluster"), dataset.name, query)
    expected = {r.window.key(shape) for r in oracle.results}

    engine = SWEngine(make_database(dataset, "cluster"), dataset.name)
    run = engine.execute(query).run
    assert not run.interrupted
    found = [r.window.key(shape) for r in run.results]
    assert len(found) == len(set(found)), "a window was emitted twice"
    assert set(found) == expected
    assert expected, "the oracle must find qualifying windows at paper scale"
