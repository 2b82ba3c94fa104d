"""The columnar core's generation-step kernels against references kept here.

* ``batched_window_convolve`` must equal, bit for bit, the offset-grouped
  loop it replaced (copied below as ``_grouped_convolve``): every output
  cell receives the same products, added in the same ascending support
  order starting from ``0.0``.
* ``trim_window_rows`` must equal the two-accumulate-pass trim it replaced.
* ``_admit_chunk`` (the chunk's dominance screen plus the bitset replay)
  must give the same admitted mask and leave the same per-vertex frontier
  rows, in the same order, as a plain per-candidate replay of
  ``ParetoFrontier.add`` written with column loops (``_replay``).

The admission cases deliberately include exact duplicate rows, residents
that get evicted, candidates whose support starts late (``lo > 0``) and
chains A >= B - tol, B >= C - tol where A does not reach C - tol: weak
dominance under ``DOMINANCE_TOL`` is not transitive, so a replay that
"simplifies" by transitivity diverges on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms import batched_window_convolve, cdf_dominance_matrix, trim_window_rows
from repro.histograms import dominance
from repro.histograms.distribution import _MASS_EPSILON
from repro.histograms.dominance import DOMINANCE_TOL
from repro.routing.columnar import _admit_chunk, _FrontierStore


def _grouped_convolve(parents, kernel_offsets, kernel_probs, kernel_totals):
    """The offset-grouped convolution loop, as it stood before the
    one-gather, one-scatter body."""
    n, width = parents.shape
    out = np.zeros((n, width), dtype=np.float64)
    support = kernel_probs.shape[1]
    for off in np.unique(kernel_offsets):
        rows = np.flatnonzero(kernel_offsets == off)
        block = parents[rows]
        probs = kernel_probs[rows]
        acc = np.zeros((rows.size, width), dtype=np.float64)
        for s in range(support):
            t = int(off) + s
            if t >= width - 1:
                break
            col = probs[:, s]
            if not col.any():
                continue
            acc[:, t:] += col[:, None] * block[:, : width - t]
        out[rows] = acc
    totals = parents.sum(axis=1) * kernel_totals
    head = out[:, : width - 1].sum(axis=1)
    np.maximum(totals - head, 0.0, out=totals)
    out[:, width - 1] = totals
    return out


def _accumulate_trim(rows):
    """The trim as two ``logical_and.accumulate`` passes, as it stood before."""
    small = rows <= _MASS_EPSILON
    leading = np.logical_and.accumulate(small, axis=1)
    trailing = np.logical_and.accumulate(small[:, ::-1], axis=1)[:, ::-1]
    rows[leading | trailing] = 0.0
    return rows


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_convolution_is_the_offset_grouped_loop_bit_for_bit(n, width, support, few, seed):
    """``n`` from 0 to 64 (single rows included), offsets 0..width, interior
    zero probabilities and support running past the fold cell."""
    rng = np.random.default_rng(seed)
    parents = rng.random((n, width)) * (rng.random((n, width)) < 0.6)
    # Few distinct offsets make long equal-offset runs; many make short ones.
    choices = rng.integers(0, width + 1, size=3 if few else max(n, 1))
    offsets = rng.choice(choices, size=n).astype(np.int64)
    probs = rng.random((n, support)) * (rng.random((n, support)) < 0.7)
    totals = probs.sum(axis=1)
    out = batched_window_convolve(parents, offsets, probs, totals)
    expected = _grouped_convolve(parents, offsets, probs, totals)
    assert out.shape == (n, width)
    assert out.tobytes() == expected.tobytes()


def test_convolution_one_row_and_empty_blocks():
    parents = np.zeros((1, 6))
    parents[0, 0] = 1.0
    probs = np.array([[0.0, 0.5, 0.5]])
    totals = probs.sum(axis=1)
    for offset in (0, 3, 5, 9):
        offsets = np.array([offset])
        out = batched_window_convolve(parents, offsets, probs, totals)
        assert out.tobytes() == _grouped_convolve(parents, offsets, probs, totals).tobytes()
    empty = batched_window_convolve(
        np.zeros((0, 6)), np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0)
    )
    assert empty.shape == (0, 6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trim_is_the_accumulate_trim(n, width, seed):
    rng = np.random.default_rng(seed)
    rows = rng.random((n, width)) * (rng.random((n, width)) < 0.5)
    dust = rng.random((n, width)) < 0.3
    rows[dust] = rng.choice([1e-13, 1e-17, _MASS_EPSILON, 0.0], size=int(dust.sum()))
    rows[rng.random(n) < 0.2] = 1e-14  # rows with no cell above the epsilon
    out = trim_window_rows(rows.copy())
    assert out.tobytes() == _accumulate_trim(rows.copy()).tobytes()


def test_batched_dominance_matrix_is_one_matrix_per_batch_entry(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.random((4, 5, 7)).cumsum(axis=-1)
    b = rng.random((4, 6, 7)).cumsum(axis=-1)
    expected = np.stack([cdf_dominance_matrix(x, y) for x, y in zip(a, b)])
    assert np.array_equal(cdf_dominance_matrix(a, b), expected)
    monkeypatch.setattr(dominance, "_MATRIX_CHUNK_CELLS", 50)  # chunk a's rows
    assert np.array_equal(cdf_dominance_matrix(a, b), expected)
    with pytest.raises(ValueError):
        cdf_dominance_matrix(a, b[:3])


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------


def _weakly_dominates(p, q):
    return all(x >= y - DOMINANCE_TOL for x, y in zip(p.tolist(), q.tolist()))


def _replay(frontiers, candidates):
    """Plain ``ParetoFrontier.add`` replay, one candidate at a time."""
    admitted = []
    evictions = 0
    for vertex, row in candidates:
        live = frontiers.setdefault(vertex, [])
        if any(_weakly_dominates(r, row) for r in live):
            admitted.append(False)
            continue
        survivors = [r for r in live if not _weakly_dominates(row, r)]
        evictions += len(live) - len(survivors)
        live[:] = survivors + [row]
        admitted.append(True)
    return admitted, evictions


def _cdf_row(rng, width, lo):
    pmf = np.zeros(width)
    pmf[lo:] = rng.choice([0.0, 0.125, 0.25, 0.5], size=width - lo)
    pmf[lo] = rng.choice([0.125, 0.25, 0.5])
    return np.cumsum(pmf)


def _nudged(row, k):
    """``row`` moved by ``k * 0.6 * tol`` from its first support tick on —
    still a monotone CDF, still exactly zero before that tick."""
    out = row.copy()
    out[int(np.argmax(row > 0.0)) :] += k * 0.6 * DOMINANCE_TOL
    return out


def _chunk(rng, width, groups):
    """A store holding each vertex's residents, and a candidate block in a
    shuffled generation order (with non-candidate rows interleaved)."""
    store = _FrontierStore(width)
    frontiers, candidates = {}, []
    for vertex, (residents, rows) in enumerate(groups):
        if residents:
            slots = store.allocate(vertex, len(residents))
            store.matrix[slots] = residents
        frontiers[vertex] = list(residents)
        candidates += [(vertex, row) for row in rows]
    # Vertices interleave in generation order; within a vertex, candidates
    # keep the order they were drawn in.
    labels = [vertex for vertex, _ in candidates]
    rng.shuffle(labels)
    queues = {v: iter([row for w, row in candidates if w == v]) for v in set(labels)}
    candidates = [(vertex, next(queues[vertex])) for vertex in labels]
    block, picked = [], []
    for vertex, row in candidates:
        if rng.random() < 0.3:
            block.append(_cdf_row(rng, width, 0))  # screened out before dominance
        picked.append(len(block))
        block.append(row)
    cdf = np.array(block).reshape(len(block), width)
    vertices = np.array([v for v, _ in candidates], dtype=np.int64)
    return store, frontiers, candidates, cdf, np.array(picked, dtype=np.int64), vertices


def _check(rng, width, groups):
    store, frontiers, candidates, cdf, picked, vertices = _chunk(rng, width, groups)
    mask = _admit_chunk(store, cdf, picked, vertices)
    expected, evictions = _replay(frontiers, candidates)
    assert mask.tolist() == expected
    for vertex, rows in frontiers.items():
        held = [store.matrix[i].tobytes() for i in store.by_vertex.get(vertex, [])]
        assert held == [row.tobytes() for row in rows]
    return evictions


@st.composite
def admission_groups(draw):
    width = draw(st.integers(min_value=4, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    shapes = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 8)), min_size=1, max_size=5
        )
    )
    rng = np.random.default_rng(seed)
    groups = []
    for num_residents, num_candidates in shapes:
        residents = [_cdf_row(rng, width, int(rng.integers(0, 3))) for _ in range(num_residents)]
        rows: list[np.ndarray] = []
        lo = int(rng.integers(0, 4)) % width
        while len(rows) < num_candidates:
            roll = rng.random()
            if rows and roll < 0.25:  # an exact duplicate
                rows.append(rows[int(rng.integers(len(rows)))].copy())
            elif roll < 0.45:  # a non-transitive chain, in either order
                base = _cdf_row(rng, width, lo)
                chain = [_nudged(base, -2), _nudged(base, -1), _nudged(base, 0)]
                rows += chain if rng.random() < 0.5 else chain[::-1]
            elif residents and roll < 0.6:  # a resident, nudged either way
                resident = residents[int(rng.integers(len(residents)))]
                rows.append(_nudged(resident, int(rng.integers(-2, 3))))
            else:
                rows.append(_cdf_row(rng, width, lo))
        groups.append((residents, rows[:num_candidates]))
    return rng, width, groups


@settings(max_examples=120, deadline=None)
@given(admission_groups())
def test_chunk_screen_and_bitset_replay_equal_the_plain_replay(case):
    rng, width, groups = case
    _check(rng, width, groups)


def test_admission_edge_cases():
    rng = np.random.default_rng(11)
    width = 10
    base = _cdf_row(rng, width, 3)
    a, b, c = (_nudged(base, k) for k in (-2, -1, 0))
    assert _weakly_dominates(a, b) and _weakly_dominates(b, c)
    assert not _weakly_dominates(a, c)  # tolerance breaks transitivity
    # A, then B (rejected by A), then C: A does not reach C, so C is
    # admitted and evicts A — which stays admitted.
    store, frontiers, candidates, cdf, picked, vertices = _chunk(rng, width, [([], [a, b, c])])
    assert _admit_chunk(store, cdf, picked, vertices).tolist() == [True, False, True]
    assert _check(rng, width, [([], [a, b, c])]) == 1
    assert _check(rng, width, [([], [c, b, a])]) == 0
    # Duplicates: the first copy decides; later copies meet it, live.
    assert _check(rng, width, [([], [a, a, b, c, a])]) == 1
    # Residents with earlier support than every candidate (lo > 0): the
    # candidate dominates the one whose early mass is within tolerance of
    # zero, and not the other.
    early = np.cumsum(np.r_[0.5, np.zeros(width - 1)])
    late = np.cumsum(np.r_[np.zeros(5), 1.0, np.zeros(width - 6)])
    tiny = np.cumsum(np.r_[0.5 * DOMINANCE_TOL, np.zeros(4), 0.9, np.zeros(width - 6)])
    assert _check(rng, width, [([early, tiny], [late])]) == 1
    # A group wider than 64 block positions (the bytes path of the masks).
    residents = [_cdf_row(rng, width, int(rng.integers(0, 3))) for _ in range(40)]
    rows = [_cdf_row(rng, width, 1) for _ in range(30)]
    _check(rng, width, [(residents, rows), ([], [base])])
