"""Translation-span dimension: three independent computations must agree.

Route one counts nonvanishing transform coefficients (the span oracle),
route two takes the numerical rank of the full translate matrix, and the
test-local route three counts coefficients from the raw DFT definition
without going through numpy's FFT.  The program runs routes one and two
on stacks of trials (`span_counts`), ranking an even-m matrix as two
half-size blocks; the per-trial functions below are the oracle the
stack's counts are compared with.  The stacked FFT and the stacked SVD of
full matrices match the per-trial ones bit for bit, and the blocks'
singular values match the full matrix's to rounding.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.random import SeedSequence

import fracspec.experiments as experiments
import fracspec.tauberian.span as span
from fracspec.errors import DomainError, SizeError
from fracspec.experiments import span_trials
from fracspec.tauberian.grid import DEFAULT_TOL_FACTOR
from fracspec.tauberian.span import rank_blocks, span_counts, translate_matrices


def naive_dft_nonzero_count(values, tol):
    """Direct O(m^2) transform from the definition, unitary scaling."""
    m = len(values)
    count = 0
    for k in range(m):
        acc = 0j
        for x in range(m):
            acc += values[x] * np.exp(-2j * np.pi * k * x / m)
        if abs(acc / np.sqrt(m)) >= tol:
            count += 1
    return count


def dft(row):
    """The unitary transform of one trial row."""
    return np.fft.fft(row, norm="ortho")


def oracle_tol(row):
    """The per-trial tol: 1e-9 times the peak modulus, 0 for the zero
    function."""
    peak = float(np.abs(dft(row)).max())
    return DEFAULT_TOL_FACTOR * peak if peak > 0 else 0.0


def oracle_zero_count(row):
    """Coefficients below tol; every coefficient of the zero function."""
    mags = np.abs(dft(row))
    return len(row) if mags.max() == 0 else int(np.count_nonzero(mags < oracle_tol(row)))


def roll_circulant(values):
    """The translate matrix as it was first built: one np.roll per row."""
    return np.stack([np.roll(values, k) for k in range(len(values))])


def roll_skew_circulant(values):
    """The skew-circulant from its definition: row k is the row rolled by
    k, with the k entries that wrapped around negated."""
    mat = roll_circulant(values)
    for k in range(len(values)):
        mat[k, :k] *= -1
    return mat


def oracle_rank(row):
    """Rank of one translate matrix, with the cutoff sqrt(m) tol."""
    return int(np.linalg.matrix_rank(roll_circulant(row), tol=np.sqrt(len(row)) * oracle_tol(row)))


def oracle_counts(rows):
    """(span_dim, circulant_rank, dft_zeros) one trial at a time."""
    zeros = [oracle_zero_count(row) for row in rows]
    return (
        np.array([len(row) - z for row, z in zip(rows, zeros)]),
        np.array([oracle_rank(row) for row in rows]),
        np.array(zeros),
    )


def counts_of(values):
    return span_counts(np.asarray(values)[None, :])


def test_three_routes_agree_on_seeded_grids():
    rng = np.random.default_rng(2024)
    rows = rng.normal(size=(20, 16)) + 1j * rng.normal(size=(20, 16))
    span_dim, rank, zeros = span_counts(rows)
    for row, o, r, z in zip(rows, span_dim, rank, zeros):
        tol = 1e-9 * float(np.abs(dft(row)).max())
        assert o == r == naive_dft_nonzero_count(row, tol) == 16 - z


def test_difference_of_adjacent_deltas():
    # e_0 - e_1 kills exactly the k = 0 coefficient
    values = np.zeros(8)
    values[0], values[1] = 1.0, -1.0
    assert [c.tolist() for c in counts_of(values)] == [[7], [7], [1]]


def test_comb_spans_half():
    # 1 on even residues of Z_8: transform is supported on {0, 4}
    values = np.array([1.0, 0, 1.0, 0, 1.0, 0, 1.0, 0])
    assert [c.tolist() for c in counts_of(values)] == [[2], [2], [6]]


def test_zero_function_spans_nothing():
    # tol is 0; every coefficient vanishes because it is exactly 0
    assert [c.tolist() for c in counts_of(np.zeros(8))] == [[0], [0], [8]]


def test_subnormal_constant_spans_one():
    # 1e-9 times the peak underflows to tol = 0; the exact zeros still vanish
    values = np.full(8, 1e-320)
    assert DEFAULT_TOL_FACTOR * float(np.abs(dft(values)).max()) == 0.0
    assert [c.tolist() for c in counts_of(values)] == [[1], [1], [7]]


def test_circulant_matrix_structure():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    mat = translate_matrices(values[None, :])[0]
    assert mat.shape == (4, 4)
    assert np.array_equal(mat[0], values)
    assert np.array_equal(mat[1], np.array([4.0, 1.0, 2.0, 3.0]))
    assert not mat.flags.writeable


@pytest.mark.parametrize("m", [2, 3, 64, 65])
def test_circulant_matrix_matches_roll_reference(m):
    rng = np.random.default_rng(m)
    rows = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    stack = translate_matrices(rows)
    for mat, row in zip(stack, rows):
        ref = roll_circulant(row)
        assert mat.dtype == ref.dtype
        assert np.array_equal(mat, ref)


@pytest.mark.parametrize("m", [2, 3, 8, 65])
def test_skew_matrix_matches_roll_reference(m):
    rows = seeded_rows(m, 3, 300 + m)
    stack = translate_matrices(rows, -1)
    assert not stack.flags.writeable
    for mat, row in zip(stack, rows):
        assert np.array_equal(mat, roll_skew_circulant(row))


@pytest.mark.parametrize("m", [2, 8, 64])
def test_fold_singular_values_are_the_circulants(m):
    """The circulant of lo + hi and the skew-circulant of lo - hi have
    together the full translate matrix's singular values, unscaled."""
    rows = seeded_rows(m, 4, 200 + m)
    lo, hi = rows[:, : m // 2], rows[:, m // 2 :]
    blocks = rank_blocks(rows)
    assert [sign for _, sign in blocks] == [1, -1]
    assert np.array_equal(blocks[0][0], lo + hi)
    assert np.array_equal(blocks[1][0], lo - hi)
    halves = [np.linalg.svd(translate_matrices(b, sign), compute_uv=False) for b, sign in blocks]
    for t, row in enumerate(rows):
        full = np.sort(np.linalg.svd(roll_circulant(row), compute_uv=False))
        folded = np.sort(np.concatenate([svals[t] for svals in halves]))
        assert np.abs(folded - full).max() <= 1e-12 * full[-1]


@pytest.mark.parametrize("m", [3, 65, 97])
def test_odd_m_ranks_the_unfolded_matrix(m):
    rows = seeded_rows(m, 2, m)
    [(block, sign)] = rank_blocks(rows)
    assert block is rows and sign == 1


def planted_zero_rows(m, ks, trials, seed):
    """Rows whose unitary transform is random off ks and zero on ks."""
    fhat = seeded_rows(m, trials, seed)
    fhat[:, sorted(ks)] = 0
    return np.fft.ifft(fhat, axis=-1)


def zero_sets(m):
    odd = {k for k in range(1, m, 2) if k % 3 != 2}
    even = {k for k in range(0, m, 2) if k % 3 != 2}
    return {"odd": odd, "even": even, "both": odd | even}


@pytest.mark.parametrize("m", [2, 3, 8, 64, 65, 97])
@pytest.mark.parametrize("which", ["odd", "even", "both"])
def test_planted_zeros_match_oracle_rank(m, which):
    """Zeros at odd k are the roots of x^h + 1 and leave the skew block,
    zeros at even k the circulant block; either way the summed rank is
    the count of nonzero coefficients and the oracle's."""
    ks = zero_sets(m)[which]
    rows = planted_zero_rows(m, ks, 4, 400 + m)
    span_dim, rank, zeros = span_counts(rows)
    assert rank.tolist() == [oracle_rank(row) for row in rows] == [m - len(ks)] * 4
    assert span_dim.tolist() == rank.tolist() and zeros.tolist() == [len(ks)] * 4
    if m % 2 == 0:
        h = m // 2
        cut = np.sqrt(m) * np.array([oracle_tol(row) for row in rows])
        per_block = [
            np.linalg.matrix_rank(translate_matrices(b, sign), tol=cut) for b, sign in rank_blocks(rows)
        ]
        odd = sum(k % 2 for k in ks)
        assert per_block[0].tolist() == [h - (len(ks) - odd)] * 4
        assert per_block[1].tolist() == [h - odd] * 4


def test_span_requires_1d():
    with pytest.raises(DomainError):
        span_counts(np.ones((4, 4, 4)))
    with pytest.raises(DomainError):
        span_counts(np.ones(8))
    with pytest.raises(DomainError):
        span_counts(np.ones((3, 1)))
    with pytest.raises(DomainError):
        span_counts(np.array([[1.0, np.nan]]))


def test_span_budget_refused_before_transform(monkeypatch):
    monkeypatch.setattr(span, "fft", lambda *args, **kwargs: pytest.fail("transformed"))
    with pytest.raises(SizeError):
        span_counts(np.ones((1, 2049)))


def seeded_rows(m, trials, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))


@pytest.mark.parametrize("m", [2, 3, 7, 8, 64, 65, 97])
def test_stack_transform_and_singular_values_are_per_trial_bits(m):
    """One FFT along the rows and one stacked SVD give each trial's
    moduli and singular values bit for bit."""
    rows = seeded_rows(m, 5, 100 + m)
    mags = np.abs(np.fft.fft(rows, axis=-1, norm="ortho"))
    svals = np.linalg.svd(translate_matrices(rows), compute_uv=False)
    for row, mag, sval in zip(rows, mags, svals):
        assert np.array_equal(mag.view(np.uint64), np.abs(dft(row)).view(np.uint64))
        ref = np.linalg.svd(roll_circulant(row), compute_uv=False)
        assert np.array_equal(sval.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("m", [2, 3, 7, 8, 64, 65, 97])
def test_stack_counts_match_per_trial_oracle(m):
    """Random trials, the comb, the zero function and a tiny trial, whose
    own tol is far below the others', in one stack."""
    rows = seeded_rows(m, 6, 7 * m)
    rows[2] = np.where(np.arange(m) % 2 == 0, 1.0, 0.0)
    rows[4] = 0.0
    rows[5] *= 1e-12
    got = span_counts(rows)
    for g, w in zip(got, oracle_counts(rows)):
        assert g.dtype == np.intp
        assert g.tolist() == w.tolist()


def per_child_rows(m, root, trials):
    """One draw per trial from its own child, as the trials were drawn
    before they were drawn in chunks."""
    rows = []
    for child in root.spawn(trials):
        rng = np.random.default_rng(child)
        rows.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return np.array(rows)


CHUNK = 3


@pytest.mark.parametrize("m", [2, 3, 7, 8, 64, 65, 97])
@pytest.mark.parametrize("trials", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_chunked_trials_match_per_trial_oracle(monkeypatch, m, trials):
    """Drawn in chunks of 3 rows, row t is bit for bit the draw from the
    t-th child, and the counts equal the per-trial oracle's."""
    monkeypatch.setattr(experiments, "SPAN_CHUNK_ENTRIES", CHUNK * m)
    seen = []
    monkeypatch.setattr(
        experiments, "span_counts", lambda rows: seen.append(rows.copy()) or span_counts(rows)
    )
    got = span_trials(m, SeedSequence(m), trials)
    assert [len(rows) for rows in seen] == [CHUNK] * (trials // CHUNK) + [trials % CHUNK] * (
        trials % CHUNK > 0
    )
    rows = per_child_rows(m, SeedSequence(m), trials)
    assert np.array_equal(np.concatenate(seen).view(np.uint64), rows.view(np.uint64))
    assert got.shape == (3, trials)
    assert got.tolist() == [c.tolist() for c in oracle_counts(rows)]


def test_span_trials_refuse_the_budget_before_drawing(monkeypatch):
    monkeypatch.setattr(experiments, "default_rng", lambda *args: pytest.fail("drew"))
    with pytest.raises(SizeError):
        span_trials(2049, SeedSequence(0), 3)


def traced_peak(m, trials):
    tracemalloc.start()
    try:
        span_trials(m, SeedSequence(3), trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_span_trials_hold_no_dense_matrix_stack():
    """1000 trials at m 64 peak at about 5 MB; a dense (T, 32, 32) copy of
    either half-size block would add 16 MB."""
    assert traced_peak(64, 1000) <= 6 * 2**20


def test_span_trials_memory_does_not_grow_with_trials(monkeypatch):
    """Peak traced memory at 4 chunks of trials stays within 10 % of the
    peak at one chunk."""
    m, chunk = 32, 64
    monkeypatch.setattr(experiments, "SPAN_CHUNK_ENTRIES", chunk * m)
    one, four = traced_peak(m, chunk), traced_peak(m, 4 * chunk)
    assert four <= 1.1 * one, (one, four)


def test_span_trials_peak_at_benchmark_size():
    """The benchmark's 1000 trials at m 64 draw and rank 64-row chunks of
    64 KB: the traced peak is 0.29 MB (1.29 MB with 256 KB chunks, as
    floats drawn apart and summed into a new complex stack)."""
    tracemalloc.start()
    try:
        span_trials(64, SeedSequence(1), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**19, peak
