import numpy as np
import pytest

from netadmm.data import (
    MeasurementMatrix,
    SyntheticSpec,
    frame_partition,
    generate_rigid_measurements,
    generate_synthetic,
    load_measurements,
    partition_even,
    sfm_node_shards,
)


# ------------------------------------------------------------- synthetic


def test_noiseless_samples_lie_in_subspace():
    X, W = generate_synthetic(SyntheticSpec(noise_variance=0.0, seed=3))
    residual = X - W @ (W.T @ X)
    assert np.abs(residual).max() < 1e-10


def test_default_spec_spectrum():
    # generative covariance W W^T + 0.2 I: five eigenvalues at 1.2, rest 0.2.
    # Individual noise eigenvalues spread past 30% at N=500 (sample
    # covariance edge effects), so the bulk is checked through its mean.
    X, _ = generate_synthetic(SyntheticSpec(seed=1))
    eigs = np.sort(np.linalg.eigvalsh(np.cov(X)))[::-1]
    assert np.all(np.abs(eigs[:5] - 1.2) < 0.3 * 1.2)
    assert abs(eigs[5:].mean() - 0.2) < 0.3 * 0.2
    assert eigs[5:].max() < eigs[:5].min()


def test_generator_deterministic():
    a, wa = generate_synthetic(SyntheticSpec(seed=7))
    b, wb = generate_synthetic(SyntheticSpec(seed=7))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(wa, wb)


def test_ground_truth_orthonormal():
    _, W = generate_synthetic(SyntheticSpec(seed=2))
    np.testing.assert_allclose(W.T @ W, np.eye(5), atol=1e-12)


def test_sample_mean_near_zero():
    spec = SyntheticSpec(seed=4)
    X, W = generate_synthetic(spec)
    sigma = np.sqrt(np.sum(W**2, axis=1) + spec.noise_variance)
    bound = 5.0 * sigma / np.sqrt(spec.num_samples)
    assert np.all(np.abs(X.mean(axis=1)) <= bound)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_samples": 0},
        {"ambient_dim": 3, "latent_dim": 4},
        {"noise_variance": -1.0},
        {"noise_variance": float("nan")},
        {"noise_variance": float("inf")},
        {"seed": -1},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SyntheticSpec(**kwargs)


# ------------------------------------------------------------ partition


def test_partition_500_over_20():
    X = np.arange(2 * 500, dtype=float).reshape(2, 500)
    shards = partition_even(X, 20)
    assert [s.shape[1] for s in shards] == [25] * 20


def test_partition_remainder_spread():
    X = np.zeros((3, 10))
    assert [s.shape[1] for s in partition_even(X, 3)] == [4, 3, 3]


def test_partition_single_node():
    X = np.random.default_rng(0).normal(size=(4, 9))
    (shard,) = partition_even(X, 1)
    np.testing.assert_array_equal(shard, X)


def test_partition_is_exact_cover():
    X = np.arange(7 * 23, dtype=float).reshape(7, 23)
    shards = partition_even(X, 5)
    np.testing.assert_array_equal(np.concatenate(shards, axis=1), X)


def test_partition_shards_are_views_of_the_input():
    X = np.arange(7 * 23, dtype=float).reshape(7, 23)
    shards = partition_even(X, 5)
    assert [s.shape for s in shards] == [(7, 5), (7, 5), (7, 5), (7, 4), (7, 4)]
    start = 0
    for shard in shards:
        assert np.shares_memory(shard, X)
        np.testing.assert_array_equal(shard, X[:, start : start + shard.shape[1]])
        start += shard.shape[1]


def test_partition_rejects_too_many_nodes():
    with pytest.raises(ValueError):
        partition_even(np.zeros((2, 3)), 4)


# ------------------------------------------------------------ ingestion


def _write_csv(tmp_path, rows, name="m.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


def test_load_ballsander_shape(tmp_path):
    # 62 tracked points over 30 frames: 60 coordinate rows
    rng = np.random.default_rng(0)
    path = _write_csv(tmp_path, rng.normal(size=(60, 62)).tolist())
    mm = load_measurements(path)
    assert mm.num_frames == 30
    assert mm.num_points == 62


def test_load_rejects_odd_row_count(tmp_path):
    path = _write_csv(tmp_path, np.ones((3, 4)).tolist())
    with pytest.raises(ValueError, match="even number"):
        load_measurements(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no measurement rows"):
        load_measurements(path)


def test_load_reports_bad_cell_position(tmp_path):
    path = _write_csv(tmp_path, [[1.0, 2.0], [3.0, "oops"]])
    with pytest.raises(ValueError, match="row 2, column 2"):
        load_measurements(path)


def test_load_rejects_non_finite_values(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,2\ninf,4\n")
    with pytest.raises(ValueError, match="non-finite value at row 2, column 1"):
        load_measurements(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 2 has 2 columns"):
        load_measurements(path)


def test_load_skips_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("p0,p1\n1,2\n3,4\n")
    mm = load_measurements(path)
    assert mm.values.shape == (2, 2)
    np.testing.assert_array_equal(mm.values, [[1.0, 2.0], [3.0, 4.0]])



def test_load_ignores_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n7,8\n")
    mm = load_measurements(path)
    np.testing.assert_array_equal(mm.values, [[1, 2], [3, 4], [5, 6], [7, 8]])


def test_load_skips_header_after_byte_order_mark(tmp_path):
    path = tmp_path / "bom_hdr.csv"
    path.write_bytes(b"\xef\xbb\xbfp0,p1\n1,2\n3,4\n")
    mm = load_measurements(path)
    np.testing.assert_array_equal(mm.values, [[1, 2], [3, 4]])


def test_load_reports_first_fault_in_file_order(tmp_path):
    path = tmp_path / "faults.csv"
    path.write_text("1,2\n3,nan\n5,6\n7,8\nabc,10\n")
    with pytest.raises(ValueError, match="non-finite value at row 2, column 2"):
        load_measurements(path)


def test_load_reports_first_fault_within_a_row(tmp_path):
    path = tmp_path / "faults.csv"
    path.write_text("1,2,3\ninf,5,abc\n")
    with pytest.raises(ValueError, match="non-finite value at row 2, column 1"):
        load_measurements(path)


def test_load_accepts_quoted_and_padded_cells(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('"1.5", 2\n 3 ,"-4e0"\n')
    mm = load_measurements(path)
    np.testing.assert_array_equal(mm.values, [[1.5, 2.0], [3.0, -4.0]])


def test_load_row_numbers_count_skipped_blank_lines(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("\n1,2\n\n , \n3,x\n")
    with pytest.raises(ValueError, match="non-numeric cell at row 5, column 2: 'x'"):
        load_measurements(path)


def test_load_round_trips_seventeen_digit_csv(tmp_path):
    matrix = generate_rigid_measurements(40, 200)
    path = tmp_path / "rigid.csv"
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
    loaded = load_measurements(path)
    assert loaded.values.dtype == np.float64
    np.testing.assert_array_equal(loaded.values, matrix)


# ------------------------------------------------------------- sfm prep


def test_frame_partition_even():
    parts = frame_partition(30, 5)
    assert [len(p) for p in parts] == [6] * 5
    assert [p.start for p in parts] == [0, 6, 12, 18, 24]


def test_frame_partition_uneven_exact_cover():
    parts = frame_partition(10, 3)
    assert [len(p) for p in parts] == [4, 3, 3]
    assert [f for p in parts for f in p] == list(range(10))


def test_frame_partition_rejects_excess_nodes():
    with pytest.raises(ValueError):
        frame_partition(3, 4)


def test_sfm_shards_shapes_and_centering():
    mm = MeasurementMatrix(generate_rigid_measurements(10, 17, seed=1))
    shards = sfm_node_shards(mm, 5)
    assert [s.shape for s in shards] == [(17, 4)] * 5
    for shard in shards:
        # each sample (frame row) centered over the points
        np.testing.assert_allclose(shard.mean(axis=0), 0.0, atol=1e-12)


def test_rigid_measurements_are_near_rank_three():
    A = generate_rigid_measurements(20, 50, noise_sigma=0.0, seed=3)
    centered = A - A.mean(axis=1, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    assert s[2] > 1e-6
    assert s[3] < 1e-10 * s[0]
