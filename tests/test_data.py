import warnings

import numpy as np
import pytest

from link3d import ConfigError, FileFormatError, PointCloud
from link3d.data import (
    gen_labeled_scene,
    gen_synthetic_scene,
    load_lidar_bin,
    majority_vote,
    voxel_majority_labels,
)
from link3d.core import voxelize
from oracles import loop_majority


class TestLidarBin:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(np.array([1.0, 2.0, 3.0, 0.5], dtype="<f4").tobytes())
        cloud = load_lidar_bin(path)
        assert cloud.num_points == 1
        np.testing.assert_array_equal(cloud.points[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cloud.attributes[0], [0.5])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert load_lidar_bin(path).num_points == 0

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        pts = rng.normal(0, 50, size=(1000, 3)).astype(np.float32)
        intensity = rng.uniform(0, 1, size=(1000, 1)).astype(np.float32)
        cloud = PointCloud(pts.astype(np.float64), intensity.astype(np.float64))
        path = tmp_path / "scan.bin"
        path.write_bytes(np.concatenate([pts, intensity], axis=1).astype("<f4").tobytes())
        back = load_lidar_bin(path)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.attributes, cloud.attributes)
        # byte-level identity on a second write
        rec = np.concatenate([back.points, back.attributes], axis=1).astype("<f4")
        assert path.read_bytes() == rec.tobytes()

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FileFormatError):
            load_lidar_bin(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_lidar_bin(tmp_path / "absent.bin")


class TestSyntheticScenes:
    def test_same_seed_identical(self):
        a = gen_synthetic_scene(7, 500, 2.0, "uniform")
        b = gen_synthetic_scene(7, 500, 2.0, "uniform")
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.attributes, b.attributes)

    def test_different_seed_differs(self):
        a = gen_synthetic_scene(7, 500, 2.0)
        b = gen_synthetic_scene(8, 500, 2.0)
        assert not np.array_equal(a.points, b.points)

    def test_zero_points(self):
        assert gen_synthetic_scene(0, 0, 2.0).num_points == 0

    def test_uniform_within_extent(self):
        cloud = gen_synthetic_scene(3, 5000, 3.0, "uniform")
        assert cloud.points.min() >= -1.5
        assert cloud.points.max() <= 1.5

    def test_ground_clusters_profile(self):
        cloud = gen_synthetic_scene(3, 4000, 2.0, "ground+clusters")
        assert cloud.num_points == 4000
        # the ground slab keeps most z values near zero
        assert np.median(np.abs(cloud.points[:, 2])) < 0.1

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            gen_synthetic_scene(0, 10, 1.0, "spiral")

    def test_labeled_scene(self):
        cloud, labels = gen_labeled_scene(5, 2000, 1.0, num_classes=4)
        assert labels.shape == (2000,)
        assert labels.min() == 0 and labels.max() <= 3
        cloud2, labels2 = gen_labeled_scene(5, 2000, 1.0, num_classes=4)
        assert np.array_equal(labels, labels2)
        assert np.array_equal(cloud.points, cloud2.points)


class TestVoxelLabels:
    def test_majority_per_voxel(self):
        points = np.array(
            [[0.01, 0.01, 0.01], [0.02, 0.02, 0.02], [0.03, 0.01, 0.02],
             [0.31, 0.31, 0.31]]
        )
        cloud = PointCloud(points, np.ones((4, 1)))
        t = voxelize(cloud, 0.05)
        labels = voxel_majority_labels(cloud, np.array([1, 1, 2, 3]), 0.05, t, 4)
        by_coord = {tuple(c): l for c, l in zip(t.coords, labels)}
        assert by_coord[(0, 0, 0, 0)] == 1
        assert by_coord[(0, 6, 6, 6)] == 3

    def test_matches_loop_with_ties(self):
        # few points per coarse voxel and three classes make ties common
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.uniform(0, 0.4, (600, 3)), np.ones((600, 1)))
        labels = rng.integers(0, 3, size=600)
        t = voxelize(cloud, 0.1)
        vox = np.floor(cloud.points / 0.1).astype(np.int64)
        rows = t.lookup(np.concatenate([np.zeros((600, 1), np.int64), vox], 1))
        counts = np.zeros((t.num_voxels, 3), dtype=np.int64)
        np.add.at(counts, (rows, labels), 1)
        top = counts.max(axis=1, keepdims=True)
        assert ((counts == top).sum(axis=1) > 1).any()
        got = voxel_majority_labels(cloud, labels, 0.1, t, 3)
        np.testing.assert_array_equal(got, loop_majority(rows, labels, t.num_voxels, 3))

    def test_unpackable_point_has_no_vote_and_no_warning(self):
        # 1e30 / 0.05 floors to a float no int64 cast can hold
        points = np.array([[0.01, 0.01, 0.01], [0.02, 0.01, 0.01], [0.31, 0.0, 0.0]])
        labels = np.array([1, 1, 2, 3, 3])
        t = voxelize(PointCloud(points, np.ones((3, 1))), 0.05)
        far = np.concatenate([points, [[1e30, 0.0, 0.0], [0.0, -1e300, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = voxel_majority_labels(PointCloud(far, np.ones((5, 1))), labels, 0.05, t, 4)
        np.testing.assert_array_equal(got, [1, 2])

    def test_vote_skips_missing_rows_and_empty_rows(self):
        rows = np.array([-1, 2, 2, 0, -1, 2])
        labels = np.array([3, 1, 2, 2, 3, 2])
        np.testing.assert_array_equal(majority_vote(rows, labels, 4, 4), [2, 0, 2, 0])
        np.testing.assert_array_equal(
            majority_vote(rows, labels, 4, 4), loop_majority(rows, labels, 4, 4)
        )

    def test_vote_rejects_out_of_range_label(self):
        with pytest.raises(ConfigError):
            majority_vote(np.array([0, 1]), np.array([0, 4]), 2, 4)
