"""Synthetic benchmark generators and the selection success score."""

import io

import numpy as np
import pytest

from beliefsel.benchdata import GENERATORS, GroundTruth, generate, success_score
from beliefsel.errors import DataError
from oracles import mutual_information


class TestSuccessScore:
    TRUTH = GroundTruth(n_features=12, relevant=(0, 1, 2), redundant=(3, 4, 5))

    def test_partial_coverage_with_one_redundant(self):
        got = success_score([0, 3, 1], self.TRUTH)
        assert got == pytest.approx(2 / 3 - 0.1 / 3)

    def test_clean_sweep_is_exactly_one(self):
        assert success_score([0, 1, 2], self.TRUTH) == 1.0

    def test_full_coverage_with_two_redundant(self):
        got = success_score([0, 1, 2, 3, 4], self.TRUTH)
        assert got == pytest.approx(1.0 - 0.1 * (2 / 3))

    def test_zeta_scales_the_penalty(self):
        base = success_score([0, 3], self.TRUTH, zeta=0.0)
        assert base == pytest.approx(1 / 3)
        assert success_score([0, 3], self.TRUTH, zeta=0.3) == pytest.approx(
            1 / 3 - 0.1)

    def test_no_redundant_side_means_no_penalty(self):
        truth = GroundTruth(n_features=5, relevant=(0, 1))
        assert success_score([0, 1, 3, 4], truth) == 1.0

    def test_grouped_counting(self):
        truth = GroundTruth(n_features=30, relevant=tuple(range(20)),
                            groups=((0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
                                    (10, 11, 12, 13, 14, 15, 16, 17, 18, 19)))
        # one group covered twice, the other never
        got = success_score([0, 5, 25], truth)
        assert got == pytest.approx(1 / 2 - 0.1 * (1 / 18))
        assert success_score([3, 14], truth) == 1.0

    def test_out_of_range_selection_rejected(self):
        with pytest.raises(DataError):
            success_score([99], self.TRUTH)

    def test_truth_without_relevant_side_rejected(self):
        with pytest.raises(DataError):
            success_score([0], GroundTruth(n_features=3, relevant=()))

    def test_truth_round_trips_through_json(self):
        truth = GroundTruth(n_features=9, relevant=(0, 1), redundant=(2,),
                            groups=((0, 1),))
        buf = io.StringIO()
        truth.write(buf)
        assert GroundTruth.read(io.StringIO(buf.getvalue())) == truth


class TestParityBits:
    def test_shape_and_annotations(self):
        ds, truth = generate("parity33", seed=0)
        assert (ds.n_instances, ds.n_features) == (64, 12)
        assert not ds.numeric.any()
        assert truth.relevant == (0, 1, 2)
        assert truth.redundant == (3, 4, 5)
        assert len(truth.irrelevant()) == 6

    def test_labels_are_parity_and_balanced(self):
        ds, _ = generate("parity33", seed=1)
        bits = ds.rows.astype(int)
        want = bits[:, 0] ^ bits[:, 1] ^ bits[:, 2]
        assert np.array_equal(ds.labels, want)
        assert np.bincount(ds.labels).tolist() == [32, 32]

    def test_every_pattern_appears_equally_often(self):
        ds, _ = generate("parity33", seed=2)
        bits = ds.rows[:, :3].astype(int)
        patterns = bits[:, 0] * 4 + bits[:, 1] * 2 + bits[:, 2]
        assert np.bincount(patterns, minlength=8).tolist() == [8] * 8

    def test_redundant_bits_are_exact_copies(self):
        ds, _ = generate("parity33", seed=3)
        assert np.array_equal(ds.rows[:, 3:6], ds.rows[:, 0:3])

    def test_determining_bits_have_exactly_zero_marginal_mi(self):
        # Perfect balance makes each parity bit independent of the class,
        # which is what starves marginal-only rankers on this data.
        ds, _ = generate("parity33", seed=0)
        for j in range(6):
            assert mutual_information(ds.rows[:, j].astype(int), ds.labels) == 0.0


class TestCorralAndXor:
    def test_corral_shape_and_rule(self):
        ds, truth = generate("corral100", seed=0)
        assert (ds.n_instances, ds.n_features) == (32, 99)
        bits = ds.rows.astype(int)
        want = (bits[:, 0] & bits[:, 1]) | (bits[:, 2] & bits[:, 3])
        assert np.array_equal(ds.labels, want)
        assert truth.relevant == (0, 1, 2, 3)
        assert truth.redundant == ()

    def test_corral_enumerates_all_patterns(self):
        ds, _ = generate("corral100", seed=4)
        bits = ds.rows[:, :4].astype(int)
        patterns = bits @ (1 << np.arange(3, -1, -1))
        assert np.bincount(patterns, minlength=16).tolist() == [2] * 16

    def test_xor_shape_and_rule(self):
        ds, truth = generate("xor100", seed=0)
        assert (ds.n_instances, ds.n_features) == (50, 99)
        bits = ds.rows.astype(int)
        assert np.array_equal(ds.labels, bits[:, 0] ^ bits[:, 1])
        assert truth.relevant == (0, 1)


class TestGroupedClusters:
    def test_shape_and_group_annotations(self):
        ds, truth = generate("sd3", seed=0)
        assert (ds.n_instances, ds.n_features) == (75, 4060)
        assert np.bincount(ds.labels).tolist() == [25, 25, 25]
        assert truth.groups is not None and len(truth.groups) == 6
        assert truth.relevant == tuple(range(60))
        assert all(len(g) == 10 for g in truth.groups)

    def test_within_group_correlation_is_near_collinear(self):
        ds, truth = generate("sd3", seed=0)
        for g in truth.groups:
            cols = ds.rows[:, list(g)]
            corr = np.corrcoef(cols, rowvar=False)
            assert np.abs(corr).min() > 0.95

    def test_groups_stay_mutually_distinct(self):
        # Groups share the class structure, so cross-group correlation
        # cannot vanish; it must sit clearly below the within-group level.
        ds, truth = generate("sd3", seed=0)
        reps = ds.rows[:, [g[0] for g in truth.groups]]
        corr = np.corrcoef(reps, rowvar=False)
        off = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 0.85
        within = []
        for g in truth.groups:
            c = np.corrcoef(ds.rows[:, list(g)], rowvar=False)
            within.append(np.abs(c).min())
        assert min(within) > np.abs(off).max() + 0.1

    def test_noise_block_is_uninformative(self):
        ds, _ = generate("sd3", seed=1)
        noise = ds.rows[:, 60:]
        assert abs(noise.mean()) < 0.05
        # class means of a noise column stay well inside the signal gap
        spread = [np.ptp([noise[ds.labels == c, 0].mean() for c in range(3)])]
        assert max(spread) < 1.5


class TestClusterParity:
    def test_shape_and_annotations(self):
        ds, truth = generate("madelon", seed=0)
        assert (ds.n_instances, ds.n_features) == (2400, 500)
        assert truth.relevant == tuple(range(5))
        assert truth.redundant == tuple(range(5, 20))

    def test_redundant_block_is_linear_in_the_informative_block(self):
        ds, _ = generate("madelon", seed=0)
        A = ds.rows[:, :5]
        B = ds.rows[:, 5:20]
        _, residuals, rank, _ = np.linalg.lstsq(A, B, rcond=None)
        assert rank == 5
        assert residuals.max() < 1e-18 * ds.n_instances or residuals.size == 0

    def test_classes_roughly_balanced(self):
        ds, _ = generate("madelon", seed=2)
        counts = np.bincount(ds.labels)
        assert abs(counts[0] - counts[1]) < 2400 * 0.1


class TestGenerate:
    def test_same_seed_reproduces_different_seed_varies(self):
        a, _ = generate("xor100", seed=5)
        b, _ = generate("xor100", seed=5)
        c, _ = generate("xor100", seed=6)
        assert np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    def test_every_registered_name_builds(self):
        for name in GENERATORS:
            ds, truth = generate(name, seed=0)
            assert ds.n_features == truth.n_features
            assert ds.n_instances > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(DataError):
            generate("nope")
