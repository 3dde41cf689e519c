"""Projection head forward/backward, prototypes, optimizer schedule."""

import numpy as np
import pytest

from support import finite_diff, rel_error, unit_rows

from ltgcd.clustering import kmeans_pp_extend
from ltgcd.config import Hyperparams
from ltgcd.errors import DataFormatError, TrainingDiverged, ValidationError
from ltgcd.model import (
    ProjectionHead,
    Prototypes,
    backward,
    forward,
    forward_cached,
    init_head,
    init_prototypes,
    learning_rate,
    predict_probs,
    sgd_step,
    update_prototypes,
)
from ltgcd.rng import derive_stream


def random_head(rng, d=16, h=16, p=16):
    return init_head(d, h, p, rng)


class TestForward:
    def test_outputs_unit_norm(self):
        rng = derive_stream(0, "test")
        head = random_head(rng)
        out = forward(head, rng.standard_normal((12, 16)))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-9

    def test_constant_head(self):
        b2 = np.zeros(4)
        b2[0] = 1.0
        head = ProjectionHead(W1=np.zeros((3, 5)), b1=np.zeros(3),
                              W2=np.zeros((4, 3)), b2=b2)
        out = forward(head, np.random.default_rng(0).standard_normal((6, 5)))
        assert np.allclose(out, np.tile([1.0, 0, 0, 0], (6, 1)))

    def test_duplicate_rows_give_identical_outputs(self):
        rng = derive_stream(1, "test")
        head = random_head(rng)
        x = rng.standard_normal(16)
        out = forward(head, np.stack([x, x]))
        assert np.array_equal(out[0], out[1])

    def test_degenerate_pre_normalization_rejected(self):
        head = ProjectionHead(W1=np.zeros((3, 5)), b1=np.zeros(3),
                              W2=np.zeros((4, 3)), b2=np.zeros(4))
        with pytest.raises(TrainingDiverged, match="degenerate"):
            forward(head, np.ones((2, 5)))

    @pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the overflow under test
    def test_non_finite_norm_rejected_naming_the_first_row(self, value):
        # a finite 1e200 input overflows its row norm to inf; NaN fails every
        # comparison, so the floor check alone would let it through
        head = random_head(derive_stream(1, "test"))
        X = np.ones((4, 16))
        X[2, 0] = X[3, 0] = value
        for fn in (forward, forward_cached):
            with pytest.raises(TrainingDiverged, match="degenerate .* at row 2 "):
                fn(head, X)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = derive_stream(2, "test")
        head = random_head(rng)
        X = rng.standard_normal((8, 16))
        grads = backward(head, X, np.zeros((8, 16)), forward_cached(head, X)[1])
        assert all(np.all(g == 0) for g in grads.values())

    def test_matches_finite_differences_on_20_configs(self):
        # oracle: central differences of the scalar sum(G * forward(head, X))
        for trial in range(20):
            rng = derive_stream(100 + trial, "test")
            head = random_head(rng)
            X = rng.standard_normal((8, 16))
            G = rng.standard_normal((8, 16))
            analytic = backward(head, X, G, forward_cached(head, X)[1])
            for name in ("W1", "b1", "W2", "b2"):
                def scalar(param, name=name):
                    trial_head = ProjectionHead(**{
                        k: (param if k == name else np.array(v))
                        for k, v in head.params().items()
                    })
                    return float(np.sum(G * forward(trial_head, X)))
                fd = finite_diff(scalar, np.array(getattr(head, name)), h=1e-5)
                assert rel_error(analytic[name], fd) <= 1e-4

    def test_dead_relu_unit_has_zero_first_layer_gradient(self):
        rng = derive_stream(3, "test")
        head = random_head(rng, d=6, h=4, p=5)
        head.b2 += 0.5  # keep rows non-degenerate even if every unit is dead
        X = rng.standard_normal((7, 6))
        pre = X @ head.W1.T + head.b1
        dead = 2
        head.b1[dead] = -np.abs(pre[:, dead]).max() - head.b1[dead] - 1.0
        grads = backward(head, X, rng.standard_normal((7, 5)), forward_cached(head, X)[1])
        assert np.all(grads["W1"][dead] == 0.0)
        assert grads["b1"][dead] == 0.0


class TestForwardCache:
    def test_cached_forward_matches_forward_byte_for_byte(self):
        rng = derive_stream(4, "test")
        head = random_head(rng, d=12, h=24, p=8)
        X = rng.standard_normal((30, 12))
        assert forward_cached(head, X)[0].tobytes() == forward(head, X).tobytes()

    @np.errstate(all="ignore")   # as train_one runs it; the row check names an overflow
    def test_accepted_rows_are_unit_norm_in_float32(self):
        # overall_loss does not check row norms: it relies on every row that
        # forward_cached accepts being unit-norm after train_one's float32 cast
        rng = derive_stream(5, "test")
        accepted = 0
        for _ in range(1500):
            d, h, p, n = rng.integers(1, 6, size=4)
            head = random_head(rng, d=d, h=h, p=p)
            for param in head.params().values():
                param += rng.standard_normal(param.shape)   # nonzero biases too
                param *= 10.0 ** rng.uniform(-20, 20)
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150)
            try:
                Z = forward_cached(head, X)[0]
            except TrainingDiverged:
                continue
            norms = np.linalg.norm(Z.astype(np.float32).astype(np.float64), axis=1)
            assert np.all(np.abs(norms - 1.0) <= 1e-6), (accepted, norms)
            accepted += 1
        assert accepted >= 1000


class TestPredictProbs:
    def test_two_prototype_softmax_by_hand(self):
        protos = Prototypes(M=np.array([[1.0, 0.0], [0.0, 1.0]]))
        q = predict_probs(np.array([[1.0, 0.0]]), protos, tau_p=1.0)
        e = np.e
        assert np.allclose(q, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)
        assert abs(q[0, 0] - 0.731) < 1e-3

    def test_identical_prototypes_give_uniform_rows(self):
        proto = unit_rows(derive_stream(4, "test"), 1, 8)[0]
        protos = Prototypes(M=np.tile(proto, (5, 1)))
        feats = unit_rows(derive_stream(5, "test"), 9, 8)
        q = predict_probs(feats, protos, tau_p=0.5)
        assert np.allclose(q, 0.2, atol=1e-12)

    def test_low_temperature_approaches_one_hot(self):
        rng = derive_stream(6, "test")
        protos = Prototypes(M=unit_rows(rng, 4, 8))
        q = predict_probs(protos.M[2][None, :], protos, tau_p=1e-3)
        assert q[0, 2] > 0.999

    def test_rows_sum_to_one(self):
        rng = derive_stream(7, "test")
        protos = Prototypes(M=unit_rows(rng, 6, 8))
        q = predict_probs(unit_rows(rng, 20, 8), protos, tau_p=0.1)
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= 1e-9
        assert np.all(q >= 0)

    def test_argmax_invariant_to_temperature(self):
        rng = derive_stream(8, "test")
        protos = Prototypes(M=unit_rows(rng, 6, 8))
        feats = unit_rows(rng, 30, 8)
        winners = [np.argmax(predict_probs(feats, protos, t), axis=1)
                   for t in (1e-3, 0.1, 1.0, 7.5)]
        for w in winners[1:]:
            assert np.array_equal(winners[0], w)


class TestPrototypes:
    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValidationError):
            Prototypes(M=np.array([[1.0, 1.0]]))

    def test_update_with_ema_one_is_identity(self):
        rng = derive_stream(9, "test")
        protos = Prototypes(M=unit_rows(rng, 3, 4))
        feats = unit_rows(rng, 10, 4)
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
        is_labeled = np.zeros(10, dtype=bool)
        updated = update_prototypes(feats, labels, labels, is_labeled, protos, ema=1.0)
        assert np.allclose(updated.M, protos.M, atol=1e-12)

    def test_update_with_ema_zero_single_labeled_sample(self):
        rng = derive_stream(10, "test")
        protos = Prototypes(M=unit_rows(rng, 2, 4))
        feats = unit_rows(rng, 2, 4)
        labels = np.array([0, 1])
        is_labeled = np.array([True, True])
        updated = update_prototypes(feats, labels, labels, is_labeled, protos, ema=0.0)
        assert np.allclose(updated.M, feats, atol=1e-12)

    def test_blend_closed_form(self):
        protos = Prototypes(M=np.array([[1.0, 0.0]]))
        feats = np.array([[0.0, 1.0]])
        updated = update_prototypes(
            feats, np.array([0]), np.array([0]), np.array([True]), protos, ema=0.5
        )
        s = np.sqrt(2) / 2
        assert np.allclose(updated.M, [[s, s]], atol=1e-12)

    def test_empty_assignment_keeps_prototype(self):
        rng = derive_stream(11, "test")
        protos = Prototypes(M=unit_rows(rng, 3, 4))
        feats = unit_rows(rng, 4, 4)
        labels = np.array([0, 0, 1, 1])
        is_labeled = np.array([True, True, True, True])
        # class 2 receives no labeled rows and no assignments
        updated = update_prototypes(feats, labels, labels, is_labeled, protos, ema=0.3)
        assert np.array_equal(updated.M[2], protos.M[2])

    def test_unlabeled_row_assigned_to_known_class_does_not_move_it(self):
        protos = Prototypes(M=np.array([[0.0, 1.0], [1.0, 0.0]]))
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        is_labeled = np.array([True, False])
        # the unlabeled row is assigned to class 0, which has a labeled row
        assignments = np.array([0, 0])
        updated = update_prototypes(feats, assignments, labels, is_labeled, protos, ema=0.0)
        assert np.array_equal(updated.M, [[1.0, 0.0], [1.0, 0.0]])

    def test_init_prototypes_known_rows_are_labeled_means(self):
        rng = derive_stream(12, "test")
        feats = unit_rows(rng, 12, 6)
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3, 2, 3, 2, 3])
        is_labeled = np.array([True] * 4 + [False] * 8)
        protos = init_prototypes(feats, labels, is_labeled,
                                 num_classes=4, rng=derive_stream(13, "test"))
        for c in (0, 1):
            mean = feats[is_labeled & (labels == c)].mean(axis=0)
            assert np.allclose(protos.M[c], mean / np.linalg.norm(mean))
        assert protos.M.shape == (4, 6)

    def test_init_prototypes_rows_follow_known_class_ids(self):
        rng = derive_stream(14, "test")
        feats = unit_rows(rng, 12, 6)
        labels = np.array([1, 1, 3, 3, 0, 2, 0, 2, 0, 2, 1, 3])
        is_labeled = np.array([True] * 4 + [False] * 8)
        protos = init_prototypes(feats, labels, is_labeled,
                                 num_classes=4, rng=derive_stream(15, "test"))
        known_M = np.vstack([protos.M[1], protos.M[3]])
        for row, c in zip(known_M, (1, 3)):
            mean = feats[is_labeled & (labels == c)].mean(axis=0)
            assert np.array_equal(row, mean / np.linalg.norm(mean))
        # the k-means++ picks fill rows 0 and 2 in draw order
        picks = kmeans_pp_extend(feats[~is_labeled], known_M, 2, derive_stream(15, "test"))
        assert np.array_equal(protos.M[[0, 2]], picks)


def zero_velocity(head):
    return {n: np.zeros_like(v) for n, v in head.params().items()}


class TestSgdStep:
    def test_milestone_learning_rates(self):
        assert learning_rate(0.02, 0, 200) == pytest.approx(0.02)
        assert learning_rate(0.02, 99, 200) == pytest.approx(0.02)
        assert learning_rate(0.02, 120, 200) == pytest.approx(0.002)
        assert learning_rate(0.02, 160, 200) == pytest.approx(0.0002)

    def test_vanilla_step(self):
        rng = derive_stream(14, "test")
        head = random_head(rng, d=4, h=4, p=4)
        w_before = np.array(head.W1)
        g = {n: np.zeros_like(v) for n, v in head.params().items()}
        g["W1"] = np.ones_like(head.W1)
        hp = Hyperparams(momentum=0.0, weight_decay=0.0, lr0=0.5, epochs=10)
        sgd_step(head, g, zero_velocity(head), hp.lr0, hp)
        assert np.allclose(head.W1, w_before - 0.5, atol=1e-15)

    def test_pure_weight_decay(self):
        rng = derive_stream(15, "test")
        head = random_head(rng, d=4, h=4, p=4)
        w_before = np.array(head.W2)
        g = {n: np.zeros_like(v) for n, v in head.params().items()}
        hp = Hyperparams(momentum=0.0, weight_decay=1e-4, lr0=0.1, epochs=10)
        sgd_step(head, g, zero_velocity(head), hp.lr0, hp)
        assert np.allclose(head.W2, w_before * (1 - 0.1 * 1e-4), atol=1e-15)

    def test_zero_grad_zero_decay_is_identity(self):
        rng = derive_stream(16, "test")
        head = random_head(rng, d=4, h=4, p=4)
        before = {n: np.array(v) for n, v in head.params().items()}
        g = {n: np.zeros_like(v) for n, v in head.params().items()}
        hp = Hyperparams(momentum=0.9, weight_decay=0.0, epochs=10)
        sgd_step(head, g, zero_velocity(head), hp.lr0, hp)
        for name, value in head.params().items():
            assert np.array_equal(value, before[name])

    def test_momentum_accumulates(self):
        head = ProjectionHead(W1=np.zeros((1, 1)), b1=np.zeros(1),
                              W2=np.zeros((1, 1)), b2=np.zeros(1))
        g = {n: np.zeros_like(v) for n, v in head.params().items()}
        g["b2"] = np.array([1.0])
        hp = Hyperparams(momentum=0.5, weight_decay=0.0, lr0=1.0, epochs=10)
        velocity = zero_velocity(head)
        sgd_step(head, g, velocity, hp.lr0, hp)   # v=1, p=-1
        sgd_step(head, g, velocity, hp.lr0, hp)   # v=1.5, p=-2.5
        assert head.b2[0] == pytest.approx(-2.5)

    def test_non_finite_gradient_rejected(self):
        rng = derive_stream(17, "test")
        head = random_head(rng, d=4, h=4, p=4)
        g = {n: np.zeros_like(v) for n, v in head.params().items()}
        g["W1"][0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            sgd_step(head, g, zero_velocity(head), 0.02, Hyperparams(epochs=10))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        from ltgcd.model import load_checkpoint, save_checkpoint
        rng = derive_stream(19, "test")
        head = random_head(rng, d=6, h=5, p=4)
        protos = Prototypes(M=unit_rows(rng, 3, 4))
        save_checkpoint(tmp_path / "ckpt.json", head, protos)
        head2, protos2 = load_checkpoint(tmp_path / "ckpt.json")
        for name, value in head.params().items():
            assert np.array_equal(value, head2.params()[name])
        assert np.array_equal(protos.M, protos2.M)

    def test_missing_file_raises(self, tmp_path):
        from ltgcd.model import load_checkpoint
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.json")

    def _saved(self, tmp_path):
        """A saved checkpoint and its arrays, as a d=6, h=5, p=4 head with 3
        prototypes."""
        from ltgcd.model import save_checkpoint
        rng = derive_stream(20, "test")
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, random_head(rng, d=6, h=5, p=4), Prototypes(M=unit_rows(rng, 3, 4)))
        with np.load(path) as archive:
            return path, dict(archive)

    @staticmethod
    def _rewrite(path, arrays):
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def test_writes_exactly_the_given_path_and_the_same_bytes(self, tmp_path):
        from ltgcd.model import save_checkpoint
        rng = derive_stream(19, "test")
        head, protos = random_head(rng, d=6, h=5, p=4), Prototypes(M=unit_rows(rng, 3, 4))
        save_checkpoint(tmp_path / "a.json", head, protos)
        save_checkpoint(tmp_path / "b.json", head, protos)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        with np.load(tmp_path / "a.json") as archive:
            assert archive.files == ["W1", "b1", "W2", "b2", "prototypes"]
            assert all(archive[name].dtype == np.float64 for name in archive.files)

    def test_non_finite_parameter_rejected(self, tmp_path):
        from ltgcd.model import load_checkpoint
        path, arrays = self._saved(tmp_path)
        arrays["W2"][:] = np.nan
        self._rewrite(path, arrays)
        with pytest.raises(DataFormatError, match=r"ckpt\.json: W2 has a non-finite value"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, shape, data", [
        ("b2", [3], np.zeros(3)),            # 3 biases for 4 output rows
        ("W1", [30], None),                  # a matrix flattened to a vector
        ("prototypes", [4, 3], None),        # width 3 against p = 4
    ])
    def test_parameter_shapes_must_agree(self, tmp_path, name, shape, data):
        from ltgcd.model import load_checkpoint
        path, arrays = self._saved(tmp_path)
        arrays[name] = (arrays[name] if data is None else data).reshape(shape)
        self._rewrite(path, arrays)
        with pytest.raises(DataFormatError, match=rf"ckpt\.json: {name} has shape"):
            load_checkpoint(path)
