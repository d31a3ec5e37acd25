"""Model assembly tests: scoring, joint loss wiring, end-to-end gradients
against finite differences, training determinism, and ablation algebra."""

import json

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff import Rng, Tensor, load_tensors, zero_grads
from nirrec.errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    NonFiniteError,
    TrainingError,
)
from nirrec.ingest import AttributeMatrix, EncodedSession, PreparedData
from nirrec.model import (
    CANDIDATE_MODES,
    TrainConfig,
    apply_ablation,
    candidate_ids,
    encode_chunk,
    forward,
    infer_candidate_embeddings,
    init_params,
    load_params,
    sampled_candidate_ids,
    score_candidates,
    session_candidates,
    session_loss,
    train,
)
from nirrec.options import as_config
from nirrec.zeroshot import theta_forward


def tiny_data(n_items=8, n_tokens=6, seed=0):
    """Hand-built prepared dataset: no files, no clustering."""
    rng = np.random.default_rng(seed)
    item_ids = ["<unk>"] + [f"it{i:02d}" for i in range(1, n_items)]
    sizes = (3, 4, 5)
    tax_vocab = tuple(
        ["<unk>"] + [f"n{level}_{j}" for j in range(size - 1)] for level, size in enumerate(sizes)
    )
    tax_paths = np.zeros((n_items, 3), dtype=np.int64)
    for i in range(1, n_items):
        tax_paths[i] = [rng.integers(1, s) for s in sizes]
    attr_tokens = ["<unk>"] + [f"tok{j}" for j in range(1, n_tokens)]
    # Item 0 averages the UNKNOWN token alone, every other item two tokens.
    cols = [0]
    for i in range(1, n_items):
        cols += rng.choice(np.arange(1, n_tokens), size=2, replace=False).tolist()
    attr_matrix = AttributeMatrix(np.r_[0, 1:2 * n_items:2], cols, n_tokens)
    train_sessions = [
        EncodedSession("s1", [1, 2, 3], 4),
        EncodedSession("s2", [2, 3], 5),
        EncodedSession("s3", [1, 3, 1], 4),
        EncodedSession("s4", [5, 6], 7),
    ]
    test_sessions = [EncodedSession("t1", [1, 2], 4), EncodedSession("t2", [6, 5], 7)]
    return PreparedData(
        item_ids=item_ids,
        tax_vocab=tax_vocab,  # type: ignore[arg-type]
        tax_paths=tax_paths,
        attr_tokens=attr_tokens,
        attr_matrix=attr_matrix,
        attr_vectors=None,
        attr_mode="trainable",
        no_attr_items=[],
        train=train_sessions,
        test=test_sessions,
        counts={},
        stats={"items": n_items - 1},
    )


def small_cfg(**over):
    base = dict(
        d=4, d_a=3, h=5, t_steps=1, lambda_=0.5, gamma=0.3,
        lr=1e-3, epochs=2, batch_size=2, seed=11,
    )
    base.update(over)
    return TrainConfig(**base)


class TestCandidatePools:
    def test_full_vocab_excludes_history_and_unknown(self):
        cand = candidate_ids(8, [1, 2, 3, 2])
        np.testing.assert_array_equal(cand, [4, 5, 6, 7])
        assert 0 not in cand

    def test_sorted_ascending(self):
        cand = candidate_ids(10, [7, 2])
        assert np.all(np.diff(cand) > 0)

    def test_ground_truth_must_be_eligible(self):
        with pytest.raises(DomainError, match="excluded"):
            candidate_ids(8, [1, 2, 3], gt=2)

    def test_sampled_contains_gt_and_respects_history(self):
        rng = Rng(3, "neg")
        cand = sampled_candidate_ids(50, [1, 2, 3], gt=10, negatives=5, rng=rng)
        assert 10 in cand
        assert len(cand) == 6
        assert not set(cand) & {0, 1, 2, 3}
        assert np.all(np.diff(cand) > 0)

    def test_sampled_small_pool_takes_everything(self):
        cand = sampled_candidate_ids(6, [1], gt=2, negatives=99, rng=Rng(0, "n"))
        np.testing.assert_array_equal(cand, [2, 3, 4, 5])

    def test_pool_equals_set_difference_reference(self):
        """The pool is the catalog minus the history as np.setdiff1d
        computes it, in values and dtype, on random histories with
        repeats; so sampling draws the same negatives from it.  The ground
        truth is checked at both ends of the catalog and out of range."""
        n = 30
        rng = np.random.default_rng(7)
        for trial in range(60):
            history = rng.integers(1, n, size=int(rng.integers(1, 12))).tolist()
            want = np.setdiff1d(np.arange(1, n, dtype=np.int64), np.asarray(history))
            got = candidate_ids(n, history)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
            for gt in (1, n - 1):
                if gt not in want:
                    with pytest.raises(DomainError, match="excluded"):
                        candidate_ids(n, history, gt)
                    continue
                np.testing.assert_array_equal(candidate_ids(n, history, gt), want)
                others = want[want != gt]
                negs = Rng(trial, "n").choice(others, size=min(5, len(others)), replace=False)
                np.testing.assert_array_equal(
                    sampled_candidate_ids(n, history, gt, 5, Rng(trial, "n")),
                    np.sort(np.concatenate([[gt], negs])),
                )
        for gt in (0, n, -1):
            with pytest.raises(DomainError, match="excluded"):
                candidate_ids(n, [2, 3], gt)


class TestScoring:
    def setup_method(self):
        self.data = tiny_data()
        self.cfg = small_cfg()
        self.params = init_params(self.data, self.cfg)

    def test_single_candidate_scores_one(self):
        emb = infer_candidate_embeddings(self.params, self.data, np.array([4]))
        i_rows = Tensor(np.random.default_rng(0).normal(size=(1, 8)))
        z = ad.softmax(score_candidates(i_rows, self.params.w_proj, emb))
        np.testing.assert_allclose(z.data, [[1.0]])

    def test_identical_candidates_split_evenly(self):
        emb = infer_candidate_embeddings(self.params, self.data, np.array([4, 4]))
        i_rows = Tensor(np.random.default_rng(1).normal(size=(1, 8)))
        z = ad.softmax(score_candidates(i_rows, self.params.w_proj, emb))
        np.testing.assert_allclose(z.data, [[0.5, 0.5]], rtol=1e-12)

    def test_logits_match_dot_product_oracle(self):
        """One row of logits per session's intent row."""
        cand = np.array([4, 5, 6, 7])
        emb = infer_candidate_embeddings(self.params, self.data, cand)
        i_rows = Tensor(np.random.default_rng(2).normal(size=(3, 8)))
        logits = score_candidates(i_rows, self.params.w_proj, emb)
        assert logits.shape == (3, len(cand))
        for row, i_vec in zip(logits.data, i_rows.data):
            want = emb.data @ (i_vec @ self.params.w_proj.data)
            np.testing.assert_allclose(row, want, rtol=1e-12)

    def test_probability_vector(self):
        cand = candidate_ids(self.data.n_items, [1, 2, 3])
        emb = infer_candidate_embeddings(self.params, self.data, cand)
        i_rows = Tensor(np.random.default_rng(3).normal(size=(1, 8)))
        z = ad.softmax(score_candidates(i_rows, self.params.w_proj, emb))
        assert z.data.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(z.data > 0)

    def test_empty_candidates_rejected(self):
        emb = infer_candidate_embeddings(self.params, self.data, np.zeros(0, dtype=np.int64))
        with pytest.raises(DomainError, match="empty candidate"):
            score_candidates(Tensor(np.zeros((1, 8))), self.params.w_proj, emb)

    def test_constant_logit_shift_preserves_order(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=9)
        base = ad.softmax(Tensor(logits))
        shifted = ad.softmax(Tensor(logits + 7.25))
        np.testing.assert_array_equal(np.argsort(-base.data), np.argsort(-shifted.data))
        np.testing.assert_allclose(base.data, shifted.data, rtol=1e-9)

    def test_zero_shot_path_ignores_item_table(self):
        """Candidate embeddings come from attributes alone: changing the
        item table must not change them."""
        cand = np.array([4, 5])
        before = infer_candidate_embeddings(self.params, self.data, cand).data.copy()
        self.params.encoder.item_table.data += 10.0
        after = infer_candidate_embeddings(self.params, self.data, cand).data
        np.testing.assert_array_equal(before, after)


class TestSessionLoss:
    def setup_method(self):
        self.data = tiny_data()

    def run_loss(self, cfg, **kw):
        params = init_params(self.data, cfg)
        return session_loss(
            [1, 2, 3], 4, params, self.data, cfg,
            rng=kw.pop("rng", None), beta_mode=kw.pop("beta_mode", "mean"), **kw
        )

    def test_loss_combines_terms_with_gamma(self):
        cfg = small_cfg(gamma=0.3)
        parts = self.run_loss(cfg)
        want = 0.3 * parts.ce + 0.7 * parts.lz
        assert float(parts.loss.data) == pytest.approx(want, rel=1e-12)
        assert parts.lz > 0.0

    def test_gamma_one_is_pure_cross_entropy(self):
        cfg = small_cfg(gamma=1.0)
        parts = self.run_loss(cfg)
        assert parts.lz == 0.0
        assert float(parts.loss.data) == parts.ce

    def test_perfect_prediction_gives_zero_ce(self):
        """An engineered probability of 1 on the ground truth zeroes the
        cross-entropy term by construction of -log."""
        assert float(ad.neg(ad.log(Tensor(1.0))).data) == 0.0

    def test_cross_entropy_exact_when_probability_underflows(self):
        """A single-node history has Beta std 0, so its logits span
        thousands; for the lowest-logit candidate the softmax probability
        is far below 1e-300.  The loss is still logsumexp - logit_gt and
        still moves W_I."""
        data = tiny_data(n_items=40)
        cfg = small_cfg(gamma=1.0)
        params = init_params(data, cfg)
        history = [3, 3]
        cand = candidate_ids(data.n_items, history)
        enc = encode_chunk([history], params, data)
        intent = enc.intent(params, cfg.lambda_, beta_mode="mean")
        logits = score_candidates(
            intent.i, params.w_proj, infer_candidate_embeddings(params, data, cand)
        ).data[0]
        gt = int(np.argmin(logits))
        with ad.Tape() as tape:
            parts = session_loss(
                history, int(cand[gt]), params, data, cfg, rng=None, beta_mode="mean"
            )
            tape.backward(parts.loss)
        want = np.logaddexp.reduce(logits) - logits[gt]
        assert want > -np.log(1e-300)
        assert parts.ce == pytest.approx(want, rel=1e-9)
        assert np.any(params.w_proj.grad != 0.0)

    def test_deterministic_in_mean_mode(self):
        cfg = small_cfg()
        a = self.run_loss(cfg)
        b = self.run_loss(cfg)
        assert float(a.loss.data) == float(b.loss.data)

    def test_sampled_mode_includes_gt(self):
        cfg = small_cfg(candidate_mode="sampled", negatives=2)
        parts = self.run_loss(cfg, rng=Rng(5, "s"), beta_mode="sample", neg_rng=Rng(5, "n"))
        assert np.isfinite(float(parts.loss.data))

    def test_sampled_mode_needs_its_own_negatives_rng(self):
        """Negatives never come from the Beta stream: without ``neg_rng``
        sampled mode raises, in the scalar and the chunk form."""
        cfg = small_cfg(candidate_mode="sampled", negatives=2)
        with pytest.raises(ConfigurationError, match="negatives rng"):
            self.run_loss(cfg, rng=Rng(5, "s"), beta_mode="sample")
        params = init_params(self.data, cfg)
        with pytest.raises(ConfigurationError, match="negatives rng"):
            session_loss(
                [[1, 2, 3], [2, 3]], [4, 5], params, self.data, cfg,
                rng=[Rng(5, "s"), Rng(6, "s")], beta_mode="sample", session_id=["a", "b"],
            )


def collect_grads(named):
    return {k: (None if t.grad is None else t.grad.copy()) for k, t in named.items()}


class TestSingleSessionForward:
    """``forward`` is the two steps on a chunk of one session with its
    intent row as a vector, and that row is the session's row in any
    chunk."""

    @pytest.mark.parametrize("beta_mode", ["mean", "sample"])
    def test_forward_is_its_row_of_a_chunk(self, beta_mode):
        data = tiny_data()
        cfg = small_cfg()
        params = init_params(data, cfg)
        histories = [[1, 2, 3], [2, 3], [6, 5, 6]]
        ids = ["a", "b", "c"]

        def rng(sid):
            return Rng(7, "beta", sid) if beta_mode == "sample" else None

        alone = forward(histories[1], params, data, cfg.lambda_, rng=rng("b"),
                        beta_mode=beta_mode, session_id="b")
        one = encode_chunk([histories[1]], params, data, session_ids=["b"]).intent(
            params, cfg.lambda_, rng=[rng("b")], beta_mode=beta_mode)
        enc = encode_chunk(histories, params, data, session_ids=ids)
        chunk = enc.intent(params, cfg.lambda_, rng=[rng(s) for s in ids], beta_mode=beta_mode)
        assert alone.i.shape == (2 * cfg.d,)
        assert one.i.shape == (1, 2 * cfg.d) and chunk.i.shape == (3, 2 * cfg.d)
        np.testing.assert_array_equal(alone.i.data, one.i.data[0])
        np.testing.assert_allclose(alone.i.data, chunk.i.data[1], rtol=1e-12, atol=1e-12)
        if beta_mode == "sample":
            rows = enc.graph.segments
            lo, hi = rows.starts[1], rows.starts[2]
            np.testing.assert_array_equal(alone.intent.draws, chunk.draws[lo:hi])


class TestEndToEndGradients:
    """Whole-pipeline gradient check: session graph through GGNN, both
    intent branches, theta inference, scoring, and the joint loss."""

    def loss_value(self, params, data, cfg, draws):
        parts = session_loss(
            [1, 2, 3], 4, params, data, cfg,
            rng=None, beta_mode="fixed", draws=draws,
        )
        return float(parts.loss.data)

    def test_twenty_random_parameters_match_finite_differences(self):
        data = tiny_data()
        cfg = small_cfg(lambda_=0.5, gamma=0.3)
        params = init_params(data, cfg)
        draws = np.array([0.3, 0.6, 0.45])

        with ad.Tape() as tape:
            parts = session_loss(
                [1, 2, 3], 4, params, data, cfg,
                rng=None, beta_mode="fixed", draws=draws,
            )
            tape.backward(parts.loss)
        named = params.named()
        grads = collect_grads(named)

        rng = np.random.default_rng(99)
        names = sorted(named)
        h = 1e-5
        checked = 0
        while checked < 20:
            name = names[int(rng.integers(0, len(names)))]
            tensor = named[name]
            flat = int(rng.integers(0, tensor.data.size))
            orig = tensor.data.flat[flat]
            tensor.data.flat[flat] = orig + h
            up = self.loss_value(params, data, cfg, draws)
            tensor.data.flat[flat] = orig - h
            down = self.loss_value(params, data, cfg, draws)
            tensor.data.flat[flat] = orig
            fd = (up - down) / (2 * h)
            an = grads[name].flat[flat]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < 1e-3, f"{name}[{flat}]: fd={fd}, analytic={an}"
            checked += 1

    def test_every_parameter_group_receives_gradient(self):
        data = tiny_data()
        cfg = small_cfg(lambda_=0.5, gamma=0.3)
        params = init_params(data, cfg)
        with ad.Tape() as tape:
            parts = session_loss(
                [1, 2, 3], 4, params, data, cfg,
                rng=None, beta_mode="mean",
            )
            tape.backward(parts.loss)
        for name, tensor in params.named().items():
            assert tensor.grad is not None, name
            assert np.any(tensor.grad != 0.0) or "tax" in name or "table" in name, name


class TestAblationAlgebra:
    def test_switch_mapping(self):
        cfg = small_cfg()
        assert apply_ablation(cfg, "no_alpha").lambda_ == 0.0
        assert apply_ablation(cfg, "no_beta").lambda_ == 1.0
        assert apply_ablation(cfg, "no_lzero").gamma == 1.0
        with pytest.raises(ConfigurationError, match="unknown ablation"):
            apply_ablation(cfg, "no_graph")

    def test_no_beta_training_ignores_beta_seed(self):
        data = tiny_data()
        a = train(data, small_cfg(lambda_=1.0, epochs=2, beta_seed=101))
        b = train(data, small_cfg(lambda_=1.0, epochs=2, beta_seed=202))
        for name, tensor in a.params.named().items():
            np.testing.assert_array_equal(tensor.data, b.params.named()[name].data)

    def test_beta_seed_matters_when_beta_active(self):
        data = tiny_data()
        a = train(data, small_cfg(lambda_=0.5, epochs=1, beta_seed=101))
        b = train(data, small_cfg(lambda_=0.5, epochs=1, beta_seed=202))
        diffs = [
            not np.array_equal(tensor.data, b.params.named()[name].data)
            for name, tensor in a.params.named().items()
        ]
        assert any(diffs)

    def test_no_alpha_training_invariant_to_w1_w2_perturbation(self):
        data = tiny_data()
        cfg = small_cfg(lambda_=0.0, epochs=2)
        base = init_params(data, cfg)
        perturbed = init_params(data, cfg)
        perturbed.intent.w1.data += 0.37
        perturbed.intent.w2.data -= 0.21
        ra = train(data, cfg, params=base)
        rb = train(data, cfg, params=perturbed)
        for name, tensor in ra.params.named().items():
            other = rb.params.named()[name].data
            if name in ("intent.W1", "intent.W2"):
                assert not np.array_equal(tensor.data, other)
            else:
                np.testing.assert_array_equal(tensor.data, other)

    def test_no_lzero_loss_is_cross_entropy_every_epoch(self):
        data = tiny_data()
        result = train(data, small_cfg(gamma=1.0, epochs=3))
        for entry in result.epoch_log:
            assert entry["loss_zero"] == 0.0


class TestTraining:
    def test_epoch_log_schema(self):
        data = tiny_data()
        result = train(data, small_cfg(epochs=3))
        assert len(result.epoch_log) == 3
        for i, entry in enumerate(result.epoch_log, start=1):
            assert set(entry) == {
                "epoch", "loss_ce", "loss_zero", "pdf_clamped", "theta_rows",
                "seconds", "sessions_per_s",
            }
            assert entry["pdf_clamped"] >= 0
            assert entry["epoch"] == i
            assert entry["seconds"] >= 0.0
            assert entry["sessions_per_s"] > 0.0
            # two batches of two, each mapping θ over at most every real item
            assert 0 < entry["theta_rows"] <= 2 * (data.n_items - 1)

    def test_same_seed_same_checkpoint(self, tmp_path):
        data = tiny_data()
        cfg = small_cfg(epochs=2, seed=21)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        train(data, cfg).params.save(p1)
        train(data, cfg).params.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_checkpoint(self, tmp_path):
        data = tiny_data()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        train(data, small_cfg(epochs=1, seed=1)).params.save(p1)
        train(data, small_cfg(epochs=1, seed=2)).params.save(p2)
        assert p1.read_bytes() != p2.read_bytes()

    @pytest.mark.parametrize("mode", CANDIDATE_MODES)
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_streams_derived_only_where_drawn(self, monkeypatch, mode, lam):
        """A negatives stream only in sampled mode, Beta streams only below
        λ = 1."""
        derived = []
        original = Rng.derive

        def recording(self, *keys):
            derived.append(self.keys + keys)
            return original(self, *keys)

        monkeypatch.setattr(Rng, "derive", recording)
        train(tiny_data(), small_cfg(candidate_mode=mode, lambda_=lam))
        assert any(k[:2] == ("train", "negatives") for k in derived) == (mode == "sampled")
        assert any(k[:1] == ("beta",) for k in derived) == (lam < 1.0)

    def test_loss_decreases_on_tiny_overfit(self):
        data = tiny_data()
        result = train(data, small_cfg(epochs=8, lr=0.02, batch_size=4))
        losses = [e["loss_ce"] for e in result.epoch_log]
        assert losses[-1] < losses[0]

    def test_non_finite_loss_names_session(self, monkeypatch):
        import nirrec.model as model_mod

        def explode(*args, **kwargs):
            raise NonFiniteError("synthetic overflow")

        monkeypatch.setattr(model_mod, "session_loss", explode)
        data = tiny_data()
        with pytest.raises(TrainingError, match="session 's"):
            train(data, small_cfg(epochs=1))

    def test_non_finite_theta_pass_names_batch(self, monkeypatch):
        """The shared θ pass belongs to no single session: a fault there
        names the epoch and every session of the batch."""
        import nirrec.model as model_mod

        def explode(*args, **kwargs):
            raise NonFiniteError("synthetic overflow")

        monkeypatch.setattr(model_mod, "infer_candidate_embeddings", explode)
        data = tiny_data()
        with pytest.raises(TrainingError, match=r"shared θ pass.*epoch 1") as info:
            train(data, small_cfg(epochs=1, batch_size=4))
        for sess in data.train:
            assert f"'{sess.session_id}'" in str(info.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_aborts_before_any_update(self):
        """Huge item rows of one of two sessions keep the forward finite (the
        gates saturate) but overflow the gradients: Adam refuses them, so
        training stops naming the epoch and the batch, and no parameter
        changes."""
        data = tiny_data(n_items=40)
        data.train = [data.train[0], data.train[3]]
        cfg = small_cfg(epochs=1, batch_size=2)
        params = init_params(data, cfg)
        params.encoder.item_table.data[[5, 6]] = 1e300
        before = {name: t.data.copy() for name, t in params.named().items()}
        with pytest.raises(TrainingError, match=r"non-finite gradient.*epoch 1") as info:
            train(data, cfg, params=params)
        for sess in data.train:
            assert f"'{sess.session_id}'" in str(info.value)
        for name, t in params.named().items():
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)

    def test_empty_train_split_rejected(self):
        data = tiny_data()
        data.train = []
        with pytest.raises(TrainingError, match="empty"):
            train(data, small_cfg())

    def test_checkpoint_round_trip(self, tmp_path):
        data = tiny_data()
        cfg = small_cfg(epochs=1)
        result = train(data, cfg)
        path = tmp_path / "model.bin"
        result.params.save(path)
        back, back_cfg = load_params(path, data)
        assert back_cfg == cfg
        for name, tensor in result.params.named().items():
            np.testing.assert_array_equal(tensor.data, back.named()[name].data)
        path2 = tmp_path / "again.bin"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_checkpoint_missing_tensor_rejected(self, tmp_path):
        from nirrec.autodiff import save_tensors

        path = tmp_path / "partial.bin"
        save_tensors(path, {"proj.W_I": np.zeros((4, 2))})
        with pytest.raises(EvaluationError, match="missing tensors"):
            load_params(path, tiny_data())

    def test_unique_checkpoint_names(self):
        data = tiny_data()
        params = init_params(data, small_cfg())
        names = params.named()
        assert len(names) == 23
        assert "proj.W_I" in names and "attr.table" in names

    def test_pretrained_attr_table_frozen(self):
        data = tiny_data()
        data.attr_vectors = np.random.default_rng(0).normal(size=(len(data.attr_tokens), 3))
        data.attr_mode = "pretrained"
        cfg = small_cfg(epochs=1)
        params = init_params(data, cfg)
        assert not params.attr_table.requires_grad
        assert "attr.table" not in params.trainable()
        frozen = params.attr_table.data.copy()
        result = train(data, cfg, params=params)
        np.testing.assert_array_equal(result.params.attr_table.data, frozen)


class TestSharedThetaTable:
    """Training maps θ once per batch over the union of its sessions'
    candidates; the gradients must equal those of per-session tapes that
    each map θ over their own candidates."""

    @pytest.mark.parametrize("mode", CANDIDATE_MODES)
    def test_batch_gradients_match_per_session_tapes(self, mode):
        data = tiny_data(n_items=40)
        cfg = small_cfg(candidate_mode=mode, negatives=3, batch_size=4, epochs=1)
        shared = init_params(data, cfg)
        # One batch: the gradients are still in place after the Adam step.
        log = train(data, cfg, params=shared).epoch_log

        ref = init_params(data, cfg)
        zero_grads(ref.trainable())
        root = Rng(cfg.seed, "train")
        beta_root = Rng(cfg.beta_seed_effective, "beta")
        union = set()
        for sess in data.train:
            negatives = root.derive("negatives", 1, sess.session_id)
            union |= set(session_candidates(sess.history, sess.gt, data.n_items, cfg, negatives))
            with ad.Tape() as tape:
                parts = session_loss(
                    sess.history, sess.gt, ref, data, cfg,
                    rng=beta_root.derive(1, sess.session_id), beta_mode="sample",
                    session_id=sess.session_id,
                    neg_rng=root.derive("negatives", 1, sess.session_id),
                )
                tape.backward(parts.loss, seed=np.float64(1.0 / len(data.train)))
        assert log[0]["theta_rows"] == len(union)
        for name, p in ref.trainable().items():
            assert np.any(p.grad != 0.0), name
            np.testing.assert_allclose(
                shared.trainable()[name].grad, p.grad, rtol=0, atol=1e-10, err_msg=name
            )

    def test_theta_mapped_once_per_batch(self, monkeypatch):
        import nirrec.model as model_mod

        rows = []
        real = model_mod.infer_candidate_embeddings

        def counting(params, data, cand):
            rows.append(len(cand))
            return real(params, data, cand)

        monkeypatch.setattr(model_mod, "infer_candidate_embeddings", counting)
        log = train(tiny_data(), small_cfg(epochs=3, batch_size=2)).epoch_log
        assert len(rows) == 3 * 2
        assert [e["theta_rows"] for e in log] == [sum(rows[i : i + 2]) for i in (0, 2, 4)]


def write_attribute_corpus(tmp_path):
    """A catalog whose attributes cover the sparse path's cases: an item
    without attributes, a token listed twice, and a token ("rare") that
    the vector file lacks, so pretrained mode maps it to UNKNOWN.  The
    vector file covers 22 of the 23 tokens, above the 95% floor."""
    records = [
        {"item": "a0", "taxonomy": ["x", "y", "z"], "attributes": []},
        {"item": "a1", "taxonomy": ["x", "y", "z"], "attributes": ["red", "red", "wool"]},
        {"item": "a2", "taxonomy": ["x", "y", "z"], "attributes": ["rare"]},
        {"item": "a3", "taxonomy": ["x", "y", "w"], "attributes": ["rare", "wool", "red"]},
    ] + [
        {"item": f"b{j:02d}", "taxonomy": ["x", "v", "w"], "attributes": [f"t{j}", "wool"]}
        for j in range(20)
    ]
    day = 86_400
    sessions = [
        {"session_id": f"s{k}", "events": [
            {"item": item, "ts": t0 + 60 * e} for e, item in enumerate(["a1", "b03", "a3"])
        ]}
        for k, t0 in enumerate([0, day, 12 * day])
    ]
    paths = tmp_path / "catalog.jsonl", tmp_path / "sessions.jsonl", tmp_path / "vectors.txt"
    for path, rows in zip(paths, (records, sessions)):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    rng = np.random.default_rng(4)
    tokens = ["red", "wool"] + [f"t{j}" for j in range(20)]
    paths[2].write_text(
        "".join(f"{tok} {' '.join(map(str, rng.normal(size=3)))}\n" for tok in tokens),
        encoding="utf-8",
    )
    return records, *paths


def dense_attributes(records, data):
    """The item×token averaging matrix, entry by entry from the catalog
    records: weight 1/|tokens| per listed token, a token missing from the
    vocabulary counting as UNKNOWN, an item without tokens (and the UNKNOWN
    item) all on UNKNOWN."""
    col = {tok: c for c, tok in enumerate(data.attr_tokens)}
    row = {item: i for i, item in enumerate(data.item_ids)}
    dense = np.zeros((data.n_items, len(data.attr_tokens)))
    dense[0, 0] = 1.0
    for rec in records:
        toks = rec["attributes"] or ["<unk>"]
        for tok in toks:
            dense[row[rec["item"]], col.get(tok, 0)] += 1.0 / len(toks)
    return dense


class TestSparseAttributes:
    """θ from the CSR attribute rows equals θ from a dense matrix built
    from the catalog records, in values and in attribute-table gradients."""

    @pytest.mark.parametrize("mode", ["trainable", "pretrained"])
    def test_theta_matches_dense_reference(self, tmp_path, mode):
        from nirrec.evaluate import catalog_table
        from nirrec.ingest import PrepareOptions, prepare

        records, catalog, sessions, vectors = write_attribute_corpus(tmp_path)
        vectors_path = str(vectors) if mode == "pretrained" else None
        data = prepare(sessions, catalog, PrepareOptions(attr_mode=mode, vectors_path=vectors_path))
        assert ("rare" in data.attr_tokens) == (mode == "trainable")
        dense = dense_attributes(records, data)
        params = init_params(data, small_cfg(d_a=3))
        table, th = params.attr_table.data, params.theta

        def theta(atr):
            return np.tanh(atr @ th.h_w.data + th.h_b.data) @ th.o_w.data + th.o_b.data

        np.testing.assert_allclose(data.attr_matrix @ table, dense @ table, rtol=0, atol=1e-12)
        got = catalog_table(params, data).data
        np.testing.assert_allclose(got, theta(dense @ table)[1:], rtol=0, atol=1e-12)

        rows = np.array([3, 1, 3, 0, data.n_items - 1])  # unsorted, repeated, UNKNOWN
        w = np.random.default_rng(2).normal(size=(len(rows), params.d))
        with ad.Tape() as tape:
            emb = infer_candidate_embeddings(params, data, rows)
            tape.backward(ad.reduce_sum(ad.mul(emb, Tensor(w))))
        np.testing.assert_allclose(emb.data, theta(dense[rows] @ table), rtol=0, atol=1e-12)
        if mode == "trainable":
            ref = init_params(data, small_cfg(d_a=3))
            with ad.Tape() as tape:
                atr = ad.matmul(Tensor(dense[rows]), ref.attr_table)
                out = ad.reduce_sum(ad.mul(theta_forward(ref.theta, atr), Tensor(w)))
                tape.backward(out)
            np.testing.assert_allclose(
                params.attr_table.grad, ref.attr_table.grad, rtol=0, atol=1e-12
            )

    def test_matmul_equals_segment_mean_bitwise(self):
        """``AttributeMatrix @ table`` sums each row's tokens as the
        ``segment_mean`` op's forward does, so the two are bit-identical;
        ``np.add.reduceat``, which it replaced, agrees to rounding."""
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, 9, size=300)
        lengths[:3] = [1, 8, 1]
        indptr = np.r_[0, np.cumsum(lengths)]
        cols = rng.integers(0, 40, size=indptr[-1])
        table = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 9, size=(40, 1))
        matrix = AttributeMatrix(indptr, cols, 40)
        got = matrix @ table
        op = ad.segment_mean(table, *matrix.gather(np.arange(300)))
        np.testing.assert_array_equal(got, op.data)
        want = np.add.reduceat(table[cols], indptr[:-1], axis=0) / lengths[:, None]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestCheckpointMetadata:
    """A checkpoint carries the TrainConfig and a digest of the vocabularies."""

    def saved(self, tmp_path, **over):
        data = tiny_data()
        cfg = small_cfg(epochs=1, **over)
        path = tmp_path / "model.bin"
        train(data, cfg).params.save(path)
        return data, cfg, path

    def test_config_and_digest_stored_beside_the_tensors(self, tmp_path):
        data, cfg, path = self.saved(tmp_path)
        raw = load_tensors(path)
        assert len(raw) == 23 + 2
        text = raw["meta.config"].astype(np.uint8).tobytes().decode("utf-8")
        assert TrainConfig.from_dict(json.loads(text)) == cfg
        assert raw["meta.vocab_sha256"].shape == (32,)

    @pytest.mark.parametrize("pretrained", [False, True])
    def test_saved_tensors_are_the_ones_init_params_builds(self, tmp_path, pretrained):
        data = tiny_data()
        if pretrained:
            data.attr_vectors = np.random.default_rng(0).normal(size=(len(data.attr_tokens), 3))
            data.attr_mode = "pretrained"
        cfg = small_cfg(epochs=1)
        path = tmp_path / "model.bin"
        train(data, cfg).params.save(path)
        stored = {k: v.shape for k, v in load_tensors(path).items() if not k.startswith("meta.")}
        built = init_params(data, cfg)
        assert stored == {k: t.shape for k, t in built.named().items()}
        loaded, _ = load_params(path, data)
        assert set(loaded.trainable()) == set(built.trainable())
        assert ("attr.table" in loaded.trainable()) is not pretrained

    def test_t_steps_come_from_the_stored_config(self, tmp_path):
        data, _, path = self.saved(tmp_path, t_steps=2, lambda_=0.2, propagate_taxonomy=True)
        params, stored = load_params(path, data)
        assert params.encoder.ggnn.steps == 2
        assert (stored.lambda_, stored.propagate_taxonomy) == (0.2, True)

    def test_unreadable_config_rejected(self, tmp_path):
        from nirrec.autodiff import save_tensors

        data, _, path = self.saved(tmp_path)
        raw = load_tensors(path)
        raw["meta.config"] = np.frombuffer(b'{"d": 4}', dtype=np.uint8).astype(np.float64)
        save_tensors(path, raw)
        with pytest.raises(EvaluationError, match="config"):
            load_params(path, data)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ConfigurationError, match="lambda"):
            small_cfg(lambda_=1.5)
        with pytest.raises(ConfigurationError, match="gamma"):
            small_cfg(gamma=-0.1)
        with pytest.raises(ConfigurationError, match="d must be positive"):
            small_cfg(d=0)
        for lr in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="lr must be finite and positive"):
                small_cfg(lr=lr)
        with pytest.raises(ConfigurationError, match="candidate_mode"):
            small_cfg(candidate_mode="all")
        for ks in ((), (10.7,), (10, True)):
            with pytest.raises(ConfigurationError, match="eval_ks"):
                small_cfg(eval_ks=ks)
        for name, value in (("epochs", 2.5), ("batch_size", 3.0), ("d", True), ("h", 4.0),
                            ("seed", 1.0), ("beta_seed", False), ("negatives", 9.5)):
            with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
                small_cfg(**{name: value})

    def test_config_round_trips_to_dict(self):
        cfg = small_cfg(lambda_=0.25, gamma=0.75)
        d = as_config(cfg)
        assert d["lambda"] == 0.25
        assert d["gamma"] == 0.75
        assert d["eval_ks"] == [10, 20]
