"""Tests for the knowledge graph, TransR, experience and Algorithm 1."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.knowledge import (
    EmbeddingConfig,
    ExperienceRecord,
    TransE,
    TransEConfig,
    TransR,
    TransRConfig,
    build_knowledge_graph,
    default_experience,
    learn_embeddings,
    nearest_strategy,
)
from repro.knowledge.graph import ENTITY_TYPES, RELATIONS
from repro.space import StrategySpace
from repro.space.hyperparams import HP_GRID, METHOD_HPS


@pytest.fixture(scope="module")
def small_space():
    """C3+C4 only (150 strategies) keeps knowledge tests fast."""
    return StrategySpace(method_labels=["C3", "C4"])


@pytest.fixture(scope="module")
def small_graph(small_space):
    return build_knowledge_graph(small_space)


class TestKnowledgeGraph:
    def test_entity_types_complete(self, small_graph):
        for entity_type in ENTITY_TYPES:
            assert small_graph.entities_of_type(entity_type), entity_type

    def test_strategy_entities_cover_space(self, small_space, small_graph):
        assert len(small_graph.entities_of_type("strategy")) == len(small_space)
        for strategy in small_space:
            assert strategy.identifier in small_graph.strategy_entities

    def test_r1_every_strategy_links_to_its_method(self, small_space, small_graph):
        g = small_graph.graph
        for strategy in small_space:
            assert g.has_edge(strategy.identifier, strategy.method_label, key="R1")

    def test_r2_settings_per_strategy(self, small_space, small_graph):
        g = small_graph.graph
        strategy = small_space[0]
        settings = [
            t for _, t, k in g.out_edges(strategy.identifier, keys=True) if k == "R2"
        ]
        assert len(settings) == len(strategy.hp_items)

    def test_r5_no_duplicate_edges(self, small_graph):
        g = small_graph.graph
        for hp in small_graph.entities_of_type("hyperparameter"):
            for setting in {t for _, t, k in g.out_edges(hp, keys=True) if k == "R5"}:
                assert g.number_of_edges(hp, setting) == 1

    def test_triplets_reference_valid_ids(self, small_graph):
        t = small_graph.triplets
        assert t.shape[1] == 3
        assert t[:, 0].max() < small_graph.num_entities
        assert t[:, 2].max() < small_graph.num_entities
        assert t[:, 1].max() < len(RELATIONS)

    def test_graph_is_connected_via_methods(self, small_graph):
        undirected = small_graph.graph.to_undirected()
        assert nx.number_connected_components(undirected) == 1


class TestTransR:
    def test_loss_decreases(self, small_graph):
        model = TransR(small_graph.num_entities, small_graph.num_relations,
                       TransRConfig(entity_dim=16, relation_dim=16, seed=0))
        losses = model.fit(small_graph.triplets, epochs=6)
        assert losses[-1] < losses[0]

    def test_entities_stay_bounded(self, small_graph):
        model = TransR(small_graph.num_entities, small_graph.num_relations)
        model.fit(small_graph.triplets, epochs=3)
        norms = np.linalg.norm(model.entities, axis=1)
        assert (norms <= 1.0 + 1e-9).all()

    def test_true_triplets_score_better_than_random(self, small_graph):
        model = TransR(small_graph.num_entities, small_graph.num_relations,
                       TransRConfig(seed=0))
        model.fit(small_graph.triplets, epochs=8)
        t = small_graph.triplets
        rng = np.random.default_rng(0)
        pos = model.score(t[:, 0], t[:, 1], t[:, 2]).mean()
        corrupted = rng.integers(0, small_graph.num_entities, size=len(t))
        neg = model.score(t[:, 0], t[:, 1], corrupted).mean()
        assert pos < neg

    def test_embedding_of_returns_copy(self, small_graph):
        model = TransR(small_graph.num_entities, small_graph.num_relations)
        e = model.embedding_of(0)
        e[:] = 99.0
        assert not np.allclose(model.entities[0], 99.0)


# --------------------------------------------------------------------------- #
# Reference trainers: the direct np.add.at accumulation, one call per term
# --------------------------------------------------------------------------- #
class ReferenceTransR(TransR):
    """TransR with its gradients scattered by seven ``np.add.at`` calls and
    the residuals recomputed in the step, as the trainer first did."""

    def train_epoch(self, triplets):
        cfg = self.config
        rng = self._rng
        order = rng.permutation(len(triplets))
        total_loss = 0.0
        n_entities = len(self.entities)
        for start in range(0, len(order), cfg.batch_size):
            batch = triplets[order[start : start + cfg.batch_size]]
            heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            corrupt_head = rng.random(len(batch)) < 0.5
            random_entities = rng.integers(0, n_entities, size=len(batch))
            neg_heads = np.where(corrupt_head, random_entities, heads)
            neg_tails = np.where(corrupt_head, tails, random_entities)
            pos = self.score(heads, rels, tails)
            neg = self.score(neg_heads, rels, neg_tails)
            violation = cfg.margin + pos - neg
            active = violation > 0
            total_loss += float(violation[active].sum())
            if not active.any():
                continue
            self._reference_step(heads[active], rels[active], tails[active],
                                 neg_heads[active], neg_tails[active])
        self._normalize()
        self.loss_history.append(total_loss / max(len(triplets), 1))
        return self.loss_history[-1]

    def _reference_step(self, heads, rels, tails, neg_heads, neg_tails):
        lr = self.config.learning_rate
        ent_grad = np.zeros_like(self.entities)
        ent_count = np.zeros(len(self.entities))
        rel_grad = np.zeros_like(self.relations)
        rel_count = np.zeros(len(self.relations))
        proj_grad = np.zeros_like(self.projections)
        for sign, h_idx, t_idx in ((1.0, heads, tails), (-1.0, neg_heads, neg_tails)):
            w = self.projections[rels]
            eh = self.entities[h_idx]
            et = self.entities[t_idx]
            u = np.einsum("nkd,nd->nk", w, eh) + self.relations[rels] - np.einsum(
                "nkd,nd->nk", w, et
            )
            grad_h = 2.0 * np.einsum("nkd,nk->nd", w, u)
            grad_r = 2.0 * u
            grad_w = 2.0 * np.einsum("nk,nd->nkd", u, eh - et)
            np.add.at(ent_grad, h_idx, sign * grad_h)
            np.add.at(ent_grad, t_idx, -sign * grad_h)
            np.add.at(ent_count, h_idx, 1.0)
            np.add.at(ent_count, t_idx, 1.0)
            np.add.at(rel_grad, rels, sign * grad_r)
            np.add.at(rel_count, rels, 1.0)
            np.add.at(proj_grad, rels, sign * grad_w)
        ent_scale = np.maximum(ent_count, 1.0)[:, None]
        rel_scale = np.maximum(rel_count, 1.0)
        self.entities -= lr * ent_grad / ent_scale
        self.relations -= lr * rel_grad / rel_scale[:, None]
        self.projections -= lr * proj_grad / rel_scale[:, None, None]


class ReferenceTransE(TransE):
    """TransE with its gradients scattered by six ``np.add.at`` calls."""

    def _step(self, heads, rels, tails, neg_heads, neg_tails):
        lr = self.config.learning_rate
        ent_grad = np.zeros_like(self.entities)
        ent_count = np.zeros(len(self.entities))
        rel_grad = np.zeros_like(self.relations)
        rel_count = np.zeros(len(self.relations))
        for sign, h_idx, t_idx in ((1.0, heads, tails), (-1.0, neg_heads, neg_tails)):
            u = 2.0 * (self.entities[h_idx] + self.relations[rels] - self.entities[t_idx])
            np.add.at(ent_grad, h_idx, sign * u)
            np.add.at(ent_grad, t_idx, -sign * u)
            np.add.at(ent_count, h_idx, 1.0)
            np.add.at(ent_count, t_idx, 1.0)
            np.add.at(rel_grad, rels, sign * u)
            np.add.at(rel_count, rels, 1.0)
        self.entities -= lr * ent_grad / np.maximum(ent_count, 1.0)[:, None]
        self.relations -= lr * rel_grad / np.maximum(rel_count, 1.0)[:, None]


def _random_graph(seed, entities, relations, triplets):
    rng = np.random.default_rng(seed)
    return np.stack([
        rng.integers(0, entities, size=triplets),
        rng.integers(0, relations, size=triplets),
        rng.integers(0, entities, size=triplets),
    ], axis=1)


_GRAPHS = dict(
    seed=st.integers(0, 2**16),
    entities=st.integers(2, 12),
    relations=st.integers(1, 5),
    triplets=st.integers(1, 60),
    batch_size=st.integers(1, 24),
    margin=st.sampled_from([-1e3, 0.0, 1.0, 4.0]),
    epochs=st.integers(1, 3),
)


class TestOrderedAccumulation:
    """The array-code gradient steps equal the one-``np.add.at``-per-term
    reference byte for byte: tables and loss histories, over random graphs
    with repeated heads and tails, one-relation batches and batches where
    no triplet violates the margin."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 5), st.integers(1, 5)), **_GRAPHS)
    # two entities: every batch repeats heads and tails
    @example(dims=(3, 2), seed=1, entities=2, relations=3, triplets=40,
             batch_size=16, margin=4.0, epochs=2)
    # a single relation
    @example(dims=(4, 4), seed=2, entities=9, relations=1, triplets=30,
             batch_size=8, margin=1.0, epochs=2)
    # no triplet is ever active
    @example(dims=(2, 3), seed=3, entities=6, relations=4, triplets=20,
             batch_size=5, margin=-1e3, epochs=1)
    def test_transr_matches_reference(self, dims, seed, entities, relations,
                                      triplets, batch_size, margin, epochs):
        graph = _random_graph(seed, entities, relations, triplets)
        config = TransRConfig(entity_dim=dims[0], relation_dim=dims[1], margin=margin,
                              learning_rate=0.05, batch_size=batch_size, seed=seed)
        model = TransR(entities, relations, config)
        reference = ReferenceTransR(entities, relations, config)
        assert model.fit(graph, epochs) == reference.fit(graph, epochs)
        for name in ("entities", "relations", "projections"):
            assert getattr(model, name).tobytes() == getattr(reference, name).tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 5), **_GRAPHS)
    @example(dim=3, seed=1, entities=2, relations=3, triplets=40,
             batch_size=16, margin=4.0, epochs=2)
    @example(dim=4, seed=2, entities=9, relations=1, triplets=30,
             batch_size=8, margin=1.0, epochs=2)
    @example(dim=2, seed=3, entities=6, relations=4, triplets=20,
             batch_size=5, margin=-1e3, epochs=1)
    def test_transe_matches_reference(self, dim, seed, entities, relations,
                                      triplets, batch_size, margin, epochs):
        graph = _random_graph(seed, entities, relations, triplets)
        config = TransEConfig(dim=dim, margin=margin, learning_rate=0.05,
                              batch_size=batch_size, seed=seed)
        model = TransE(entities, relations, config)
        reference = ReferenceTransE(entities, relations, config)
        assert model.fit(graph, epochs) == reference.fit(graph, epochs)
        for name in ("entities", "relations"):
            assert getattr(model, name).tobytes() == getattr(reference, name).tobytes(), name


class TestExperience:
    def test_default_experience_covers_all_methods(self):
        records = default_experience()
        methods = {r.method_label for r in records}
        # C8 (post-training quantization) joined the knowledge base so the
        # search can rank quantized extensions from transcribed experience
        assert methods == {"C1", "C2", "C3", "C4", "C5", "C6", "C8"}
        assert len(records) >= 60

    def test_ar_pr_ranges(self):
        for record in default_experience():
            if record.method_label == "C8":
                # quantization leaves the parameter *count* unchanged; its
                # gain is weight memory, so recorded PR is exactly zero
                assert record.pr == 0.0
            else:
                assert 0.0 < record.pr < 1.0
            assert -1.0 < record.ar < 0.2

    def test_nearest_strategy_matches_method_and_values(self, space):
        records = default_experience()
        record = next(r for r in records if r.method_label == "C2")
        strategy = nearest_strategy(space, record)
        assert strategy.method_label == "C2"
        recorded = dict(record.hp)
        if "HP8" in recorded:
            assert strategy.hp["HP8"] == recorded["HP8"]

    def test_nearest_strategy_none_when_method_absent(self):
        restricted = StrategySpace(method_labels=["C3"])
        record = next(r for r in default_experience() if r.method_label == "C2")
        assert nearest_strategy(restricted, record) is None


def reference_nearest_strategy(space, record):
    """Record matching as one Python ``distance`` per candidate strategy."""
    candidates = space.of_method(record.method_label)
    if not candidates:
        return None
    recorded = dict(record.hp)

    def distance(strategy):
        total = 0.0
        hp = strategy.hp
        for name, value in recorded.items():
            if name not in hp:
                continue
            if isinstance(value, str):
                total += 0.0 if hp[name] == value else 1.0
            else:
                grid = [v for v in HP_GRID[name] if not isinstance(v, str)]
                span = (max(grid) - min(grid)) or 1.0
                total += abs(float(hp[name]) - float(value)) / span
        return total

    return min(candidates, key=distance)


@pytest.fixture(scope="module")
def quant_space():
    return StrategySpace(include_quantization=True)


def _hp_values(name):
    """Values a record may report for ``name``: on-grid, between grid
    points (exact distance ties), off-grid and, for numbers, a string."""
    grid = HP_GRID[name]
    if all(isinstance(v, str) for v in grid):
        return st.sampled_from(list(grid) + ["unknown"])
    numbers = sorted(float(v) for v in grid)
    midpoints = [(a + b) / 2 for a, b in zip(numbers, numbers[1:])]
    return st.one_of(
        st.sampled_from(list(grid) + midpoints + ["unknown"]),
        st.floats(min(numbers) - 1.0, max(numbers) + 1.0, allow_nan=False),
    )


@st.composite
def _records(draw):
    method = draw(st.sampled_from(sorted(METHOD_HPS)))
    own = list(METHOD_HPS[method])
    names = draw(st.lists(st.sampled_from(sorted(HP_GRID)), max_size=3, unique=True))
    names += draw(st.lists(st.sampled_from(own), max_size=len(own), unique=True))
    hp = {name: draw(_hp_values(name)) for name in names}
    task = default_experience()[0].task
    return ExperienceRecord(method, tuple(sorted(hp.items())), task, 0.4, -0.01)


class TestNearestStrategyReference:
    """The array-code record matching returns the strategy the per-candidate
    ``min(candidates, key=distance)`` loop returns, first minimum on ties."""

    def test_default_experience_on_three_spaces(self, space, quant_space):
        for target in (space, quant_space, space.restrict(["C2"])):
            for record in default_experience():
                assert nearest_strategy(target, record) is reference_nearest_strategy(
                    target, record
                ), (target, record)

    @settings(max_examples=200, deadline=None)
    @given(record=_records())
    # a categorical-only record ties every C2 strategy with HP8=l1_weight
    @example(record=ExperienceRecord(
        "C2", (("HP8", "l1_weight"),), default_experience()[0].task, 0.4, -0.01))
    # HP6=0.8 sits exactly between its two grid points; HP17 is not C3's
    @example(record=ExperienceRecord(
        "C3", (("HP17", 5), ("HP6", 0.8)), default_experience()[0].task, 0.4, -0.01))
    def test_random_records(self, quant_space, record):
        got = nearest_strategy(quant_space, record)
        assert got is reference_nearest_strategy(quant_space, record)
        assert got.method_label == record.method_label


class TestAlgorithm1:
    def test_full_pipeline_shapes(self, small_space):
        emb = learn_embeddings(
            small_space,
            config=EmbeddingConfig(dim=16, rounds=1, transr_epochs_per_round=1,
                                   nn_exp_epochs_per_round=5),
        )
        assert emb.table.shape == (len(small_space), 16)
        assert np.isfinite(emb.table).all()

    def test_nn_exp_loss_decreases(self, small_space):
        emb = learn_embeddings(
            small_space,
            config=EmbeddingConfig(dim=16, rounds=2, transr_epochs_per_round=1,
                                   nn_exp_epochs_per_round=20),
        )
        assert emb.nn_exp_losses[-1] < emb.nn_exp_losses[0]

    def test_ablation_no_kg(self, small_space):
        emb = learn_embeddings(
            small_space,
            config=EmbeddingConfig(dim=16, rounds=1, use_kg=False,
                                   nn_exp_epochs_per_round=5),
        )
        assert emb.transr_losses == []
        assert emb.nn_exp_losses  # experience still used

    def test_ablation_no_experience(self, small_space):
        emb = learn_embeddings(
            small_space,
            config=EmbeddingConfig(dim=16, rounds=1, transr_epochs_per_round=2,
                                   use_experience=False),
        )
        assert emb.nn_exp_losses == []
        assert emb.transr_losses

    def test_of_indexes_by_strategy(self, small_space):
        emb = learn_embeddings(
            small_space,
            config=EmbeddingConfig(dim=8, rounds=1, transr_epochs_per_round=1,
                                   nn_exp_epochs_per_round=2),
        )
        strategy = small_space[3]
        np.testing.assert_array_equal(emb.of(strategy), emb.table[3])
