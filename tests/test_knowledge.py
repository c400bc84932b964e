"""Tests for the knowledge graph, TransR, experience and Algorithm 1."""

import os
import subprocess
import sys
from pathlib import Path

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
from repro.knowledge.transr import _ordered_total, ordered_row_sum
from repro.space import StrategySpace
from repro.space.hyperparams import HP_GRID, METHOD_HPS


@pytest.fixture(scope="module")
def small_space():
    """C3+C4 only (150 strategies) keeps knowledge tests fast."""
    return StrategySpace(method_labels=["C3", "C4"])


@pytest.fixture(scope="module")
def small_graph(small_space):
    return build_knowledge_graph(small_space)


@pytest.fixture(scope="module")
def graph_cases(small_space, small_graph):
    """(space, graph) for the small graph and for the graph over all eight
    methods (C7/C8 share HP1 with the paper's methods and add HP17..HP20)."""
    space = StrategySpace(include_quantization=True)
    return [(small_space, small_graph), (space, build_knowledge_graph(space))]


def _rows(graph, relation):
    return graph.triplets[graph.triplets[:, 1] == graph.relation_index[relation]]


def _component_count(num_entities, triplets):
    """Connected components of the undirected graph, by union-find."""
    parent = list(range(num_entities))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for head, _, tail in triplets.tolist():
        parent[find(head)] = find(tail)
    return len({find(x) for x in range(num_entities)})


class TestKnowledgeGraph:
    def test_entity_types_complete(self, graph_cases):
        for _, graph in graph_cases:
            for entity_type in ENTITY_TYPES:
                assert graph.entities_of_type(entity_type), entity_type

    def test_strategy_entities_cover_space(self, graph_cases):
        """One strategy entity per strategy, in the space's index order."""
        for space, graph in graph_cases:
            identifiers = [s.identifier for s in space]
            assert graph.entities_of_type("strategy") == identifiers
            assert list(graph.strategy_entities) == identifiers

    def test_relations_join_their_entity_types(self, graph_cases):
        for _, graph in graph_cases:
            expected = {"R1": ("strategy", "method"), "R2": ("strategy", "setting"),
                        "R3": ("method", "hyperparameter"), "R4": ("method", "technique"),
                        "R5": ("hyperparameter", "setting")}
            for relation, (head_type, tail_type) in expected.items():
                rows = graph.triplets[graph.triplets[:, 1] == graph.relation_index[relation]]
                assert len(rows), relation
                assert {ENTITY_TYPES[c] for c in graph.entity_types[rows[:, 0]]} == {head_type}
                assert {ENTITY_TYPES[c] for c in graph.entity_types[rows[:, 2]]} == {tail_type}

    def test_r1_every_strategy_links_to_its_method(self, graph_cases):
        for space, graph in graph_cases:
            rows = _rows(graph, "R1")
            heads = [graph.strategy_entities[s.identifier] for s in space]
            assert sorted(rows[:, 0].tolist()) == heads  # one R1 row per strategy
            method_of = dict(zip(rows[:, 0].tolist(), rows[:, 2].tolist()))
            for strategy, head in zip(space, heads):
                assert method_of[head] == graph.entity_index[strategy.method_label]

    def test_r2_settings_per_strategy(self, graph_cases):
        for space, graph in graph_cases:
            rows = _rows(graph, "R2")
            settings = {}
            for head, tail in rows[:, [0, 2]].tolist():
                settings.setdefault(head, []).append(tail)
            assert len(settings) == len(space)
            for strategy in space:
                assert settings[graph.strategy_entities[strategy.identifier]] == [
                    graph.entity_index[f"{hp}={value}"] for hp, value in strategy.hp_items
                ]

    def test_r5_no_duplicate_edges(self, graph_cases):
        for space, graph in graph_cases:
            pairs = [tuple(pair) for pair in _rows(graph, "R5")[:, [0, 2]].tolist()]
            assert len(pairs) == len(set(pairs))
            hps = {hp for label in space.method_labels for hp in METHOD_HPS[label]}
            assert set(pairs) == {
                (graph.entity_index[hp], graph.entity_index[f"{hp}={value}"])
                for hp in hps for value in HP_GRID[hp]
            }

    def test_triplets_reference_valid_ids(self, small_graph):
        t = small_graph.triplets
        assert t.shape[1] == 3
        assert t[:, 0].max() < small_graph.num_entities
        assert t[:, 2].max() < small_graph.num_entities
        assert t[:, 1].max() < len(RELATIONS)

    def test_graph_is_connected_via_methods(self, graph_cases):
        for _, graph in graph_cases:
            assert _component_count(graph.num_entities, graph.triplets) == 1

    def test_import_repro_leaves_networkx_unloaded(self):
        """Neither networkx nor scipy loads with the package or with
        Algorithm 1: G is arrays, and nothing else needs them."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro\n"
             "from repro.knowledge import learn_embeddings\n"
             "from repro.space import StrategySpace\n"
             "learn_embeddings(StrategySpace(method_labels=['C3']))\n"
             "print(sorted({'networkx', 'scipy'} & set(sys.modules)))"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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


class GatheredTransR(TransR):
    """TransR as it was before the relation-grouped projections: each batch
    gathers ``projections[rels]``, an (n, k, d) copy, and the step takes
    ``w[active]`` of it for the entity gradients."""

    def _gathered_residuals(self, w, heads, rels, tails):
        h = np.einsum("nkd,nd->nk", w, self.entities[heads])
        t = np.einsum("nkd,nd->nk", w, self.entities[tails])
        return h + self.relations[rels] - t

    def score(self, heads, rels, tails):
        diff = self._gathered_residuals(self.projections[rels], heads, rels, tails)
        return (diff ** 2).sum(axis=1)

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
            w = self.projections[rels]
            u_pos = self._gathered_residuals(w, heads, rels, tails)
            u_neg = self._gathered_residuals(w, neg_heads, rels, neg_tails)
            violation = cfg.margin + (u_pos ** 2).sum(axis=1) - (u_neg ** 2).sum(axis=1)
            active = violation > 0
            total_loss += float(violation[active].sum())
            if not active.any():
                continue
            self._gathered_step(
                w[active], rels[active],
                heads[active], tails[active], u_pos[active],
                neg_heads[active], neg_tails[active], u_neg[active],
            )
        self._normalize()
        self.loss_history.append(total_loss / max(len(triplets), 1))
        return self.loss_history[-1]

    def _gathered_step(self, w, rels, heads, tails, u_pos, neg_heads, neg_tails, u_neg):
        lr = self.config.learning_rate
        n_entities, n_relations = len(self.entities), len(self.relations)
        grad_pos = 2.0 * np.einsum("nkd,nk->nd", w, u_pos)
        grad_neg = 2.0 * np.einsum("nkd,nk->nd", w, u_neg)
        ent_idx = np.concatenate([heads, tails, neg_heads, neg_tails])
        ent_grad = ordered_row_sum(
            ent_idx, np.concatenate([grad_pos, -grad_pos, -grad_neg, grad_neg]), n_entities
        )
        ent_count = np.bincount(ent_idx, minlength=n_entities)
        rel_idx = np.concatenate([rels, rels])
        rel_grad = ordered_row_sum(
            rel_idx, np.concatenate([2.0 * u_pos, -(2.0 * u_neg)]), n_relations
        )
        rel_count = np.bincount(rel_idx, minlength=n_relations)
        diff_pos = self.entities[heads] - self.entities[tails]
        diff_neg = self.entities[neg_heads] - self.entities[neg_tails]
        proj_grad = np.zeros_like(self.projections)
        for r in np.unique(rels):
            rows = np.flatnonzero(rels == r)
            outer = 2.0 * np.einsum(
                "nk,nd->nkd",
                np.concatenate([u_pos[rows], u_neg[rows]]),
                np.concatenate([diff_pos[rows], diff_neg[rows]]),
            )
            outer[len(rows):] *= -1.0
            proj_grad[r] = _ordered_total(outer)
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


@st.composite
def _knowledge_triplets(draw):
    """Triplets of G over one to three methods: all of them, or a sample of
    up to 300 rows from a drawn subset of the relations."""
    labels = draw(st.lists(st.sampled_from(sorted(METHOD_HPS)), min_size=1,
                           max_size=3, unique=True))
    graph = build_knowledge_graph(StrategySpace(method_labels=sorted(labels)))
    triplets = graph.triplets
    if draw(st.booleans()):
        kept = draw(st.sets(st.integers(0, len(RELATIONS) - 1), min_size=1))
        triplets = triplets[np.isin(triplets[:, 1], sorted(kept))]
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        count = draw(st.integers(1, min(300, len(triplets))))
        triplets = triplets[np.sort(rng.choice(len(triplets), count, replace=False))]
    return graph.num_entities, graph.num_relations, triplets


class TestRelationGroupedProjections:
    """TransR's relation-grouped ``W_r`` einsums equal the former gathered
    ``projections[rels]`` trainer byte for byte: entity, relation and
    projection tables, loss histories and scores."""

    @settings(max_examples=25, deadline=None)
    @given(
        case=_knowledge_triplets(),
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([1, 2, 3, 8, 32]),
        batch_size=st.one_of(st.integers(1, 40), st.sampled_from([512, 10**6])),
        margin=st.sampled_from([-1e3, 0.0, 1.0, 4.0]),
        epochs=st.integers(1, 2),
    )
    def test_matches_gathered_trainer(self, case, seed, dim, batch_size, margin, epochs):
        entities, relations, triplets = case
        config = TransRConfig(entity_dim=dim, relation_dim=dim, margin=margin,
                              batch_size=batch_size, seed=seed)
        model = TransR(entities, relations, config)
        reference = GatheredTransR(entities, relations, config)
        assert model.fit(triplets, epochs) == reference.fit(triplets, epochs)
        for name in ("entities", "relations", "projections"):
            assert getattr(model, name).tobytes() == getattr(reference, name).tobytes(), name
        rng = np.random.default_rng(seed)
        corrupted = rng.integers(0, entities, size=len(triplets))
        for heads, tails in ((triplets[:, 0], triplets[:, 2]), (triplets[:, 0], corrupted)):
            got = model.score(heads, triplets[:, 1], tails)
            assert got.tobytes() == reference.score(heads, triplets[:, 1], tails).tobytes()

    @pytest.mark.parametrize("labels, batch_size, margin", [
        (["C3", "C4"], 512, 1.0),      # production batches over a whole graph
        (["C3"], 1, 1.0),              # one triplet, hence one relation, per batch
        (["C8"], 10**6, 1.0),          # one batch larger than the graph
        (["C3", "C4"], 512, -1e3),     # no triplet ever violates the margin
        (["C2", "C5", "C8"], 512, 4.0),
    ])
    def test_whole_graphs(self, labels, batch_size, margin):
        graph = build_knowledge_graph(StrategySpace(method_labels=labels))
        config = TransRConfig(margin=margin, batch_size=batch_size, seed=7)
        model = TransR(graph.num_entities, graph.num_relations, config)
        reference = GatheredTransR(graph.num_entities, graph.num_relations, config)
        assert model.fit(graph.triplets, 2) == reference.fit(graph.triplets, 2)
        for name in ("entities", "relations", "projections"):
            assert getattr(model, name).tobytes() == getattr(reference, name).tobytes(), name
        t = graph.triplets
        assert (model.score(t[:, 0], t[:, 1], t[:, 2]).tobytes()
                == reference.score(t[:, 0], t[:, 1], t[:, 2]).tobytes())


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
        for target in (space, quant_space, StrategySpace(method_labels=["C2"])):
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
