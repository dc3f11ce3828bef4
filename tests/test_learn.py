"""Tests of the learned-guidance subsystem (repro.learn).

Covers the documented featurizer invariances (hypothesis property
tests), dataset shard round-trips and schema rejection, store blob
persistence, deterministic model training and serialization, the
surrogate guide's admission/patience/quantile mechanics, ranked
screening, digest participation, flow-level collection, and the
safety contract: collection and guidance never change a verdict.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coords.hexagonal import HexCoord
from repro.coords.lattice import LatticeSite
from repro.defects import DefectType, SidbDefect, SurfaceDefects
from repro.flow.design_flow import FlowConfiguration, design_sidb_circuit
from repro.gatelib import designs
from repro.gatelib.designer import (
    score_design,
    screen_canvas_candidates,
    search_canvas_design,
)
from repro.gatelib.library import BestagonLibrary
from repro.gatelib.tile import TileGeometry
from repro.learn import hooks as learn_hooks
from repro.learn.collect import (
    bootstrap_problems,
    collect_canvas_examples,
    screening_pool,
    two_input_problem,
    wire_problem,
)
from repro.learn.dataset import (
    DATASET_SCHEMA_VERSION,
    Dataset,
    Example,
    ExampleCollector,
    default_learn_dir,
    dumps_shard,
    load_examples,
    parse_shard,
    shard_digest,
    write_shard,
    write_shard_npz,
)
from repro.learn.features import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    CandidateGeometry,
    featurize_candidate,
)
from repro.learn.guide import SurrogateGuide
from repro.learn.model import (
    MODEL_SCHEMA_VERSION,
    SurrogateModel,
    evaluate_surrogate,
    roc_auc,
    train_surrogate,
)
from repro.networks import benchmark_verilog
from repro.networks.truth_table import TruthTable
from repro.service.digest import DIGEST_VERSION, design_digest
from repro.service.store import ArtifactStore
from repro.sidb.bdl import BdlPair

S = LatticeSite.from_row
REPO = Path(__file__).resolve().parent.parent


def _wire_candidate(canvas=()) -> CandidateGeometry:
    body = tuple(S(0, r) for r in (0, 2, 6, 8, 12, 14))
    canvas = tuple(sorted(canvas))
    return CandidateGeometry(
        sites=body + canvas,
        canvas=canvas,
        input_stimuli=(((S(0, -6),), (S(0, -2),)),),
        output_pairs=(BdlPair(S(0, 12), S(0, 14)),),
        outputs=(TruthTable(1, 0b10),),
        name="wire",
    )


# --- featurizer invariances ---------------------------------------------


canvas_sites = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(3, 11)),
    max_size=4,
    unique=True,
).map(lambda pairs: tuple(S(c, r) for c, r in pairs))


@settings(max_examples=30, deadline=None)
@given(
    canvas=canvas_sites,
    dn=st.integers(-40, 40),
    dm=st.integers(-20, 20),
)
def test_featurizer_translation_invariance(canvas, dn, dm):
    candidate = _wire_candidate(canvas)
    base = featurize_candidate(candidate)
    shifted = featurize_candidate(candidate.translated(dn, dm))
    assert base.tobytes() == shifted.tobytes()


@settings(max_examples=30, deadline=None)
@given(canvas=canvas_sites, seed=st.integers(0, 2**16))
def test_featurizer_insertion_order_stability(canvas, seed):
    import random

    candidate = _wire_candidate(canvas)
    shuffled_sites = list(candidate.sites)
    random.Random(seed).shuffle(shuffled_sites)
    shuffled = CandidateGeometry(
        sites=tuple(shuffled_sites),
        canvas=candidate.canvas,
        input_stimuli=candidate.input_stimuli,
        output_pairs=candidate.output_pairs,
        outputs=candidate.outputs,
    )
    assert (
        featurize_candidate(candidate).tobytes()
        == featurize_candidate(shuffled).tobytes()
    )


def _featurize_in_subprocess(queue):
    from repro.learn.features import featurize_candidate as featurize

    from tests.test_learn import _wire_candidate as build

    candidate = build((LatticeSite.from_row(2, 6), LatticeSite.from_row(-1, 9)))
    queue.put(featurize(candidate).tobytes())


def test_featurizer_deterministic_across_spawn_processes():
    candidate = _wire_candidate((S(2, 6), S(-1, 9)))
    local = featurize_candidate(candidate).tobytes()
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    process = context.Process(target=_featurize_in_subprocess, args=(queue,))
    process.start()
    remote = queue.get(timeout=60)
    process.join(timeout=60)
    assert remote == local


def test_featurizer_vector_shape_and_finiteness():
    for canvas in ((), (S(2, 6),), (S(2, 6), S(2, 6))):
        vector = featurize_candidate(_wire_candidate(canvas))
        assert vector.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(vector).all()


def test_featurizer_collision_flag():
    collision = FEATURE_NAMES.index("collision")
    clean = featurize_candidate(_wire_candidate((S(2, 6),)))
    # A canvas dot on top of a fixed body dot is a collision, not an error.
    colliding = featurize_candidate(_wire_candidate((S(0, 6),)))
    assert clean[collision] == 0.0
    assert colliding[collision] == 1.0


# --- dataset shards ------------------------------------------------------


def _examples(count=6):
    examples = []
    for index in range(count):
        vector = featurize_candidate(
            _wire_candidate((S(index - 2, 5 + index % 4),))
        )
        examples.append(
            Example(
                features=tuple(float(x) for x in vector),
                correct=index % 3,
                total=2,
                kind="canvas",
                name=f"example-{index}",
            )
        )
    return examples


def test_shard_jsonl_round_trip(tmp_path):
    examples = _examples()
    path = write_shard(tmp_path, examples)
    assert path.name.startswith("shard-") and path.suffix == ".jsonl"
    text = path.read_text(encoding="utf-8")
    assert path.name == f"shard-{shard_digest(text)[:12]}.jsonl"
    assert parse_shard(text) == examples
    # Re-writing identical content deduplicates to the same file.
    assert write_shard(tmp_path, examples) == path
    assert len(list(tmp_path.glob("shard-*.jsonl"))) == 1


def test_shard_npz_round_trip(tmp_path):
    examples = _examples()
    path = write_shard_npz(tmp_path / "shard.npz", examples)
    dataset = load_examples(path)
    assert len(dataset) == len(examples)
    assert [tuple(row) for row in dataset.features] == [
        example.features for example in examples
    ]
    assert dataset.kinds == ["canvas"] * len(examples)


def test_shard_header_rejection():
    examples = _examples(2)
    lines = dumps_shard(examples).splitlines()
    header = json.loads(lines[0])
    for corruption in (
        {"schema_version": DATASET_SCHEMA_VERSION + 1},
        {"feature_version": FEATURE_VERSION + 1},
        {"feature_names": list(FEATURE_NAMES[:-1])},
        {"kind": "not-a-header"},
    ):
        bad = dict(header, **corruption)
        text = "\n".join([json.dumps(bad, sort_keys=True)] + lines[1:])
        with pytest.raises(ValueError):
            parse_shard(text)
    with pytest.raises(ValueError):
        parse_shard("")


def test_dataset_labels_and_fractions():
    dataset = Dataset.from_examples(_examples())
    # correct cycles 0,1,2 of total 2 -> fractions 0, .5, 1.
    assert list(dataset.fractions()) == [0.0, 0.5, 1.0, 0.0, 0.5, 1.0]
    assert list(dataset.labels()) == [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    assert list(dataset.labels(threshold=0.5)) == [
        0.0, 1.0, 1.0, 0.0, 1.0, 1.0,
    ]


def test_dataset_split_deterministic():
    dataset = Dataset.from_examples(_examples(12))
    train_a, held_a = dataset.split(holdout=0.25, seed=3)
    train_b, held_b = dataset.split(holdout=0.25, seed=3)
    assert len(held_a) == 3 and len(train_a) == 9
    assert train_a.names == train_b.names and held_a.names == held_b.names


def test_collector_records_and_flushes(tmp_path):
    collector = ExampleCollector(tmp_path)
    collector.record_candidate(_wire_candidate(), correct=2, total=2,
                               kind="canvas")
    assert len(collector) == 1
    path = collector.flush()
    assert path is not None and path.exists()
    assert len(collector) == 0
    assert collector.flush() is None  # empty buffer -> no shard
    dataset = load_examples(tmp_path)
    assert len(dataset) == 1 and dataset.kinds == ["canvas"]


def test_default_learn_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEARN_DIR", str(tmp_path / "learn"))
    assert default_learn_dir() == tmp_path / "learn"


def test_hooks_default_disabled():
    assert learn_hooks.COLLECTOR is None
    # Disabled hooks are no-ops, not errors.
    learn_hooks.record_canvas(None, None, 0, 0)
    learn_hooks.record_operational(None, None, (), 0, 0)


# --- store blobs ---------------------------------------------------------


def test_store_blob_round_trip_and_dedupe(tmp_path):
    store = ArtifactStore(root=tmp_path)
    payload = dumps_shard(_examples(3)).encode("utf-8")
    digest = store.put_blob(payload, name="shard.jsonl",
                            meta={"examples": 3})
    assert store.put_blob(payload, name="shard.jsonl") == digest
    assert store.read_blob(digest) == payload
    # Blob entries are not flow results: no payload, no eviction.
    assert store.get_payload(digest) is None


def test_collector_persists_to_store(tmp_path):
    store = ArtifactStore(root=tmp_path / "store")
    collector = ExampleCollector(tmp_path / "shards", store=store)
    for example in _examples(3):
        collector.record_example(example)
    collector.flush()
    (digest,) = collector.persisted_digests
    text = store.read_blob(digest).decode("utf-8")
    assert len(parse_shard(text)) == 3


# --- model ---------------------------------------------------------------


def _training_matrix(count=64, seed=5):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((count, len(FEATURE_NAMES)))
    labels = (features[:, 0] - 0.4 * features[:, 3] > 0).astype(float)
    return features, labels


def test_train_deterministic_and_serializable(tmp_path):
    features, labels = _training_matrix()
    first = train_surrogate(features, labels, seed=2)
    second = train_surrogate(features, labels, seed=2)
    assert first.to_dict() == second.to_dict()
    path = first.save(tmp_path / "model.json")
    assert SurrogateModel.load(path).to_dict() == first.to_dict()
    probabilities = first.predict_proba(features)
    assert np.all((probabilities >= 0) & (probabilities <= 1))
    assert roc_auc(labels, probabilities) > 0.9


def test_model_soft_labels_rank():
    # Trained on fractions, the model must rank 1.0 > 0.5 > 0.0 targets.
    rng = np.random.default_rng(9)
    features = rng.standard_normal((90, len(FEATURE_NAMES)))
    fractions = np.clip(
        0.5 + 0.5 * features[:, 1] + 0.05 * rng.standard_normal(90), 0, 1
    )
    model = train_surrogate(features, fractions, seed=0)
    probabilities = model.predict_proba(features)
    assert np.corrcoef(probabilities, fractions)[0, 1] > 0.7


def test_model_schema_rejection():
    features, labels = _training_matrix(32)
    model = train_surrogate(features, labels, seed=0)
    wrong_schema = dict(model.to_dict(), schema_version=MODEL_SCHEMA_VERSION + 1)
    with pytest.raises(ValueError):
        SurrogateModel.from_dict(wrong_schema)
    wrong_features = dict(model.to_dict(), feature_version=FEATURE_VERSION + 1)
    with pytest.raises(ValueError):
        SurrogateModel.from_dict(wrong_features)
    wrong_names = dict(model.to_dict())
    wrong_names["feature_names"] = list(reversed(wrong_names["feature_names"]))
    with pytest.raises(ValueError):
        SurrogateModel.from_dict(wrong_names)
    with pytest.raises(ValueError):
        train_surrogate(np.zeros((0, len(FEATURE_NAMES))), np.zeros(0))
    with pytest.raises(ValueError):
        train_surrogate(np.zeros((4, 3)), np.zeros(4))


def test_roc_auc_reference_values():
    assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0
    assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5
    assert np.isnan(roc_auc([1, 1], [0.1, 0.9]))
    assert evaluate_surrogate.__doc__  # metrics facade exists


# --- surrogate guide -----------------------------------------------------


class _FixedModel:
    """Stands in for a SurrogateModel: probabilities by canvas size."""

    def __init__(self, table):
        self.table = table  # {n_canvas_dots: probability}

    def predict_proba(self, features):
        index = FEATURE_NAMES.index("n_canvas")
        return np.array(
            [self.table[int(row[index])] for row in np.atleast_2d(features)]
        )


def test_guide_selects_best_and_counts_pruned():
    problem = wire_problem().problem
    guide = SurrogateGuide(_FixedModel({0: 0.1, 1: 0.4, 2: 0.9}),
                           threshold=0.2)
    batch = [frozenset(), frozenset({S(0, 6)}), frozenset({S(0, 6), S(0, 8)})]
    selection = guide.select(problem, batch)
    assert selection == (2, pytest.approx(0.9))
    assert guide.scored == 3 and guide.pruned == 2


def test_guide_patience_admits_after_starvation():
    problem = wire_problem().problem
    guide = SurrogateGuide(_FixedModel({1: 0.01}), threshold=0.2, patience=2)
    batch = [frozenset({S(0, 6)})]
    assert guide.select(problem, batch) is None
    assert guide.select(problem, batch) is None
    # Third consecutive pruned batch exceeds patience: admitted anyway.
    assert guide.select(problem, batch) == (0, pytest.approx(0.01))
    # Admission resets the counter; pruning resumes.
    assert guide.select(problem, batch) is None


def test_guide_adaptive_quantile_raises_admission_bar():
    problem = wire_problem().problem
    model = _FixedModel({0: 0.6, 1: 0.35, 2: 0.9})
    guide = SurrogateGuide(model, threshold=0.2, patience=99,
                           admit_quantile=0.9)
    # Seed the history with 16 scored probabilities of 0.6.
    for _ in range(16):
        assert guide.select(problem, [frozenset()]) is not None
    # 0.35 clears the fixed threshold but not the 0.9-quantile (~0.6).
    assert guide.select(problem, [frozenset({S(0, 6)})]) is None
    # 0.9 clears both.
    selection = guide.select(problem, [frozenset({S(0, 6), S(0, 8)})])
    assert selection == (0, pytest.approx(0.9))


def test_guide_observe_and_stats():
    guide = SurrogateGuide(_FixedModel({}), threshold=0.3)
    guide.observe(0.8, True)   # hit
    guide.observe(0.8, False)  # miss
    guide.observe(0.2, False)  # hit
    stats = guide.stats()
    assert stats["evaluated"] == 3 and stats["hits"] == 2
    assert stats["hit_rate"] == pytest.approx(2 / 3)
    assert stats["threshold"] == pytest.approx(0.3)
    assert {"patience", "admit_quantile", "scored", "pruned"} <= set(stats)
    assert guide.select(None, []) is None


# --- ranked screening ----------------------------------------------------


def test_screening_pool_deterministic():
    problem = two_input_problem("or").problem
    pool_a = screening_pool(problem, size=10, dots=3, seed=4)
    pool_b = screening_pool(problem, size=10, dots=3, seed=4)
    assert pool_a == pool_b
    assert all(len(canvas) == 3 for canvas in pool_a)


@pytest.mark.parametrize("kind", ["or", "and", "xor"])
def test_two_input_problem_builds_from_the_template_table(
    kind, monkeypatch
):
    template = dict(designs.TWO_INPUT_TEMPLATES[kind])
    template["og"] += 1
    monkeypatch.setitem(designs.TWO_INPUT_TEMPLATES, kind, template)
    function = designs.GATE_TABLES[kind]
    core = designs.two_input_core(template, function)
    problem = two_input_problem(kind).problem
    assert problem.fixed_sites == list(core.body)
    assert problem.output_pairs == [core.output_pairs[-1]]
    assert problem.outputs == [function]


def test_screen_canvas_candidates_unguided_and_guided():
    bootstrap = wire_problem()
    problem = bootstrap.problem
    good = bootstrap.known_good
    bad = [
        frozenset({S(-3, 4), S(3, 4)}),
        frozenset({S(-3, 10), S(3, 10)}),
        frozenset({S(2, 4), S(-2, 10)}),
    ]
    pool = bad + [good]
    unguided = screen_canvas_candidates(problem, pool)
    assert unguided is not None
    canvas, correct, total = unguided
    assert canvas == good and correct == total
    # A guide that ranks the known-good canvas first finds it in one
    # physics evaluation -- and returns the identical verified design.
    guide = SurrogateGuide(_GoodFirstModel(good))
    guided = screen_canvas_candidates(problem, pool, guide=guide)
    assert guided == unguided
    assert guide.evaluated == 1 and guide.scored == len(pool)
    # An exhausted pool returns None.
    assert screen_canvas_candidates(problem, bad[:1]) is None


class _GoodFirstModel:
    """Scores the wire known-good geometry highest via its features."""

    def __init__(self, good):
        self.good = featurize_candidate(
            CandidateGeometry.from_canvas_problem(wire_problem().problem, good)
        ).tobytes()

    def predict_proba(self, features):
        rows = np.atleast_2d(features)
        return np.array(
            [1.0 if row.tobytes() == self.good else 0.1 for row in rows]
        )


# --- collection through the physics call sites ---------------------------


def test_score_design_records_examples(tmp_path):
    bootstrap = wire_problem()
    collector = ExampleCollector(tmp_path)
    with learn_hooks.collecting(collector):
        correct, total = score_design(bootstrap.problem, bootstrap.known_good)
        # Colliding canvases are recorded as always-negative examples.
        score_design(
            bootstrap.problem, frozenset({bootstrap.problem.fixed_sites[0]})
        )
    assert learn_hooks.COLLECTOR is None
    assert correct == total == 2
    collector.flush()
    dataset = load_examples(tmp_path)
    assert len(dataset) == 2
    assert list(dataset.fractions()) == [1.0, 0.0]


def test_collect_canvas_examples_deterministic(tmp_path):
    stats_a = collect_canvas_examples(
        tmp_path / "a", samples=8, seed=1, problems=[wire_problem()]
    )
    stats_b = collect_canvas_examples(
        tmp_path / "b", samples=8, seed=1, problems=[wire_problem()]
    )
    assert stats_a["examples"] == stats_b["examples"] > 0
    text_a = Path(stats_a["shard"]).read_text(encoding="utf-8")
    text_b = Path(stats_b["shard"]).read_text(encoding="utf-8")
    assert text_a == text_b
    assert stats_a["per_problem"] == {"wire": stats_a["examples"]}
    assert bootstrap_problems()[0].name == "wire"


def test_operational_check_records_examples(tmp_path):
    collector = ExampleCollector(tmp_path)
    library = BestagonLibrary()
    with learn_hooks.collecting(collector):
        report = library.validate("wire_NE_SE")
    assert len(collector) == 1
    example = collector._examples[0]
    assert example.kind == "operational"
    assert (example.correct == example.total) == report.operational


def test_verdict_equality_with_collection(tmp_path):
    """Safety contract: collection never changes a verdict."""
    library = BestagonLibrary()
    plain = library.validate("inv_NE_SE")
    with learn_hooks.collecting(ExampleCollector(tmp_path)):
        collected = BestagonLibrary().validate("inv_NE_SE")
    assert collected.operational == plain.operational
    assert [p.observed for p in collected.patterns] == [
        p.observed for p in plain.patterns
    ]


# --- flow + digest -------------------------------------------------------


def test_digest_learn_participation():
    assert DIGEST_VERSION == 8
    verilog = benchmark_verilog("xor2")
    base = design_digest(verilog, "xor2", FlowConfiguration())
    learned = design_digest(
        verilog, "xor2", FlowConfiguration(learn=True)
    )
    assert base != learned
    assert design_digest(verilog, "xor2", FlowConfiguration()) == base


def test_flow_learn_collects_shard(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEARN_DIR", str(tmp_path))
    verilog = benchmark_verilog("xor2")
    pristine = design_sidb_circuit(verilog, "xor2")
    used = sorted((c.x, c.y) for c, _ in pristine.layout.occupied())
    geometry = TileGeometry()
    column, row = geometry.origin_of(HexCoord(*used[0]))
    defect = SidbDefect(
        LatticeSite(column + 2, (row + 2) // 2, (row + 2) % 2),
        DefectType.DB,
    )
    config = FlowConfiguration(
        learn=True, defects=SurfaceDefects([defect])
    )
    result = design_sidb_circuit(verilog, "xor2", config)
    shards = list((tmp_path / "shards").glob("shard-*.jsonl"))
    assert shards, "learn=True flow produced no dataset shard"
    dataset = load_examples(tmp_path / "shards")
    assert len(dataset) > 0
    assert set(dataset.kinds) == {"operational"}
    # Collection changed no artifact: same .sqd as a learn=False run.
    plain = design_sidb_circuit(verilog, "xor2", FlowConfiguration(
        defects=SurfaceDefects([defect])
    ))
    assert result.sqd == plain.sqd


def test_flow_learn_off_no_shard(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEARN_DIR", str(tmp_path))
    design_sidb_circuit(benchmark_verilog("xor2"), "xor2")
    assert not list(tmp_path.rglob("shard-*.jsonl"))


# --- guided search end-to-end -------------------------------------------


def test_search_canvas_design_guided_wire():
    bootstrap = wire_problem()
    features, labels = _training_matrix(48)
    model = train_surrogate(features, labels, seed=0)
    guide = SurrogateGuide(model, threshold=0.0, patience=0)
    result = search_canvas_design(
        bootstrap.problem, max_dots=3, iterations=12, seed=0, guide=guide,
    )
    # Every physics outcome was reported back to the guide, and any
    # winner's score came from physics: re-scoring reproduces it.
    assert guide.evaluated > 0 and guide.scored >= guide.evaluated
    if result is not None:
        canvas, correct, total = result
        assert score_design(bootstrap.problem, canvas) == (correct, total)


# --- CLI -----------------------------------------------------------------


def _run_cli(*arguments, env=None):
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    if env:
        environment.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        capture_output=True, text=True, env=environment, cwd=REPO,
    )


def test_cli_learn_train_eval_info(tmp_path):
    shards = tmp_path / "shards"
    shards.mkdir()
    rng = np.random.default_rng(3)
    examples = []
    for index in range(40):
        vector = rng.standard_normal(len(FEATURE_NAMES))
        examples.append(Example(
            features=tuple(float(x) for x in vector),
            correct=2 if vector[0] > 0 else 0, total=2, kind="canvas",
        ))
    write_shard(shards, examples)
    model_path = tmp_path / "model.json"
    env = {"REPRO_LEARN_DIR": str(tmp_path)}
    train = _run_cli(
        "learn", "train", "--data", str(shards),
        "--out", str(model_path), "--seed", "1", env=env,
    )
    assert train.returncode == 0, train.stderr
    assert model_path.exists()
    evaluation = _run_cli(
        "learn", "eval", "--model", str(model_path),
        "--data", str(shards), env=env,
    )
    assert evaluation.returncode == 0, evaluation.stderr
    metrics = json.loads(evaluation.stdout)
    assert 0.0 <= metrics["auc"] <= 1.0 and metrics["examples"] == 40
    info = _run_cli("learn", "info", env=env)
    assert info.returncode == 0, info.stderr
    document = json.loads(info.stdout)
    assert document["dataset_schema_version"] == DATASET_SCHEMA_VERSION
    assert document["model_schema_version"] == MODEL_SCHEMA_VERSION
    assert document["feature_version"] == FEATURE_VERSION


def test_cli_design_accepts_learn_flag():
    result = _run_cli("synth", "--help")
    assert result.returncode == 0
    assert "--learn" in result.stdout
