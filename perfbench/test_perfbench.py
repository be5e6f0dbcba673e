"""Tests of the benchmark harness itself.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

import importlib
import json

import numpy as np

import run

run.import_program()

import breakdown  # noqa: E402  (needs the program on the path)
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from hiercurric import benchmark as bm  # noqa: E402
from hiercurric import cli  # noqa: E402
from hiercurric import config as cf  # noqa: E402
from hiercurric import curriculum as cu  # noqa: E402
from hiercurric import dataprep as dp  # noqa: E402
from hiercurric import taxonomy  # noqa: E402


def test_facilitated_config_builds_the_library_regime():
    seed = 3
    config = cf.validate_config(wl.facilitated_config(seed))
    synth = cf.build_synth_spec(config["data"]["synthetic"])
    assert synth == bm.synth_spec(seed)
    data = dp.generate_synthetic(synth)
    graph = taxonomy.validate_basic_marks(data.graph, data.basic_marks)
    labelmap = taxonomy.allocate_descendants(graph)
    assert (cf.build_regime(config["regime"], graph, labelmap)
            == bm.facilitated_regime(seed))
    assert (cf.build_model_spec(config["model"], labelmap.n_sub)
            == bm.model_spec(labelmap.n_sub))


def test_facilitated_config_reproduces_library_final_metrics(tmp_path):
    seed, phase_a, phase_b = 2, 50, 40
    path = tmp_path / "config.json"
    path.write_text(json.dumps(wl.facilitated_config(seed, phase_a, phase_b)))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
    got = json.loads((out / "final.json").read_text())["final"]

    _, bundle = bm.make_bundle(seed)
    regime = cu.Regime(
        kind="FacilitatedReplicatedHead",
        phase_a=bm.train_config(phase_a, seed * 10 + 1, "basic"),
        phase_b=bm.train_config(phase_b, seed * 10 + 2, "sub",
                                lowered_prefix=bm.LOWERED_PREFIX,
                                lowered_mult=bm.LOWERED_MULT))
    _, report = cu.run_regime(regime, bundle)
    assert got == report.final


def _program_attributes():
    modules = [importlib.import_module(f"hiercurric.{m}")
               for m in breakdown.MODULES]
    attrs = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for store in (dp.InMemoryStore, dp.RawFileStore):
        attrs[(store.__qualname__, "load")] = vars(store)["load"]
    return attrs


def test_traced_run_restores_every_function_and_writes_identical_files(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.facilitated_config(4, 6, 6)))

    def argv(out):
        return ["train", "--config", str(config), "--out", str(tmp_path / out)]

    before = _program_attributes()
    assert run.run_cli(argv("plain"))[0] == 0
    tracer = spans.Tracer()
    try:
        names = breakdown.install(tracer)
        during = _program_attributes()
        assert run.run_cli(argv("traced"))[0] == 0
    finally:
        tracer.restore()
    after = _program_attributes()

    assert {name.split(".")[0] for name in names} == set(breakdown.MODULES)
    assert [k for k in before if during[k] is not before[k]]
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert run.tree_differences(tmp_path / "plain", tmp_path / "traced") == []

    metrics = breakdown.layer_metrics(tracer)
    assert metrics["curriculum.steps"][0] == 12
    assert metrics["nnkernel.conv2d_backward.calls"][0] == 2 * 12
    for layer in ("conv1", "relu1", "pool1", "conv2", "relu2", "pool2",
                  "fc1", "drop1", "fc2"):
        assert metrics[f"layer.{layer}.fwd_ms"][0] > 0
        assert metrics[f"layer.{layer}.bwd_ms"][0] > 0
    # conv1 at batch 32: 8 maps of 3x3x3 over 16x16, two FLOPs per MAC
    assert metrics["layer.conv1.fwd_gflop_computed"][0] == (
        2 * 32 * 8 * 16 * 16 * 3 * 3 * 3 / 1e9)


def test_self_time_on_a_hand_built_span_tree():
    S = spans.Span
    tree = [
        S("R", 0.0, 10.0, -1),
        S("A", 1.0, 4.0, 0),
        S("B", 4.5, 6.0, 0),
        S("C", 2.0, 3.0, 1),
        S("A", 5.0, 5.5, 2),
        S("D", 7.0, 9.0, 0),
    ]
    kids = [[] for _ in tree]
    for i, span in enumerate(tree):
        if span.parent >= 0:
            kids[span.parent].append(i)
    selfs = spans.self_times(tree, kids)
    assert selfs == [3.5, 2.0, 1.0, 1.0, 0.5, 2.0]
    totals = spans.totals_by_name(tree, selfs)
    assert totals["R"] == {"calls": 1, "s": 10.0, "self_s": 3.5}
    assert totals["A"] == {"calls": 2, "s": 3.5, "self_s": 2.5}


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert breakdown.tail_percentile(900) == 98.0
    assert breakdown.tail_percentile(10_000) == 99.9
    assert breakdown.tail_percentile(32) == 50.0
    assert breakdown.tail_percentile(19) is None


def test_generated_taxonomy_plants_what_the_bfs_rule_implies():
    edges, marks, planted, heights = wl.generate_taxonomy(
        np.random.default_rng(5), n_basic=60, n_leaves=200)
    graph = taxonomy.validate_basic_marks(taxonomy.build_graph(edges), marks)
    labelmap = taxonomy.allocate_descendants(graph)
    assert {leaf: labelmap.basic_names[labelmap.basic_index(leaf)]
            for leaf in labelmap.sub_names} == planted
    assert taxonomy.category_height_histogram(graph) == heights
    multi = [leaf for leaf in planted if len(graph.parents_of(leaf)) > 1]
    first_elsewhere = [
        leaf for leaf in multi
        if taxonomy.first_marked_ancestor(
            graph, graph.parents_of(leaf)[0], marks) != planted[leaf]]
    assert multi and first_elsewhere and len(first_elsewhere) < len(multi)


def test_failed_exit_code_and_failed_oracle_both_count(tmp_path):
    def ops(inputs, out):
        return [
            wl.Op("train", ["train", "--config", str(tmp_path / "none.json"),
                            "--out", str(out / "train")], lambda: []),
            wl.Op("synth", ["synth", "--seed", "1", "--samples-per-sub", "2",
                            "--out", str(out / "synth")],
                  lambda: ["planted problem"]),
        ]
    workload = wl.Workload(None, ops, None)
    rep = run.run_rep(workload, None, tmp_path / "rep")
    assert rep["attempted"] == 2
    assert [f["op"] for f in rep["failures"]] == ["train", "synth"]
    assert rep["failures"][0]["problems"] == ["exit code 2"]


def test_benchmark_json_lists_what_the_harness_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
