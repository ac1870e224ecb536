"""Acceptance gate: nine end-to-end guarantees the package must hold.

Each test prints one pass/fail verdict line (visible under ``pytest -s``)
and then asserts it, so a red run names exactly which guarantee broke:

1. graph recovery is exact when driven by a perfect independence oracle
2. finite-sample skeleton recovery on a strong 6-node network
3. exact inference matches brute-force joint enumeration
4. fitted tables and posteriors always normalize
5. the independence test is calibrated and matches a hand-computed table
6. the learned model beats the naive Bayes baseline end to end
7. precision/recall/F1 match exact rational arithmetic
8. the baseline is still beaten with oversampling disabled
9. repeated runs are byte-identical
"""

import csv
import time
from itertools import combinations

import numpy as np

from outagebn.bayesnet import (BayesianNetwork, Cpt, fit_cpts,
                               posterior_target)
from outagebn.citest import dataset_ci, g_test_ci, independence_oracle
from outagebn.cli import main
from outagebn.evalmetrics import ConfusionCounts, prf1
from outagebn.pcalg import LearnedDag, learn_skeleton, orient_v_structures
from outagebn.preprocess import DiscreteDataset
from outagebn.synthgen import forward_sample, random_dag, random_network

from oracles import (brute_force_posterior, rational_prf1, skeleton_edges,
                     unshielded_colliders)


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


def _learned_colliders(g) -> set:
    """Triples (x, z, y) read back from the oriented graph, x/y unordered."""
    out = set()
    for z in g.nodes:
        ins = sorted({a for (a, b) in g.directed if b == z})
        for x, y in combinations(ins, 2):
            if not g.has_link(x, y):
                out.add((min(x, y), z, max(x, y)))
    return out


def _skeleton_of(g) -> set:
    return set(g.undirected) | {(min(a, b), max(a, b)) for a, b in g.directed}


def _strong_binary_network() -> BayesianNetwork:
    """Six binary nodes, two colliders, one chain, all dependencies strong."""
    nodes = ["A", "B", "C", "D", "E", "F"]
    parents = {"A": [], "B": [], "C": ["A", "B"], "D": ["C"],
               "E": ["D"], "F": ["B", "E"]}
    tables = {
        "A": [[0.6, 0.4]],
        "B": [[0.4, 0.6]],
        "C": [[0.95, 0.05], [0.15, 0.85], [0.20, 0.80], [0.02, 0.98]],
        "D": [[0.90, 0.10], [0.10, 0.90]],
        "E": [[0.85, 0.15], [0.15, 0.85]],
        "F": [[0.92, 0.08], [0.15, 0.85], [0.25, 0.75], [0.03, 0.97]],
    }
    dag = LearnedDag(nodes=nodes, parents=parents)
    cpts = {n: Cpt.dense(n, parents[n], [2] * len(parents[n]), 2, tables[n])
            for n in nodes}
    return BayesianNetwork(dag, cpts, {n: 2 for n in nodes},
                           {n: [0.5] for n in nodes})


def _best_f1(report_path) -> float:
    with open(report_path) as fh:
        return max(float(r["f1"]) for r in csv.DictReader(fh))


def _run_pipeline(root, seed: int, smote_on: bool) -> tuple[float, float]:
    """gen -> learn -> eval at the stock scenario; returns (model, baseline) best F1."""
    d = root / f"seed{seed}"
    d.mkdir()
    weather, outages = d / "w.csv", d / "o.csv"
    model, report, baseline = d / "m.json", d / "r.csv", d / "b.csv"
    seed_args = ["--seed", str(seed)]
    smote_args = [] if smote_on else ["--smote-target", "0"]
    assert main(["gen", *seed_args, "--out-weather", str(weather),
                 "--out-outages", str(outages)]) == 0
    assert main(["learn", *seed_args, *smote_args,
                 "--weather", str(weather), "--outages", str(outages),
                 "--model", str(model)]) == 0
    assert main(["eval", *seed_args, "--model", str(model),
                 "--weather", str(weather), "--outages", str(outages),
                 "--report", str(report),
                 "--baseline-report", str(baseline)]) == 0
    return _best_f1(report), _best_f1(baseline)


def test_01_oracle_graph_recovery():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(200):
        dag = random_dag(5, 0.4, seed=seed)
        g = learn_skeleton(independence_oracle(dag), nodes=dag.nodes)
        oriented = orient_v_structures(g)
        exact = (_skeleton_of(oriented) == skeleton_edges(dag.parents)
                 and _learned_colliders(oriented)
                 == unshielded_colliders(dag.parents))
        failures += not exact
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    assert _verdict(1, "oracle graph recovery", ok,
                    f"{200 - failures}/200 exact, {elapsed:.1f}s")


def test_02_finite_sample_skeleton_recovery():
    bn = _strong_binary_network()
    true_skel = skeleton_edges(bn.dag.parents)
    t0 = time.perf_counter()
    good = 0
    shds = []
    for seed in range(20):
        ds = forward_sample(bn, 50_000, seed=seed)
        g = learn_skeleton(dataset_ci(ds, 0.01), ds.columns)
        shd = len(set(g.undirected) ^ true_skel)
        shds.append(shd)
        good += shd <= 1
    elapsed = time.perf_counter() - t0
    ok = good >= 18 and elapsed < 60.0
    assert _verdict(2, "finite-sample skeleton recovery", ok,
                    f"SHD<=1 in {good}/20 seeds, max SHD {max(shds)}, "
                    f"{elapsed:.1f}s")


def test_03_inference_matches_enumeration():
    max_err = 0.0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 9))
        bn = random_network(n, 0.4, seed=2000 + i)
        target = bn.dag.nodes[int(rng.integers(n))]
        bn.dag.target = target
        parents_map = {v: list(bn.cpts[v].parents) for v in bn.dag.nodes}

        def entry(node, parent_states, state, _bn=bn):
            return float(_bn.cpts[node].row(list(parent_states))[state])

        others = [v for v in bn.dag.nodes if v != target]
        for _ in range(20):
            k = int(rng.integers(0, len(others) + 1))
            evidence = {}
            if k:
                for c in rng.choice(len(others), size=k, replace=False):
                    evidence[others[int(c)]] = int(rng.integers(2))
            mine = posterior_target(bn, evidence)
            ref = brute_force_posterior(bn.dag.nodes, parents_map,
                                        dict(bn.cardinalities), entry,
                                        target, evidence)
            max_err = max(max_err, float(np.max(np.abs(mine - np.array(ref)))))
    ok = max_err <= 1e-12
    assert _verdict(3, "inference matches enumeration", ok,
                    f"1000 queries, max abs error {max_err:.2e}")


def test_04_everything_normalizes():
    worst = 0.0
    for case in range(1000):
        rng = np.random.default_rng(3000 + case)
        n = int(rng.integers(2, 6))
        dag = random_dag(n, 0.5, seed=4000 + case)
        cards = [int(rng.integers(2, 4)) for _ in range(n)]
        m = int(rng.integers(20, 81))
        rows = np.column_stack([rng.integers(0, c, size=m)
                                for c in cards]).astype(np.int64)
        ds = DiscreteDataset(
            columns=list(dag.nodes), cardinalities=cards, rows=rows,
            labels=np.zeros(m, dtype=np.int64),
            bin_edges=[np.arange(1, c) - 0.5 for c in cards])
        bn = fit_cpts(dag, ds, float(rng.uniform(0.05, 4.0)))
        for node in dag.nodes:
            rowsum = bn.cpts[node].table.sum(axis=1)
            worst = max(worst, float(np.max(np.abs(rowsum - 1.0))))
        target = dag.nodes[int(rng.integers(n))]
        bn.dag.target = target
        others = [v for v in dag.nodes if v != target]
        evidence = {}
        k = int(rng.integers(0, len(others) + 1))
        if k:
            for c in rng.choice(len(others), size=k, replace=False):
                name = others[int(c)]
                evidence[name] = int(rng.integers(bn.cardinalities[name]))
        post = posterior_target(bn, evidence)
        worst = max(worst, abs(float(post.sum()) - 1.0))
    ok = worst <= 1e-12
    assert _verdict(4, "tables and posteriors normalize", ok,
                    f"1000 fits, worst deviation {worst:.2e}")


def test_05_independence_test_calibration():
    rejections = 0
    for seed in range(500):
        rng = np.random.default_rng(5000 + seed)
        data = rng.integers(0, 2, size=(10_000, 2))
        res = g_test_ci(data, 0, 1, alpha=0.05, cardinalities=[2, 2])
        rejections += not res.independent
    rate = rejections / 500
    rows = np.array([[0, 0]] * 30 + [[0, 1]] * 10
                    + [[1, 0]] * 10 + [[1, 1]] * 30)
    hand = g_test_ci(rows, 0, 1, alpha=0.05, cardinalities=[2, 2])
    ok = (0.03 <= rate <= 0.07
          and abs(hand.statistic - 20.93) <= 0.01
          and hand.p_value < 1e-4)
    assert _verdict(5, "independence test calibration", ok,
                    f"rejection rate {rate:.3f}, hand table stat "
                    f"{hand.statistic:.4f} p {hand.p_value:.2e}")


def test_06_pipeline_beats_baseline(tmp_path):
    t0 = time.perf_counter()
    wins = 0
    scores = []
    for seed in range(10):
        f1, nb_f1 = _run_pipeline(tmp_path, seed, smote_on=True)
        scores.append((f1, nb_f1))
        wins += f1 >= 0.8 and f1 > nb_f1
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and elapsed < 300.0
    lows = min(s[0] for s in scores)
    assert _verdict(6, "pipeline beats baseline", ok,
                    f"{wins}/10 seeds with F1>=0.8 and F1>baseline, "
                    f"lowest F1 {lows:.3f}, {elapsed:.0f}s")


def test_07_metric_formulas_exact():
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 1000, size=4))
        got = prf1(ConfusionCounts(tp, fp, tn, fn))
        want = rational_prf1(tp, fp, fn)
        if got != (float(want[0]), float(want[1]), float(want[2])):
            mismatches += 1
    ok = mismatches == 0
    assert _verdict(7, "metric formulas exact", ok,
                    f"{1000 - mismatches}/1000 rational cross-checks exact")


def test_08_beats_baseline_without_oversampling(tmp_path):
    wins = 0
    for seed in range(10):
        f1, nb_f1 = _run_pipeline(tmp_path, seed, smote_on=False)
        wins += f1 > nb_f1
    ok = wins >= 7
    assert _verdict(8, "beats baseline without oversampling", ok,
                    f"{wins}/10 seeds with F1>baseline")


def test_09_repeat_runs_byte_identical(tmp_path):
    outputs = {}
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        weather, outages = d / "w.csv", d / "o.csv"
        model, preds, report = d / "m.json", d / "p.csv", d / "r.csv"
        assert main(["gen", "--seed", "3", "--hours", "10000",
                     "--factors", "4", "--parents", "F1,F2",
                     "--outage-rate", "0.005",
                     "--out-weather", str(weather),
                     "--out-outages", str(outages)]) == 0
        assert main(["learn", "--seed", "3", "--weather", str(weather),
                     "--outages", str(outages), "--model", str(model)]) == 0
        assert main(["predict", "--model", str(model),
                     "--weather", str(weather), "--out", str(preds)]) == 0
        assert main(["eval", "--seed", "3", "--model", str(model),
                     "--weather", str(weather), "--outages", str(outages),
                     "--report", str(report)]) == 0
        outputs[tag] = {p.name: p.read_bytes()
                        for p in (weather, outages, model, preds, report)}
    same = [name for name in outputs["first"]
            if outputs["first"][name] == outputs["second"][name]]
    ok = len(same) == 5
    assert _verdict(9, "repeat runs byte-identical", ok,
                    f"{len(same)}/5 output files identical across reruns")
