import numpy as np
import pytest

from wardflow.network import TransferNetwork
from wardflow.paths import GraphCore
from wardflow.resilience import ADAPTIVE, STATIC, AttackResult, AttackStep, attack, giant_wcc_area
from wardflow.synth import ModelSpec, generate_network


def net_of(edges, directed=True):
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    return TransferNetwork(frozenset(nodes), dict(edges), directed=directed)


def star(n):
    return net_of({("hub", f"leaf{i}"): 1 for i in range(n - 1)})


def cycle(n):
    return net_of({(f"n{i}", f"n{(i + 1) % n}"): 1 for i in range(n)})


def test_zero_removal_step_reproduces_intact_network():
    net = cycle(8)
    result = attack(net, "degree", step_fraction=0.25)
    first = result.steps[0]
    assert first.fraction_removed == 0.0
    assert first.wcc_fraction == 1.0
    assert first.scc_fraction == 1.0
    assert first.efficiency > 0.0


def test_star_degree_attack_first_step_isolates_leaves():
    n = 10
    result = attack(star(n), "degree", step_fraction=0.05)
    assert result.strategy == "degree-targeted"
    assert result.recompute_policy == ADAPTIVE
    # one node removed per step; the hub goes first
    assert result.steps[1].wcc_fraction == pytest.approx(1 / n)


def test_cycle_single_removal_stays_weakly_connected():
    n = 10
    result = attack(cycle(n), "degree", step_fraction=0.05)
    assert result.steps[1].wcc_fraction == pytest.approx((n - 1) / n)


def test_explicit_permutation_ends_at_zero():
    net = cycle(6)
    order = sorted(net.nodes)
    result = attack(net, "explicit", order=order, step_fraction=0.5)
    assert result.strategy == "explicit-list"
    assert result.steps[-1].fraction_removed == 1.0
    assert result.steps[-1].wcc_fraction == 0.0
    assert result.steps[-1].scc_fraction == 0.0
    assert result.steps[-1].efficiency == 0.0


def test_random_attack_reproducible_and_seeded():
    net = generate_network(ModelSpec("uniform-random", n=40, seed=2, p=0.1))
    a = attack(net, "random", seed=7)
    b = attack(net, "random", seed=7)
    c = attack(net, "random", seed=8)
    assert a == b
    assert a.steps != c.steps
    assert a.strategy == "random(seed=7)"


def test_wcc_fraction_non_increasing_under_static_order():
    # a static degree attack is an explicit order of the intact degree ranking
    net = generate_network(ModelSpec("preferential-attachment", n=60, seed=5, m=2))
    degree = dict(zip(net.core.labels, net.core.degrees()))
    order = sorted(degree, key=lambda label: (-degree[label], label))
    result = attack(net, "explicit", order=order, step_fraction=0.1)
    wcc = [step.wcc_fraction for step in result.steps]
    assert all(b <= a + 1e-12 for a, b in zip(wcc, wcc[1:]))
    assert result.recompute_policy == STATIC


def test_betweenness_strategy_runs():
    net = generate_network(ModelSpec("preferential-attachment", n=30, seed=3, m=2))
    result = attack(net, "betweenness", step_fraction=0.2)
    assert result.strategy == "betweenness-targeted"
    assert result.steps[-1].wcc_fraction == 0.0


def test_policy_follows_strategy_and_only_random_records_its_seed():
    net = cycle(6)
    for strategy, policy, seed in (("degree", ADAPTIVE, None), ("betweenness", ADAPTIVE, None),
                                   ("random", STATIC, 4), ("explicit", STATIC, None)):
        result = attack(net, strategy, step_fraction=0.5, seed=4, order=sorted(net.nodes))
        assert (result.recompute_policy, result.seed) == (policy, seed)


def test_explicit_order_rejects_a_repeated_label():
    triangle = net_of({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
    with pytest.raises(ValueError, match=r"repeated nodes in removal order: \['a'\]"):
        attack(triangle, "explicit", order=["a", "a", "b"], step_fraction=0.34)
    partial = attack(triangle, "explicit", order=["a", "b"], step_fraction=0.34)
    assert [step.fraction_removed for step in partial.steps] == [0.0, 1 / 3, 2 / 3]


def test_each_step_builds_one_alive_subgraph(monkeypatch):
    net = generate_network(ModelSpec("preferential-attachment", n=40, seed=4, m=2))
    builds = []
    subgraph = GraphCore.subgraph

    def counted(core, members):
        builds.append(len(members))
        return subgraph(core, members)

    monkeypatch.setattr(GraphCore, "subgraph", counted)
    result = attack(net, "degree", step_fraction=0.1)
    assert len(builds) <= len(result.steps)
    assert builds[0] == net.node_count


def test_attack_validates_inputs():
    net = cycle(5)
    with pytest.raises(ValueError):
        attack(net, "degree", step_fraction=0.0)
    with pytest.raises(ValueError):
        attack(net, "degree", step_fraction=1.5)
    with pytest.raises(ValueError):
        attack(net, "random")  # no seed
    with pytest.raises(ValueError):
        attack(net, "explicit", order=["nope"])
    with pytest.raises(ValueError):
        attack(net, "tsunami")
    single = TransferNetwork(frozenset({"a"}), {})
    with pytest.raises(ValueError):
        attack(single, "degree")


def test_all_fractions_stay_in_unit_interval():
    net = generate_network(ModelSpec("uniform-random", n=30, seed=9, p=0.15))
    for strategy, kwargs in (("degree", {}), ("random", {"seed": 1})):
        result = attack(net, strategy, step_fraction=0.15, **kwargs)
        for step in result.steps:
            assert 0.0 <= step.fraction_removed <= 1.0
            assert 0.0 <= step.wcc_fraction <= 1.0
            assert 0.0 <= step.scc_fraction <= 1.0
            assert 0.0 <= step.efficiency <= 1.0


def test_giant_wcc_area_of_flat_curve():
    steps = (AttackStep(0.0, 1.0, 1.0, 1.0), AttackStep(0.5, 1.0, 1.0, 1.0), AttackStep(1.0, 1.0, 1.0, 1.0))
    assert giant_wcc_area(AttackResult("x", STATIC, 0.5, None, steps)) == pytest.approx(1.0)


# Recorded with the networkx-based ranking: the betweenness attack's removal
# order (ties broken by label) and its steps on a seeded network.
GOLDEN_BETWEENNESS_ORDER = [
    "w05", "w00", "w01", "w04", "w02", "w07", "w11", "w28", "w18", "w22", "w19", "w39",
    "w17", "w45", "w48", "w15", "w21", "w58", "w10", "w30", "w23", "w26", "w44", "w50",
    "w14", "w31", "w24", "w03", "w06", "w08", "w09", "w12", "w13", "w16", "w20", "w25",
    "w27", "w29", "w32", "w33", "w34", "w35", "w36", "w37", "w38", "w40", "w41", "w42",
    "w43", "w46", "w47", "w49", "w51", "w52", "w53", "w54", "w55", "w56", "w57", "w59",
]
GOLDEN_BETWEENNESS_STEPS = [
    (0.0, 1.0, 1.0, 0.41918079096045197),
    (0.1, 0.5666666666666667, 0.5666666666666667, 0.11566400832648213),
    (0.2, 0.15, 0.15, 0.039790189125295514),
    (0.3, 0.08333333333333333, 0.08333333333333333, 0.024003097173828883),
    (0.4, 0.06666666666666667, 0.06666666666666667, 0.012433862433862434),
    (0.5, 0.03333333333333333, 0.03333333333333333, 0.0022988505747126436),
    (0.6, 0.03333333333333333, 0.03333333333333333, 0.0036231884057971015),
    (0.7, 0.03333333333333333, 0.03333333333333333, 0.006535947712418301),
    (0.8, 0.016666666666666666, 0.016666666666666666, 0.0),
    (0.9, 0.016666666666666666, 0.016666666666666666, 0.0),
    (1.0, 0.0, 0.0, 0.0),
]


def test_betweenness_attack_matches_recorded_order_and_steps():
    net = generate_network(ModelSpec("preferential-attachment", n=60, seed=11, m=2))
    result = attack(net, "betweenness", step_fraction=0.1)
    replay = attack(net, "explicit", order=GOLDEN_BETWEENNESS_ORDER, step_fraction=0.1)
    assert result.steps == replay.steps
    assert len(result.steps) == len(GOLDEN_BETWEENNESS_STEPS)
    for step, (fraction, wcc, scc, efficiency) in zip(result.steps, GOLDEN_BETWEENNESS_STEPS):
        assert (step.fraction_removed, step.wcc_fraction, step.scc_fraction) == (fraction, wcc, scc)
        assert step.efficiency == pytest.approx(efficiency, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alive_share", [1.0, 0.8, 0.5])
def test_ranking_matches_a_sort_by_score_then_label(alive_share):
    from wardflow import paths
    from wardflow.resilience import _ranking

    core = generate_network(ModelSpec("preferential-attachment", n=80, seed=5, m=2)).core
    alive = np.zeros(core.n, dtype=bool)
    alive[np.random.default_rng(3).permutation(core.n)[:int(alive_share * core.n)]] = True
    members = np.flatnonzero(alive)
    for score in (GraphCore.degrees, paths.betweenness):
        scores = dict(zip(members.tolist(), score(core.subgraph(members))))
        expected = sorted(scores, key=lambda i: (-scores[i], core.labels[i]))
        assert len(set(scores.values())) < len(scores)  # ties to break
        assert _ranking(core.subgraph(members), members, score) == expected
