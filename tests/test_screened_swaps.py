"""The screened lattice path makes exactly the swaps of the Python kernel.

The Python-only path is the same code with the acceptance share that starts
screening set to 0, which no chunk of proposals falls below. Both runs must accept the same number of swaps and leave
the same edge in every slot: a slot's endpoints feed the later proposals
that pick it, so equal edge sets are not enough.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardflow import smallworld
from wardflow.network import TransferNetwork
from wardflow.smallworld import latticize, rewire_random
from wardflow.synth import ModelSpec, generate_network


def undirected(edges, n):
    # labels sort differently from indices ("v10" < "v2"), as real labels may
    label = [f"v{i}" for i in range(n)]
    canonical = {tuple(sorted((label[u], label[v]))): 1 + (u * 7 + v) % 5 for u, v in edges}
    return TransferNetwork(frozenset(label), canonical, directed=False)


def random_edges(rng, nodes, p):
    return [(u, v) for k, u in enumerate(nodes) for v in nodes[k + 1:] if rng.random() < p]


@st.composite
def swap_graphs(draw):
    """Undirected graphs of two or more edges in the shapes that bound the swap rules."""
    shape = draw(st.sampled_from(["random", "two-edges", "star", "near-complete", "components"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "two-edges":
        n = draw(st.sampled_from([3, 4, 6]))
        edges = [(0, 1), (1, 2)] if n == 3 else [(0, 1), (2, 3)]
    elif shape == "star":
        n = draw(st.integers(3, 12))
        edges = [(0, leaf) for leaf in range(1, n)]
    elif shape == "near-complete":
        n = draw(st.integers(4, 12))
        edges = random_edges(rng, list(range(n)), 1.0)
        for _ in range(draw(st.integers(0, 3))):
            edges.pop(int(rng.integers(len(edges))))
    else:
        n = draw(st.integers(4, 30))
        if shape == "random":
            parts = [list(range(n))]
        else:  # disjoint random parts, some nodes possibly left isolated
            cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False).tolist())
            parts = [list(range(lo, hi)) for lo, hi in zip([0] + cuts, cuts + [n])]
        p = draw(st.floats(0.05, 0.95))
        edges = [edge for part in parts for edge in random_edges(rng, part, p)]
        if len(edges) < 2:
            edges = [(0, 1), (n - 2, n - 1)] if n > 3 else [(0, 1), (1, 2)]
    return undirected(edges, n)


def ordered_edges(result):
    # the rewired network lists its edges slot by slot
    return list(result.network.edges.items())


@given(
    net=swap_graphs(),
    seed=st.integers(0, 2**32 - 1),
    n_swaps=st.integers(0, 400),
    # the Python kernel checks a chunk at a time before screening takes over;
    # a share above 1 switches after the first chunk, so the chunk is the head
    chunk=st.sampled_from([1, 2, 5, 8, 50, 1 << 14]),
    below=st.sampled_from([2.0, 0.5, 0.02]),
    window=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 8), (2, 1 << 14), (16, 1 << 14)]),
    block=st.sampled_from([37, 64, 1 << 20]),
)
@settings(max_examples=150, deadline=None)
def test_screened_lattice_matches_python_kernel(net, seed, n_swaps, chunk, below, window, block):
    with pytest.MonkeyPatch.context() as patch:
        # small blocks and chunks put their seams inside the head and the windows
        patch.setattr(smallworld, "_RNG_BLOCK", block)
        patch.setattr(smallworld, "_LIST_CHUNK", chunk)
        patch.setattr(smallworld, "_SCREEN_BELOW", 0)
        expected = latticize(net, seed=seed, n_swaps=n_swaps)
        patch.setattr(smallworld, "_SCREEN_BELOW", below)
        patch.setattr(smallworld, "_WINDOW_MIN", window[0])
        patch.setattr(smallworld, "_WINDOW_MAX", window[1])
        screened = latticize(net, seed=seed, n_swaps=n_swaps)
    assert screened.attempted == expected.attempted == n_swaps
    assert screened.accepted == expected.accepted
    assert ordered_edges(screened) == ordered_edges(expected)


def screening_spy(monkeypatch):
    """Count the proposals `_screen_kernel` receives in this process."""
    kernel = smallworld._screen_kernel
    seen = [0]

    def spy(*args):
        seen[0] += len(args[4])
        return kernel(*args)

    monkeypatch.setattr(smallworld, "_screen_kernel", spy)
    return seen


@pytest.mark.parametrize("seed", [0, 1])
def test_screened_lattice_matches_python_kernel_on_a_long_chain(monkeypatch, seed):
    # the default budget of 1000 proposals per edge: the first chunk accepts
    # over 4% of its proposals and the second under 0.5%, so screening takes
    # over after two chunks
    net = generate_network(ModelSpec("preferential-attachment", n=80, m=2, seed=7))
    seen = screening_spy(monkeypatch)
    screened = latticize(net, seed=seed)
    assert seen[0] == screened.attempted - 2 * smallworld._LIST_CHUNK
    monkeypatch.setattr(smallworld, "_SCREEN_BELOW", 0)
    before = seen[0]
    expected = latticize(net, seed=seed)
    assert seen[0] == before
    assert screened.accepted == expected.accepted
    assert ordered_edges(screened) == ordered_edges(expected)


def test_random_rule_is_never_screened(monkeypatch):
    net = generate_network(ModelSpec("preferential-attachment", n=80, m=2, seed=7))
    seen = screening_spy(monkeypatch)
    monkeypatch.setattr(smallworld, "_SCREEN_BELOW", 2.0)
    rewire_random(net, seed=0)
    assert seen[0] == 0
