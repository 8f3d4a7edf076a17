import pickle

import numpy as np
import pytest

from switchopt.graph import (
    Graph,
    Network,
    adjacency,
    connected,
    lambda2,
    laplacian,
    stack,
)

from conftest import SIX_GRAPHS, complete_graph


PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def test_laplacian_path3_textbook():
    L = laplacian(PATH3)
    assert np.array_equal(L, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], float))


def test_laplacian_empty_graph():
    assert np.array_equal(laplacian(Graph(4)), np.zeros((4, 4)))


def test_laplacian_k5_spectrum_brute_force():
    L = laplacian(complete_graph(5))
    assert np.array_equal(np.diag(L), np.full(5, 4.0))
    evals = np.sort(np.linalg.eigvalsh(L))
    assert np.allclose(evals, [0, 5, 5, 5, 5], atol=1e-12)


def test_lambda2_path3():
    # brute-force eigenvalues of the path Laplacian are {0, 1, 3}
    assert lambda2(laplacian(PATH3)) == pytest.approx(1.0, abs=1e-12)


def test_lambda2_k5():
    assert lambda2(laplacian(complete_graph(5))) == pytest.approx(5.0, abs=1e-12)


def test_lambda2_disconnected_zero():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert lambda2(laplacian(g)) == pytest.approx(0.0, abs=1e-12)


def test_lambda2_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        lambda2(np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_lambda2_refuses_a_small_asymmetry_at_unit_scale():
    # the symmetry test is absolute (atol 1e-12), not relative to the entries
    L = np.array([[1.0, -1.0], [-1.0 + 1e-6, 1.0 - 1e-6]])
    with pytest.raises(ValueError, match="^Laplacian must be symmetric$"):
        lambda2(L)


@pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 2)])
def test_lambda2_refuses_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match="^Laplacian must be square$"):
        lambda2(np.zeros(shape))


def test_lambda2_of_one_node_is_exactly_zero():
    value = lambda2([[0.0]])
    assert value == 0.0 and type(value) is float


def jointly_connected(graphs) -> bool:
    """The ``jointly_connected`` check of the switching assumption report of
    a noise-free network over ``graphs``: the summed Laplacian's ``connected``."""
    from switchopt.dynamics import check_assumptions

    net = Network(graphs=tuple(graphs), sigma=0.0, coupling=1.0, kappa=0.0)
    check, = (c for c in check_assumptions(net, switching=True)["checks"]
              if c["name"] == "jointly_connected")
    return check["passed"]


def test_jointly_connected_bundled_six_graphs():
    assert jointly_connected(SIX_GRAPHS)


def test_jointly_connected_fails_for_disconnected_copies():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not jointly_connected([g] * 5)


def test_jointly_connected_two_edges_make_a_path():
    g1 = Graph.from_edges(3, [(0, 1)])
    g2 = Graph.from_edges(3, [(1, 2)])
    assert jointly_connected([g1, g2])


def test_one_node_is_connected_by_the_graph_rule_and_the_assumption_report():
    from switchopt.dynamics import check_assumptions

    one = Graph(1)
    assert connected(laplacian(one))
    assert jointly_connected([one]) and jointly_connected([one, one])
    net = Network(graphs=(one, one), sigma=0.0, coupling=1.0, kappa=0.0)
    pi = np.array([0.5, 0.5])
    for report in (check_assumptions(net, switching=False), check_assumptions(net, pi)):
        assert report["checks"][-1]["passed"]


def test_jointly_connected_permutation_invariant():
    import itertools

    graphs = list(SIX_GRAPHS[:4])
    results = {
        jointly_connected(list(perm)) for perm in itertools.permutations(graphs)
    }
    assert len(results) == 1


def test_stack_n1_is_identity_of_operation():
    L = laplacian(PATH3)
    assert np.array_equal(stack(L, 1), L)


def test_stack_zero_matrix():
    assert np.array_equal(stack(np.zeros((3, 3)), 2), np.zeros((6, 6)))


def test_stack_annihilates_consensus_vectors():
    rng = np.random.default_rng(0)
    L = laplacian(complete_graph(5))
    S = stack(L, 2)
    for _ in range(100):
        v = rng.normal(size=2)
        xhat = np.tile(v, 5)
        assert np.max(np.abs(S @ xhat)) <= 1e-12


def test_every_constructed_laplacian_invariants():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        pairs = set()
        for _ in range(int(rng.integers(0, n * 2))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                pairs.add((int(i), int(j)))
        L = laplacian(Graph.from_edges(n, pairs))
        assert np.max(np.abs(L - L.T)) == 0.0
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-14
        assert np.linalg.eigvalsh(L)[0] >= -1e-10


def test_graph_canonical_edges_and_validation():
    g = Graph.from_edges(3, [(2, 0)])
    assert g.edges == frozenset({(0, 2)})
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("edge", [(3, 0), (0, 3), (3, 4), (-1, 0), (0, -1)])
def test_an_endpoint_outside_the_nodes_is_refused(edge):
    # n_nodes itself is the first index past the nodes, as either endpoint
    i, j = edge
    with pytest.raises(ValueError, match=rf"^edge \({i},{j}\) outside 0\.\.2$"):
        Graph(3, frozenset([edge]))


def test_graph_of_no_nodes_builds_and_a_negative_count_is_refused():
    g = Graph(0)
    assert g.n_nodes == 0 and g.edges == frozenset()
    assert laplacian(g).shape == (0, 0)
    with pytest.raises(ValueError, match=r"^n_nodes must be a nonnegative integer, got -1$"):
        Graph(-1)


def test_one_based_edge_lists():
    g = Graph.from_edges(3, [[1, 2], [2, 3]], one_based=True)
    assert g.edges == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize("edge", [(1.5, 2), (True, 2), (1, 2.0), (np.True_, 2)],
                         ids=["fraction", "bool", "float", "numpy-bool"])
@pytest.mark.parametrize("one_based", [False, True])
def test_edge_endpoints_must_be_integers(edge, one_based):
    # 1.5 would pass the range check and fail later in adjacency; a bool
    # (True - 1 == 0 on a one-based list) would run as node 0 or 1
    with pytest.raises(ValueError, match=r"^edge endpoint .* is not an integer$"):
        Graph.from_edges(3, [edge], one_based=one_based)
    with pytest.raises(ValueError, match=r"^edge endpoint .* is not an integer$"):
        Graph(3, frozenset([edge]))


@pytest.mark.parametrize("n_nodes", [2.5, True, -1], ids=["fraction", "bool", "negative"])
def test_node_count_must_be_a_nonnegative_integer(n_nodes):
    # 2.5 built and failed later in adjacency; True ran as one node
    with pytest.raises(ValueError, match=r"^n_nodes must be a nonnegative integer, got "):
        Graph(n_nodes, frozenset({(0, 1)}))


def test_numpy_integer_endpoints_build():
    g = Graph.from_edges(3, np.array([[1, 2], [2, 3]]), one_based=True)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert np.array_equal(adjacency(g), adjacency(Graph.from_edges(3, [(0, 1), (1, 2)])))


def test_network_scalar_sigma_broadcast():
    net = Network(graphs=(PATH3,), sigma=0.25, coupling=1.0, kappa=0.5)
    assert net.sigma.shape == (3, 3)
    off = net.sigma[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.25)
    assert np.all(np.diag(net.sigma) == 0.0)


def test_network_sigma_bound_enforced():
    with pytest.raises(ValueError):
        Network(graphs=(PATH3,), sigma=0.6, coupling=1.0, kappa=0.5)


def test_network_coupling_positive():
    with pytest.raises(ValueError):
        Network(graphs=(PATH3,), sigma=0.1, coupling=0.0, kappa=0.5)


def test_receive_coeffs_direction():
    # asymmetric sigma: channel 0->1 loud, 1->0 quiet
    sigma = np.zeros((3, 3))
    sigma[0, 1] = 0.4
    sigma[1, 0] = 0.1
    net = Network(graphs=(PATH3,), sigma=sigma, coupling=1.0, kappa=0.5)
    R = net.receive[0]
    assert R[1, 0] == 0.4  # receiver 1 hears sender 0
    assert R[0, 1] == 0.1
    assert R[2, 1] == 0.0  # edge exists but sigma zero there


def test_network_mode_stacks_are_cached_read_only_and_not_fields():
    net = Network(graphs=(PATH3, Graph(3)), sigma=0.2, coupling=1.0, kappa=0.5)
    unread = pickle.dumps(net)
    assert net.laplacians is net.laplacians and net.receive is net.receive
    assert np.array_equal(net.laplacians, [laplacian(PATH3), laplacian(Graph(3))])
    assert np.array_equal(net.receive, [adjacency(g) * net.sigma.T for g in net.graphs])
    for stack in (net.laplacians, net.receive):
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 1] = 1.0
    # derived, so pickled and printed as the fields alone
    assert pickle.dumps(net) == unread
    assert "laplacians" not in repr(net) and "receive" not in repr(net)
    twin = pickle.loads(unread)
    assert np.array_equal(twin.laplacians, net.laplacians)


def test_network_equals_and_hashes_as_itself_alone():
    # its sigma is an array: a field-wise == would raise on the array's
    # truth value, and a field-wise hash on the unhashable array
    net = Network(graphs=(PATH3,), sigma=0.2, coupling=1.0, kappa=0.5)
    twin = Network(graphs=(PATH3,), sigma=0.2, coupling=1.0, kappa=0.5)
    assert net == net and net != twin and not (net == twin)
    assert len({net, twin, net}) == 2 and hash(net) == hash(net)


def test_network_keeps_its_own_read_only_sigma():
    # it stored the caller's float array: a write after construction ran a
    # sigma the constructor refuses, and the report failed its noise bound
    from switchopt.dynamics import check_assumptions

    sig = np.full((3, 3), 0.2)
    np.fill_diagonal(sig, 0.0)
    net = Network(graphs=(PATH3,), sigma=sig, coupling=1.0, kappa=0.3)
    report = check_assumptions(net)
    sig[0, 1] = 5.0
    assert net.sigma[0, 1] == 0.2 and net.receive[0][1, 0] == 0.2
    assert check_assumptions(net) == report and report["all_passed"]
    for copy in (net, pickle.loads(pickle.dumps(net))):
        with pytest.raises(ValueError, match="read-only"):
            copy.sigma[0, 1] = 5.0


@pytest.mark.parametrize("kwargs, message", [
    ({"graphs": (PATH3,), "sigma": 0.0, "kappa": -0.5}, "^kappa must be nonnegative$"),
    ({"graphs": (PATH3, Graph(4)), "sigma": 0.0, "kappa": 0.5},
     "^all switching modes must share the node count$"),
], ids=["negative-kappa", "node-counts"])
def test_network_refusals(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Network(coupling=1.0, **kwargs)


def test_network_average_refuses_the_wrong_weight_count():
    net = Network(graphs=(PATH3, Graph(3)), sigma=0.2, coupling=1.0, kappa=0.5)
    with pytest.raises(ValueError, match="^3 mode weights for 2 modes$"):
        net.average([0.2, 0.3, 0.5])


def test_jointly_connected_on_no_graphs_and_on_mixed_node_counts():
    # the network refuses both before any connectivity check
    with pytest.raises(ValueError, match="^network needs at least one graph$"):
        jointly_connected([])
    with pytest.raises(ValueError, match="^all switching modes must share the node count$"):
        jointly_connected([PATH3, Graph(4)])
