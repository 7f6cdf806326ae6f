"""Every GraphML document a test writes must be the networkx writer's bytes and read back as the network."""
import pytest

from oracles import networkx_graphml
from wardflow import network


@pytest.fixture(autouse=True)
def graphml_matches_networkx(monkeypatch):
    original = network._export_graphml

    def checked(net):
        payload = original(net)
        assert payload == networkx_graphml(net)
        back = network.import_network(payload, "graphml")
        categories = {node: c for node, c in (net.categories or {}).items() if node in net.nodes}
        assert back == net and back.categories == (categories or None)
        return payload

    monkeypatch.setattr(network, "_export_graphml", checked)
