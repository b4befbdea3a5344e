import hashlib

import pytest

from sfvs import PreconditionError, independence_at_most
from sfvs.fileformat import emit_instance, parse_instance
from sfvs.generate import clique_chunks, generate_instance
from sfvs.graph import Graph
from sfvs.reductions import TripartiteGraph, reduce_vc3_to_nmc

# sha256 of emit_instance(generate_instance(*args)): a seed fixes the bytes
EMITTED = [
    pytest.param((0, 2, 0.5, 1, "sfvs", 0.3, 1),
                 "70d4d3aa6c1b8e080473d358a81199813d85444cc1af7c1a7fad6c161be16898",
                 id="n=0"),
    # three of the eight cliques are empty
    pytest.param((5, 8, 0.5, 2, "nmcdt", 0.4, 1),
                 "3a26e6ac6c15cf46e7314f3b2ab385008527e9e5ba903ea5dfd68588f165123a",
                 id="alpha>n"),
    pytest.param((12, 3, 0.0, 3, "sfvs", 0.5, 1),
                 "bc6f76b5d3462ad432c2eb7c1a0dfeb047cffd4f2301aece5d68b581d7caded7",
                 id="p=0"),
    pytest.param((12, 3, 1.0, 4, "nmc", 0.3, 1),
                 "8d2bdcad9235d2477cedec146f87eb7891118b6970f2c7d8bf81b91085cf4b28",
                 id="p=1"),
    pytest.param((14, 3, 0.4, 5, "wsfvs", 0.5, 5),
                 "944933140502e5f237a8c5c43e579d5ca7637536b77880a3575db554c4817171",
                 id="wmax=5"),
    pytest.param((11, 2, 0.5, 6, "wnmcdt", 0.4, 3),
                 "75dac83c58ef501ecca0040b1fe50a214a5495c145969a8d86d6a9fb0c1e8f2b",
                 id="wnmcdt"),
    pytest.param((10, 2, 0.3, 8, "fvs", 0.3, 1),
                 "140ce88928a6f27d7646a52962daaa3b36735f73ecc91b79f75e6dac8436cd63",
                 id="fvs"),
    # the size of the benchmark's nmc-large instances
    pytest.param((149, 2, 0.6, 7, "nmc", 0.02, 1),
                 "f09f3e89743f4e6819202b515a049d2c089da37914440811f8b5e48d46c8a8ca",
                 id="nmc-large"),
]


class TestGenerator:
    def test_alpha_bound_holds_for_every_seed(self):
        for seed in range(60):
            d = 1 + seed % 3
            inst = generate_instance(
                9, alpha=d, p=0.3, seed=seed, kind="sfvs", special_frac=0.5
            )
            assert independence_at_most(inst.graph, d), (seed, d)

    def test_same_seed_same_instance(self):
        a = generate_instance(10, 3, 0.5, 99, "wsfvs", 0.4, wmax=7)
        b = generate_instance(10, 3, 0.5, 99, "wsfvs", 0.4, wmax=7)
        assert a == b
        assert emit_instance(a) == emit_instance(b)

    def test_roundtrips_through_the_file_format(self):
        inst = generate_instance(8, 2, 0.4, 5, "nmcdt", 0.6, wmax=3)
        assert parse_instance(emit_instance(inst)) == inst

    def test_alpha_one_is_complete(self):
        inst = generate_instance(6, 1, 0.0, 3, "sfvs")
        assert len(inst.graph.edges) == 15

    def test_p_one_is_complete(self):
        inst = generate_instance(6, 3, 1.0, 3, "sfvs")
        assert len(inst.graph.edges) == 15

    def test_special_fraction_is_respected(self):
        inst = generate_instance(10, 2, 0.5, 4, "nmc", special_frac=0.3)
        assert len(inst.special) == 3

    def test_weights_stay_in_range(self):
        inst = generate_instance(12, 3, 0.5, 8, "wsfvs", wmax=4)
        assert all(1 <= inst.graph.weight(v) <= 4 for v in inst.graph.vertices())

    @pytest.mark.parametrize("args,digest", EMITTED)
    def test_emitted_bytes_are_pinned(self, args, digest):
        inst = generate_instance(*args)
        assert hashlib.sha256(emit_instance(inst).encode()).hexdigest() == digest
        g = inst.graph
        weights = {v: g.weight(v) for v in g.vertices()}
        assert g == Graph(g.n, g.edge_pairs(), weights)

    def test_emitted_reduction_is_pinned(self):
        edges = [(1, 3), (1, 6), (2, 4), (2, 7), (3, 6), (4, 7), (5, 6)]
        tg = TripartiteGraph(Graph(7, edges), ((1, 2), (3, 4, 5), (6, 7)))
        assert emit_instance(reduce_vc3_to_nmc(tg, 3).instance) == (
            "p nmc 10 19\n"
            "e 1 2\ne 1 3\ne 1 6\ne 1 8\ne 2 4\ne 2 7\ne 2 8\n"
            "e 3 4\ne 3 5\ne 3 6\ne 3 9\ne 4 5\ne 4 7\ne 4 9\n"
            "e 5 6\ne 5 9\ne 6 7\ne 6 10\ne 7 10\n"
            "set 8 9 10\nk 3\n"
        )

    def test_chunks_are_near_equal(self):
        sizes = [len(c) for c in clique_chunks(11, 3)]
        assert sorted(sizes) == [3, 4, 4]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, alpha=2, p=0.5, seed=0, kind="sfvs"),
            dict(n=3, alpha=0, p=0.5, seed=0, kind="sfvs"),
            dict(n=3, alpha=2, p=1.5, seed=0, kind="sfvs"),
            dict(n=3, alpha=2, p=0.5, seed=0, kind="sfvs", special_frac=2.0),
            dict(n=3, alpha=2, p=0.5, seed=0, kind="sfvs", wmax=0),
            dict(n=3, alpha=2, p=0.5, seed=0, kind="mwc"),
        ],
    )
    def test_bad_parameters_are_rejected(self, kwargs):
        with pytest.raises(PreconditionError):
            generate_instance(**kwargs)
