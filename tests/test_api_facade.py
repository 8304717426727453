"""The ``repro.api`` facade and its execution configuration."""

import warnings

import pytest

import repro
from repro import api
from repro.blocking import QGramsBlocking, TokenBlocking
from repro.core.execution import ExecutionConfig
from repro.datamodel import BlockCollection
from repro.datasets import paper_example_dataset
from repro.incremental import IncrementalMetaBlocking
from repro.serve import ResolverServer


class TestFacadeSurface:
    def test_api_module_is_exposed_at_the_root(self):
        assert repro.api is api
        for name in ("build_index", "meta_block", "stream_resolver", "serve"):
            assert callable(getattr(api, name))
            assert callable(getattr(repro, name))
            assert name in repro.__all__

    def test_build_index(self):
        dataset = paper_example_dataset()
        blocks = api.build_index(dataset)
        assert isinstance(blocks, BlockCollection)
        unpurged = api.build_index(dataset, purge=False)
        assert len(unpurged) >= len(blocks)

    def test_build_index_accepts_method_instances(self):
        dataset = paper_example_dataset()
        by_name = api.build_index(dataset, blocking="qgrams", purge=False)
        by_instance = api.build_index(
            dataset, blocking=QGramsBlocking(), purge=False
        )
        assert len(by_name) == len(by_instance)

    def test_build_index_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown blocking method"):
            api.build_index(paper_example_dataset(), blocking="nope")

    def test_meta_block_round_trip(self):
        dataset = paper_example_dataset()
        blocks = api.build_index(dataset)
        result = api.meta_block(blocks, scheme="CBS", algorithm="CNP")
        assert len(result.comparisons) > 0

    def test_stream_resolver(self):
        resolver = api.stream_resolver(scheme="CBS", k=2, batch_size=4)
        assert isinstance(resolver, IncrementalMetaBlocking)
        assert resolver.scheme.name == "CBS"
        assert resolver.k == 2
        assert resolver.batch_size == 4
        with pytest.raises(ValueError, match="unknown blocking method"):
            api.stream_resolver(blocking="nope")

    def test_stream_resolver_accepts_method_instances(self):
        resolver = api.stream_resolver(blocking=TokenBlocking())
        assert isinstance(resolver, IncrementalMetaBlocking)

    def test_serve_returns_unstarted_server(self):
        server = api.serve(host="127.0.0.1")
        assert isinstance(server, ResolverServer)
        assert isinstance(server.resolver, IncrementalMetaBlocking)
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        custom = api.serve(
            api.stream_resolver(scheme="CBS"), path="/tmp/unused.sock"
        )
        assert custom.resolver.scheme.name == "CBS"


class TestDeprecationPolicy:
    def test_execution_config_is_the_quiet_path(self):
        blocks = api.build_index(paper_example_dataset())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.meta_block(
                blocks, algorithm="CNP", execution=ExecutionConfig(parallel=1)
            )

    def test_wire_protocol_execution_round_trip(self):
        execution = ExecutionConfig(
            parallel=2,
            compact_ratio=0.5,
            batch_size=8,
        )
        resolver = api.stream_resolver(execution=execution)
        wire = resolver.stats()["execution"]
        assert ExecutionConfig.from_dict(wire) == execution
