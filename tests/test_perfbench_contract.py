"""The benchmark's traced run wraps engine functions by name
(`perfbench.layers.instrument`) and its kernel phase imports engine
names (`perfbench.kernels`). Renaming one of them must fail here, in
the test suite, and not only when the benchmark's self-test runs."""

from techtalk_data_pipeline_snowpark_ray.pipelines import ingest


def test_traced_run_finds_every_engine_name():
    import perfbench.kernels  # noqa: F401 -- resolves its engine imports
    from perfbench import layers, tracing

    exchange = ingest._exchange_by_bucket
    with layers.instrument(tracing.Tracer()):
        assert ingest._exchange_by_bucket is not exchange
    assert ingest._exchange_by_bucket is exchange
