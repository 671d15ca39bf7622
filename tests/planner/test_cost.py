"""The query cache's cost-aware admission and pinning policy."""

from repro.engine.querycache import ADMIT_FLOOR_MS, CacheAdmission
from repro.obs import MetricsRegistry


def test_cache_admission_floor_and_pinning():
    admission = CacheAdmission()
    assert not admission.admit(0.001)  # cheaper than a lookup
    assert admission.admit(5.0)
    assert admission.admit(None)  # unknown cost: fail open
    assert admission.pin(5.0, hits=1)
    assert not admission.pin(5.0, hits=0)  # never hit: not hot
    assert not admission.pin(0.1, hits=9)  # cheap: not worth pinning
    assert not admission.pin(None, hits=9)  # unknown cost: never pinned


def test_cache_admission_floor_adapts_to_observed_statements():
    registry = MetricsRegistry()
    admission = CacheAdmission(registry)
    histogram = registry.histogram("hql.statement.ms")
    for _ in range(250):
        histogram.observe(10.0)
    floor = admission._floor_ms()
    assert floor > ADMIT_FLOOR_MS  # 2% of a 10ms mean beats the default floor
    assert floor <= 10.0 * ADMIT_FLOOR_MS  # but stays capped
