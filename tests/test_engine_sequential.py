"""The sequential loop's process-level contracts: it pauses the cyclic
garbage collector only for its own duration, and its summary path
(``keep_configs=False``) explores exactly the space the full path does
while keeping only keys plus the terminal and stuck configurations."""

import gc

import pytest

from repro.engine import ExplorationEngine
from repro.engine.core import explore_sequential
from repro.litmus.catalog import LITMUS_TESTS
from repro.semantics.canon import canonical_key


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever a test leaves behind."""
    enabled = gc.isenabled()
    threshold = gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()


class _Boom(Exception):
    pass


class TestGarbageCollectorState:
    def test_enabled_on_entry(self, gc_state):
        gc.enable()
        threshold = gc.get_threshold()
        frozen = gc.get_freeze_count()
        during = []
        explore_sequential(
            LITMUS_TESTS[0].build(),
            on_config=lambda cfg: during.append(gc.isenabled()),
        )
        assert during and not any(during)  # paused for the whole loop
        assert gc.isenabled()
        assert gc.get_threshold() == threshold
        assert gc.get_freeze_count() == frozen

    def test_disabled_by_caller(self, gc_state):
        gc.disable()
        threshold = gc.get_threshold()
        explore_sequential(LITMUS_TESTS[0].build())
        assert not gc.isenabled()
        assert gc.get_threshold() == threshold

    def test_on_config_raising_mid_loop(self, gc_state):
        gc.enable()
        threshold = gc.get_threshold()
        calls = []

        def probe(cfg):
            calls.append(cfg)
            if len(calls) == 3:
                raise _Boom

        with pytest.raises(_Boom):
            explore_sequential(LITMUS_TESTS[0].build(), on_config=probe)
        assert len(calls) == 3
        assert gc.isenabled()
        assert gc.get_threshold() == threshold

    def test_callers_frozen_objects_stay_frozen(self, gc_state):
        gc.enable()
        gc.freeze()
        try:
            explore_sequential(LITMUS_TESTS[0].build())
            assert gc.get_freeze_count() > 0
            assert gc.isenabled()
        finally:
            gc.unfreeze()


def _signature(result, test):
    return (
        result.state_count,
        result.edge_count,
        result.truncated,
        len(result.stuck),
        result.terminal_locals(*test.regs),
    )


class TestSummaryPathParity:
    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    def test_catalog(self, test, reduction):
        engine = ExplorationEngine(reduction=reduction)
        full = engine.explore(test.build(), keep_configs=True)
        lean = engine.explore(test.build(), keep_configs=False)
        assert _signature(lean, test) == _signature(full, test)
        assert full.state_total is None
        assert lean.state_total == len(full.configs)
        # Only the configurations a verdict consumes, under their keys.
        program = lean.program
        sinks = lean.terminals + lean.stuck
        assert lean.configs == {canonical_key(program, c): c for c in sinks}

    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    def test_truncated(self, reduction):
        test = max(LITMUS_TESTS, key=lambda t: len(t.build().tids))
        engine = ExplorationEngine(reduction=reduction, max_states=6)
        full = engine.explore(test.build(), keep_configs=True)
        lean = engine.explore(test.build(), keep_configs=False)
        assert full.truncated and lean.truncated
        assert _signature(lean, test) == _signature(full, test)
        assert lean.state_count == 6
