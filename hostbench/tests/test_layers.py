import types

import pytest

from hostbench import layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _module():
    """A throwaway module whose functions advance a fake clock."""
    clock = FakeClock()
    mod = types.ModuleType("fake_layers")

    def leaf(seconds):
        clock.now += seconds
        return seconds

    def middle():
        clock.now += 1.0           # own work
        mod.leaf(2.0)              # nested wrapped call
        clock.now += 0.5           # own work
        mod.leaf(0.25)
        return "done"

    def outer():
        clock.now += 0.125
        return mod.middle()

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    return mod, clock


def _targets(mod):
    return (("outer", mod, "outer", None), ("middle", mod, "middle", None),
            ("leaf", mod, "leaf", None))


@pytest.fixture
def fake(monkeypatch):
    mod, clock = _module()
    monkeypatch.setattr(layers, "_resolve",
                        lambda module, path: (module, path))
    return mod, clock


def test_self_time_excludes_nested_wrapped_calls(fake):
    mod, clock = fake
    timer = layers.LayerClock(clock)
    with layers.Installed(timer, _targets(mod)):
        assert mod.outer() == "done"
    st = timer.stats
    assert st["leaf"].calls == 2 and st["leaf"].self_s == 2.25
    assert st["middle"].total_s == 3.75 and st["middle"].self_s == 1.5
    assert st["outer"].total_s == 3.875 and st["outer"].self_s == 0.125
    # self times partition the outermost call's wall time
    assert sum(s.self_s for s in st.values()) == st["outer"].total_s


def test_wrappers_restored_after_run_and_after_error(fake):
    mod, clock = fake
    originals = (mod.outer, mod.middle, mod.leaf)
    installed = layers.Installed(layers.LayerClock(clock), _targets(mod))
    with installed:
        assert mod.leaf is not originals[2]
    assert (mod.outer, mod.middle, mod.leaf) == originals
    assert installed.is_restored()

    installed = layers.Installed(layers.LayerClock(clock), _targets(mod))
    with pytest.raises(RuntimeError):
        with installed:
            raise RuntimeError("boom")
    assert (mod.outer, mod.middle, mod.leaf) == originals
    assert installed.is_restored()


def test_partial_install_is_rolled_back(fake):
    mod, clock = fake
    originals = (mod.outer, mod.middle)
    bad = _targets(mod)[:2] + (("missing", mod, "no_such_attr", None),)
    with pytest.raises(KeyError):
        with layers.Installed(layers.LayerClock(clock), bad):
            pass
    assert (mod.outer, mod.middle) == originals


def test_program_layers_wrap_and_restore():
    import importlib

    originals = []
    for _, module_name, path, _ in layers.TARGETS:
        owner, attr = layers._resolve(module_name, path)
        originals.append((owner, attr, owner.__dict__[attr]))
    clock = layers.LayerClock()
    installed = layers.Installed(clock)
    with installed:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
        from repro.runner import make_spec

        sweep = importlib.import_module("repro.runner.sweep")
        sweep.execute_spec(
            make_spec("bfs", "BW-AWARE", trace_accesses=5_000, seed=3))
    assert installed.is_restored()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    assert clock.stats["vm.place_all"].calls == 1
    assert clock.stats["gpu.simulate.throughput"].counts["accesses"] > 0
    metrics = layers.layer_metrics(clock.stats,
                                   clock.stats["experiment.run"].total_s)
    assert metrics["bench.unattributed_s"] == pytest.approx(0.0, abs=1e-9)


def test_completion_gaps_cover_each_call(fake):
    mod, clock = fake
    stamps = layers.CompletionClock(clock)
    installed = layers.Installed(stamps, (("leaf", mod, "leaf", None),))
    clock.now = 10.0
    with installed:
        mod.outer()
    assert installed.is_restored()
    assert stamps.instants == [13.125, 13.875]
    assert stamps.gaps(10.0) == [3.125, 0.75]
