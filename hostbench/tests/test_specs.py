import itertools

from hostbench import specs


def _stream(seed, n=500):
    return list(itertools.islice(specs.simulate_stream(seed), n))


def test_same_seed_same_inputs():
    for seed in (0, 7, 12345):
        for build in specs.SWEEPS.values():
            assert build(seed) == build(seed)
        assert specs.placement_request(seed) == specs.placement_request(seed)
        assert specs.warm_simulate(seed) == specs.warm_simulate(seed)
        assert _stream(seed) == _stream(seed)


def test_other_seed_other_inputs():
    assert specs.ratio_sweep(1) != specs.ratio_sweep(2)
    assert specs.placement_request(1) != specs.placement_request(2)
    assert _stream(1) != _stream(2)


def test_grid_shapes():
    assert len(specs.ratio_sweep(0)) == 209
    constrained = specs.constrained_detailed(0)
    assert len(constrained) == 66
    assert sum(s["policy"] == "ONLINE" for s in constrained) == 6
    assert {s["engine"] for s in constrained} == {"detailed"}


def test_stream_mix_and_fresh_cold_seeds():
    stream = _stream(5, 5_000)
    cold = [body for kind, body in stream if kind == "cold"]
    assert 0.08 < len(cold) / len(stream) < 0.12
    assert len({body["seed"] for body in cold}) == len(cold)
    warm = {tuple(sorted(body.items())) for kind, body in stream
            if kind == "warm"}
    assert warm == {tuple(sorted(specs.warm_simulate(5).items()))}
    assert specs.warm_simulate(5)["seed"] not in {b["seed"] for b in cold}


def test_placement_request_is_capacity_constrained():
    body = specs.placement_request(3)
    assert len(body["sizes"]) == specs.PLACEMENT_ALLOCATIONS
    assert body["bo_capacity_bytes"] < sum(body["sizes"])
