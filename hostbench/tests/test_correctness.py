import dataclasses

from hostbench import serve_load, specs
from hostbench.sweeps import load_golden, mismatches


def test_perturbed_sweep_result_is_counted():
    from repro.runner import encode_result, execute_spec, make_spec
    from repro.runner import result_digest

    result = execute_spec(make_spec("bfs", "LOCAL", trace_accesses=5_000))
    digest = result_digest(encode_result(result))[:16]
    sim = dataclasses.replace(result.sim,
                              total_time_ns=result.sim.total_time_ns * 1.01)
    perturbed = result_digest(encode_result(
        dataclasses.replace(result, sim=sim)))[:16]
    assert perturbed != digest
    assert mismatches([digest, digest], [digest, digest]) == 0
    assert mismatches([digest, perturbed], [digest, digest]) == 1
    assert mismatches([digest], [digest, digest]) == 1


def test_golden_covers_every_slot_and_spec():
    for workload, build in specs.SWEEPS.items():
        for slot in range(specs.SEED_SLOTS):
            assert len(load_golden(workload, slot)) == len(build(slot))


def test_perturbed_serve_replies_are_counted():
    body = specs.placement_request(0)
    hints = serve_load.expected_hints(body)
    request = {"workload": "bfs", "policy": "LOCAL",
               "trace_accesses": 5_000, "seed": 11, "engine": "throughput"}
    expected = serve_load.expected_result(request)
    reply = {"spec": expected["spec"], "result": expected["result"]}
    good = [
        serve_load.Sample("placement", 200, 0.001, {"hints": hints}),
        serve_load.Sample("cold", 200, 0.01, reply, request),
    ]
    assert serve_load.count_wrong(good, body) == 0

    slower = dict(reply["result"], time_ms=reply["result"]["time_ms"] * 1.01)
    bound = ("compute" if reply["result"]["dominant_bound"] != "compute"
             else "latency")
    wrong_bound = dict(reply["result"], dominant_bound=bound)
    fractions = reply["result"]["placement_fractions"]
    moved = dict(reply["result"],
                 placement_fractions=[fractions[0] + 0.01] + fractions[1:])
    flipped = ["CO" if h == "BO" else "BO" for h in hints]
    bad = good + [
        serve_load.Sample("placement", 200, 0.001, {"hints": flipped}),
        serve_load.Sample("warm", 200, 0.01,
                          dict(reply, result=slower), request),
        serve_load.Sample("warm", 200, 0.01,
                          dict(reply, result=wrong_bound), request),
        serve_load.Sample("warm", 200, 0.01,
                          dict(reply, result=moved), request),
        serve_load.Sample("placement", 503, 0.001),
        serve_load.Sample("cold", 0, 0.01, {}, request),
    ]
    assert serve_load.count_wrong(bad, body) == 6
