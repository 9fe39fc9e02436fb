"""The benchmark's workloads: inputs, the public call, outputs and checks.

Each workload builds its inputs from the seed, makes one call to a public
entry point (``repro.analysis.experiments.run_scenario`` or
``repro.apps.jaguar.run_jaguar_scale``) and reads its outputs back. The
program receives only the generated inputs; nothing here changes how it
runs.

The seed feeds only draws that leave the amount of work alone: replica
placement (``seq_policies``) and per-rank compute times (``jaguar_scale``).
The partitioner keeps the program's default seed, because on
``fluid_cyclic`` the partition a seed draws changes the fluid solver's work
by up to 2x, which would bury any code change under input noise.

Program modules are imported inside the functions: ``run.py`` imports this
module without the program on its path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: jaguar_scale seed 0 is the perf history's canonical rank-time draw
JAGUAR_BASE_SEED = 20120521


@dataclass(frozen=True)
class Workload:
    name: str
    #: module holding the public entry point; its import is part of setup_s
    entry: str
    #: (seed, smoke) -> inputs; timed as part of setup_s
    build: Callable[[int, bool], Any]
    #: inputs -> result of the one public call timed as run_s
    call: Callable[[Any], Any]
    #: (inputs, result) -> deterministic outputs, equal on every rep
    outputs: Callable[[Any, Any], "dict[str, float]"]
    #: (inputs, result) -> failed check descriptions
    check: Callable[[Any, Any], "list[str]"]
    #: result -> per-layer counts the program keeps itself
    counters: Callable[[Any], "dict[str, float]"]


# -- figure scenarios through run_scenario --------------------------------------------
#
# Inputs are the keyword arguments of one run_scenario call.


def _seq_dht_inputs(seed: int, smoke: bool) -> dict:
    from repro.apps.scenarios import sequential_scenario

    producers, consumers, side = (64, (16, 48), 8) if smoke else (2048, (512, 1536), 16)
    return {"scenario": sequential_scenario(producers, consumers, task_side=side)}


def _seq_policies_inputs(seed: int, smoke: bool) -> dict:
    from repro.resilience.manager import ResilienceConfig

    kwargs = _seq_dht_inputs(seed, smoke)
    scenario = kwargs["scenario"]
    # Room for two objects per core: with a replica beside every primary,
    # each core crosses the 0.8 high watermark, so the reclaim ladder runs.
    per_task = scenario.coupled_bytes // scenario.producer.ntasks
    kwargs.update(
        resilience=ResilienceConfig(replication=2, placer_seed=seed),
        write_quorum=2, enforce_memory=True,
        memory_per_node=2 * scenario.cluster.cores_per_node * per_task,
        producer_compute=0.01, consumer_compute=0.008,
    )
    return kwargs


def _conc_direct_inputs(seed: int, smoke: bool) -> dict:
    from repro.apps.scenarios import concurrent_scenario

    producers, consumers, side = (64, 8, 8) if smoke else (4096, 512, 16)
    scenario = concurrent_scenario(producers, consumers, task_side=side)
    return {"scenario": scenario, "time_transfers": True}


def _fluid_cyclic_inputs(seed: int, smoke: bool) -> dict:
    from repro.apps.scenarios import concurrent_scenario

    producers, consumers, side = (48, 8, 8) if smoke else (192, 24, 16)
    scenario = concurrent_scenario(
        producers, consumers, task_side=side, consumer_dist="cyclic"
    )
    return {"scenario": scenario, "time_transfers": True}


def _run_scenario(kwargs: dict) -> Any:
    from repro.analysis.experiments import run_scenario

    return run_scenario(**kwargs)


def _total(registry: Any, name: str) -> float:
    return registry[name].total() if name in registry else 0


def _hit_ratio(registry: Any, stem: str) -> float:
    hits = _total(registry, stem + ".hit")
    lookups = hits + _total(registry, stem + ".miss")
    return hits / lookups if lookups else 0.0


def _scenario_outputs(kwargs: dict, result: Any) -> "dict[str, float]":
    from repro.transport.message import TransferKind

    m = result.metrics
    return {
        "sim_net_bytes": m.network_bytes(),
        "sim_shm_bytes": m.shm_bytes(),
        "sim_coupling_bytes": m.bytes(kind=TransferKind.COUPLING),
        "sim_control_bytes": m.bytes(kind=TransferKind.CONTROL),
        "sim_replication_bytes": m.bytes(kind=TransferKind.REPLICATION),
        "sim_retrieval_s": max(result.retrieval_times.values(), default=0.0),
        "sim_makespan_s": result.engine.sim.now,
        "sim_events": result.sim_events,
    }


def _scenario_check(kwargs: dict, result: Any) -> "list[str]":
    from repro.transport.message import TransferKind

    failures = []
    scenario = kwargs["scenario"]
    expected = scenario.coupled_bytes * len(scenario.consumers)
    coupled = result.metrics.bytes(kind=TransferKind.COUPLING)
    if coupled != expected:
        failures.append(f"coupling bytes {coupled} != {expected}")
    for app in scenario.consumers:
        missing = set(range(app.ntasks)) - set(result.schedules.get(app.app_id, {}))
        if missing:
            failures.append(f"app {app.app_id}: {len(missing)} ranks without a schedule")
    return failures


def _seq_policies_check(kwargs: dict, result: Any) -> "list[str]":
    failures = _scenario_check(kwargs, result)
    lost = result.space.lost_objects()
    if lost:
        failures.append(f"{len(lost)} objects lost")
    if not _total(result.registry, "mem.watermark") > 0:
        failures.append("memory watermark never tripped")
    return failures


def _scenario_counters(result: Any) -> "dict[str, float]":
    from repro.transport.message import TransferKind

    reg, m = result.registry, result.metrics
    return {
        "schedule.cache.hit_ratio": _hit_ratio(reg, "schedule.cache"),
        "schedule.bundle_cache.hit_ratio": _hit_ratio(reg, "schedule.bundle_cache"),
        "dht.lookups": _total(reg, "dht.lookups"),
        "dht.registrations": _total(reg, "dht.registrations"),
        "transport.bytes.network": m.network_bytes(),
        "transport.bytes.shm": m.shm_bytes(),
        "transport.bytes.control": m.bytes(kind=TransferKind.CONTROL),
        "transport.bytes.replication": m.bytes(kind=TransferKind.REPLICATION),
        "mem.watermark": _total(reg, "mem.watermark"),
        "sim.events_fired": result.sim_events,
    }


# -- jaguar_scale through run_jaguar_scale ---------------------------------------------


def _jaguar_inputs(seed: int, smoke: bool) -> Any:
    from repro.apps.jaguar import JaguarScaleConfig

    if smoke:
        return JaguarScaleConfig(
            num_nodes=200, ranks=2000, iterations=3, coupling_groups=20,
            cells_per_group=4096, halo_cells=256, seed=JAGUAR_BASE_SEED + seed,
        )
    # A twentieth of the canonical 10k-node run: 50k rank events. Larger
    # shapes vary more from run to run on a shared host, and a run holds
    # about a hundred reps of this one.
    return JaguarScaleConfig(
        num_nodes=500, ranks=5_000, coupling_groups=50,
        seed=JAGUAR_BASE_SEED + seed,
    )


def _run_jaguar(config: Any) -> Any:
    from repro.apps.jaguar import run_jaguar_scale

    return run_jaguar_scale(config)


def _jaguar_outputs(config: Any, result: Any) -> "dict[str, float]":
    return {
        "sim_net_bytes": result.bytes_network,
        "sim_shm_bytes": result.bytes_shm,
        "sim_retrieval_s": sum(result.coupling_times),
        "sim_makespan_s": result.makespan,
        "sim_events": result.sim_events,
    }


def _jaguar_check(config: Any, result: Any) -> "list[str]":
    failures = []
    events = config.ranks * config.iterations + config.iterations
    if result.sim_events != events:
        failures.append(f"sim_events {result.sim_events} != {events}")
    if result.bundle_hits != config.iterations - 1:
        failures.append(
            f"bundle-cache hits {result.bundle_hits} != {config.iterations - 1}"
        )
    return failures


def _jaguar_counters(result: Any) -> "dict[str, float]":
    lookups = result.bundle_hits + result.bundle_misses
    return {
        "schedule.cache.hit_ratio": 0.0,
        "schedule.bundle_cache.hit_ratio": result.bundle_hits / lookups if lookups else 0.0,
        "dht.lookups": 0,
        "dht.registrations": 0,
        "transport.bytes.network": result.bytes_network,
        "transport.bytes.shm": result.bytes_shm,
        "transport.bytes.control": 0,
        "transport.bytes.replication": 0,
        "mem.watermark": 0,
        "sim.events_fired": result.sim_events,
    }


_SCENARIO = "repro.analysis.experiments"

# Why each workload is here: BENCHMARK.json ("why") and bench/README.md.
WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload("seq_dht", _SCENARIO, _seq_dht_inputs, _run_scenario,
                 _scenario_outputs, _scenario_check, _scenario_counters),
        Workload("seq_policies", _SCENARIO, _seq_policies_inputs, _run_scenario,
                 _scenario_outputs, _seq_policies_check, _scenario_counters),
        Workload("conc_direct", _SCENARIO, _conc_direct_inputs, _run_scenario,
                 _scenario_outputs, _scenario_check, _scenario_counters),
        Workload("fluid_cyclic", _SCENARIO, _fluid_cyclic_inputs, _run_scenario,
                 _scenario_outputs, _scenario_check, _scenario_counters),
        Workload("jaguar_scale", "repro.apps.jaguar", _jaguar_inputs, _run_jaguar,
                 _jaguar_outputs, _jaguar_check, _jaguar_counters),
    )
}
