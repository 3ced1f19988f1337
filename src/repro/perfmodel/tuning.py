"""Configuration tuning: pick the machine that maximises speed at a
given problem size.

The "tuning" of the paper's title covers two levers, both modelled
here:

* **configuration choice** — figs. 15/17 show that more hardware is
  slower below the crossovers; :func:`best_configuration` automates
  the paper's recommendation (run small problems on fewer
  nodes/clusters);
* **component choice** — section 4.4 swaps NICs and hosts;
  :func:`tuning_ladder` ranks the upgrade steps the paper took (and
  the ones it could not afford) by their payoff at a given N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import (
    MachineConfig,
    NIC_INTEL82540EM,
    NIC_MYRINET,
    NIC_TIGON2,
    bypass_tcpip,
    cluster_machine,
    full_machine,
    single_node_machine,
    tuned_machine,
)
from .machine_model import MachineModel, crossover


@dataclass(frozen=True)
class ConfigurationChoice:
    """One candidate configuration and its modelled speed."""

    label: str
    machine: MachineConfig
    speed_gflops: float


#: The machine sizes the paper benchmarks (figs. 13, 15, 17), label ->
#: factory, smallest first.  The figure table's series
#: (:data:`repro.figures.FIGURES`) draw their machines and display
#: labels from here.
STANDARD_CONFIGURATIONS: dict[str, Callable[[], MachineConfig]] = {
    "1 node": single_node_machine,
    "2 nodes": lambda: cluster_machine(2),
    "4 nodes (1 cluster)": lambda: cluster_machine(4),
    "8 nodes (2 clusters)": lambda: full_machine(2),
    "16 nodes (4 clusters)": lambda: full_machine(4),
}


def best_configuration(
    n: int, softening: str = "constant", **model_kwargs
) -> list[ConfigurationChoice]:
    """Rank the standard machine sizes by modelled speed at N.

    Returns choices sorted fastest-first; configurations whose
    j-memory cannot hold N are skipped.
    """
    choices = []
    for label, factory in STANDARD_CONFIGURATIONS.items():
        machine = factory()
        model = MachineModel(machine, softening=softening, **model_kwargs)
        try:
            speed = model.speed_gflops(n)
        except ValueError:
            continue  # j-memory capacity exceeded
        choices.append(ConfigurationChoice(label, machine, speed))
    if not choices:
        raise ValueError(f"no configuration can hold N={n}")
    return sorted(choices, key=lambda c: c.speed_gflops, reverse=True)


def crossover_table(softening: str = "constant") -> list[tuple[str, int | None]]:
    """N above which each configuration first beats the previous size
    (the machine operator's cheat sheet implied by figs. 15/17)."""
    models = {
        label: MachineModel(factory(), softening=softening)
        for label, factory in STANDARD_CONFIGURATIONS.items()
    }
    labels = list(models)
    return [
        (f"{label} > {prev}", crossover(models[label], models[prev], 500, 2.0e6))
        for prev, label in zip(labels, labels[1:])
    ]


def tuning_ladder(n: int = 1_800_000) -> list[tuple[str, float]]:
    """Section 4.4's upgrade path, modelled at the paper's headline N:
    each rung swaps one component of the 16-node machine.

    Returns (label, Tflops) in the order the paper discusses them.
    """
    rungs = [
        ("NS 83820 + Athlon (original)", full_machine(4)),
        ("Tigon 2 + Athlon", full_machine(4).with_nic(NIC_TIGON2)),
        ("Intel 82540EM + Athlon", full_machine(4).with_nic(NIC_INTEL82540EM)),
        ("Intel 82540EM + P4 2.85 (the paper's tuned system)", tuned_machine()),
        (
            "+ TCP/IP bypass (GAMMA/VIA, untried)",
            tuned_machine().with_nic(bypass_tcpip(NIC_INTEL82540EM, 0.4)),
        ),
        (
            "Myrinet + P4 (unaffordable that year)",
            tuned_machine().with_nic(NIC_MYRINET),
        ),
    ]
    out = []
    for label, machine in rungs:
        out.append((label, MachineModel(machine).speed_gflops(n) / 1e3))
    return out
