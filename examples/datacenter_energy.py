#!/usr/bin/env python3
"""Datacenter energy study: subflows vs energy overhead across topologies.

Reproduces the core of the paper's Figs. 12-14 story at example scale:
every host sends one long-lived LIA flow to a random peer on a FatTree, a
VL2 and a BCube fabric; we sweep the subflow count and report joules per
delivered gigabyte. BCube (server-centric) keeps improving with subflows;
the hierarchical fabrics do not.

Run:  python examples/datacenter_energy.py
"""

from repro.analysis.report import format_table
from repro.fluidsim import FluidNetwork, FluidSimulation
from repro.topology import BCube, FatTree, Vl2
from repro.units import ms


def energy_per_gb(topology, n_subflows: int, *, duration: float = 20.0,
                  seed: int = 1) -> float:
    net = FluidNetwork.permutation(topology, "lia", n_subflows=n_subflows,
                                   seed=seed)
    sim = FluidSimulation(net, dt=0.004, seed=seed)
    return sim.run(duration).energy_per_gb()


def main() -> None:
    factories = {
        "fattree(k=4)": lambda: FatTree(4, link_delay=ms(1)),
        "vl2(small)": lambda: Vl2(n_tor=8, hosts_per_tor=2, n_agg=4, n_int=4,
                                  link_delay=ms(1)),
        "bcube(4,2)": lambda: BCube(4, 2, link_delay=ms(1)),
    }
    counts = (1, 2, 4, 8)
    columns = []
    for name, factory in factories.items():
        columns.append([round(energy_per_gb(factory(), n)) for n in counts])
        print(f"done: {name}")
    print()
    print("energy overhead (J per delivered GB) vs subflow count:")
    print(format_table(["subflows", *factories],
                       list(zip(counts, *columns))))


if __name__ == "__main__":
    main()
