"""Hardware and run configuration dataclasses.

These objects describe a GRAPE-6 installation (how many chips, boards,
hosts, clusters) and the host/network environment, and are consumed both
by the functional hardware emulator (:mod:`repro.hardware`) and by the
performance simulator (:mod:`repro.perfmodel`).

The defaults correspond to the machine of the paper: a 64-board,
4-cluster system with 16 host computers (fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import constants as C


@dataclass(frozen=True)
class ChipConfig:
    """Parameters of one GRAPE-6 pipeline chip (section 2.1)."""

    clock_hz: float = C.GRAPE6_CLOCK_HZ
    pipelines: int = C.GRAPE6_PIPELINES_PER_CHIP
    vmp_ways: int = C.GRAPE6_VMP_WAYS
    jmem_capacity: int = C.GRAPE6_JMEM_PER_CHIP

    @property
    def iparallel(self) -> int:
        """i-particles served concurrently by one chip (48)."""
        return self.pipelines * self.vmp_ways

    @property
    def interactions_per_cycle(self) -> int:
        """Pairwise interactions retired per clock (one per pipeline)."""
        return self.pipelines

    @property
    def peak_flops(self) -> float:
        """Peak speed in flop/s at the 57-op accounting convention."""
        return C.FLOPS_PER_INTERACTION * self.pipelines * self.clock_hz


@dataclass(frozen=True)
class BoardConfig:
    """One processor board: 8 modules of 4 chips (figs. 4-5)."""

    chip: ChipConfig = field(default_factory=ChipConfig)
    chips_per_module: int = C.GRAPE6_CHIPS_PER_MODULE
    modules: int = C.GRAPE6_MODULES_PER_BOARD

    @property
    def chips(self) -> int:
        return self.chips_per_module * self.modules

    @property
    def peak_flops(self) -> float:
        return self.chip.peak_flops * self.chips

    @property
    def jmem_capacity(self) -> int:
        """j-particles storable on one board (chips hold disjoint sets)."""
        return self.chip.jmem_capacity * self.chips


@dataclass(frozen=True)
class HostConfig:
    """Host computer model (section 2.2 and the fig. 19 tuning study).

    ``t_step_base_us`` is the host-side cost of integrating one particle
    for one step (predictor bookkeeping, corrector, timestep update,
    scheduler) when the working set fits in cache; the cache model of
    fig. 14 inflates it for large N (see
    :class:`repro.perfmodel.host_model.HostTimeModel`).
    """

    name: str = "athlon-xp-1800"
    #: Host work per particle-step, cache-resident [microseconds].
    #: Calibrated so the single-node model hits the paper's 1 Tflops
    #: at N = 2e5 (fig. 13 anchor).
    t_step_base_us: float = 2.6
    #: Extra host work per particle-step when the particle data spill
    #: out of the L2 cache [microseconds].
    t_step_miss_us: float = 3.3
    #: Number of particles whose data fit in cache (cache-hit knee).
    cache_particles: float = 8000.0
    #: Width of the cache transition (decades in N).
    cache_width_decades: float = 0.7


@dataclass(frozen=True)
class NodeConfig:
    """One host computer plus its attached processor boards."""

    host: HostConfig = field(default_factory=HostConfig)
    board: BoardConfig = field(default_factory=BoardConfig)
    boards: int = C.GRAPE6_BOARDS_PER_HOST
    #: Fixed overhead to kick off one DMA transaction [microseconds]
    #: (the small-N floor of fig. 14: "The overhead to invoke DMA
    #: operations becomes visible").
    dma_overhead_us: float = 45.0
    #: Host-to-GRAPE interface bandwidth [MB/s] (PCI era).
    hif_bandwidth_mbs: float = 90.0

    @property
    def chips(self) -> int:
        return self.board.chips * self.boards

    @property
    def peak_flops(self) -> float:
        return self.board.peak_flops * self.boards

    @property
    def jmem_capacity(self) -> int:
        return self.board.jmem_capacity * self.boards


@dataclass(frozen=True)
class NICConfig:
    """Gigabit NIC model: round-trip latency and sustained bandwidth.

    Values from section 4.4 of the paper.
    """

    name: str
    rtt_latency_us: float
    bandwidth_mbs: float


#: The NICs studied in the paper's tuning section (4.4), plus the
#: Myrinet what-if the authors could not afford ("Myrinet would provide
#: the latency 5-10 times shorter than usual TCP/IP over Ethernet").
NIC_NS83820 = NICConfig("ns83820", rtt_latency_us=200.0, bandwidth_mbs=60.0)
NIC_TIGON2 = NICConfig("tigon2", rtt_latency_us=185.0, bandwidth_mbs=85.0)
NIC_INTEL82540EM = NICConfig("intel82540em", rtt_latency_us=67.0, bandwidth_mbs=105.0)
NIC_MYRINET = NICConfig("myrinet", rtt_latency_us=28.0, bandwidth_mbs=200.0)

NICS: dict[str, NICConfig] = {
    n.name: n for n in (NIC_NS83820, NIC_TIGON2, NIC_INTEL82540EM, NIC_MYRINET)
}


def bypass_tcpip(nic: NICConfig, latency_factor: float = 0.4) -> NICConfig:
    """Model the paper's untried software option (section 4.4): "use
    some communication software which bypasses the TCP/IP protocol
    layer, such as GAMMA or VIA".

    Kernel-bypass stacks of the era cut small-message latency by
    roughly half to two-thirds on the same hardware while leaving the
    wire bandwidth unchanged; ``latency_factor`` scales the measured
    TCP round trip accordingly.
    """
    if not 0.0 < latency_factor <= 1.0:
        raise ValueError("latency_factor must be in (0, 1]")
    return NICConfig(
        name=f"{nic.name}+bypass",
        rtt_latency_us=nic.rtt_latency_us * latency_factor,
        bandwidth_mbs=nic.bandwidth_mbs,
    )

#: The P4 host used with the Intel NIC in the fig. 19 experiment
#: ("Intel P4 2.53GHz processor, overclocked to 2.85GHz"): faster
#: per-step host work than the original Athlon.
HOST_ATHLON = HostConfig(name="athlon-xp-1800")
HOST_P4 = HostConfig(
    name="p4-2.85",
    t_step_base_us=1.4,
    t_step_miss_us=1.8,
    cache_particles=10000.0,
)


@dataclass(frozen=True)
class MachineConfig:
    """A GRAPE-6 installation: nodes organised into clusters.

    Inside a cluster the processor boards form the 2-D hardware grid of
    fig. 2 (board ij computes forces on host i's particles from host
    j's particles), so host-host bandwidth does not limit in-cluster
    force exchange; between clusters the "copy" algorithm communicates
    over the NIC (section 4.3).
    """

    node: NodeConfig = field(default_factory=NodeConfig)
    nodes_per_cluster: int = C.GRAPE6_HOSTS_PER_CLUSTER
    clusters: int = 1
    nic: NICConfig = NIC_NS83820

    @property
    def nodes(self) -> int:
        return self.nodes_per_cluster * self.clusters

    @property
    def chips(self) -> int:
        return self.node.chips * self.nodes

    @property
    def peak_flops(self) -> float:
        return self.node.peak_flops * self.nodes

    def with_nic(self, nic: NICConfig) -> "MachineConfig":
        return replace(self, nic=nic)

    def with_host(self, host: HostConfig) -> "MachineConfig":
        return replace(self, node=replace(self.node, host=host))


def single_node_machine(**kwargs) -> MachineConfig:
    """The 1-host, 4-board system of fig. 13/14."""
    return MachineConfig(nodes_per_cluster=1, clusters=1, **kwargs)


def cluster_machine(nodes: int = 4, **kwargs) -> MachineConfig:
    """An in-cluster multi-node system (fig. 15/16): up to 4 hosts whose
    boards form the 2-D hardware network."""
    if not 1 <= nodes <= 4:
        raise ValueError("a GRAPE-6 cluster has 1-4 host computers")
    return MachineConfig(nodes_per_cluster=nodes, clusters=1, **kwargs)


def full_machine(clusters: int = 4, **kwargs) -> MachineConfig:
    """Multi-cluster systems (fig. 17/18): 1, 2 or 4 clusters of 4 nodes."""
    if clusters not in (1, 2, 4):
        raise ValueError("the paper's machine has 1, 2 or 4 clusters")
    return MachineConfig(nodes_per_cluster=4, clusters=clusters, **kwargs)


def tuned_machine() -> MachineConfig:
    """The tuned system of section 4.4 — the full machine with the
    Intel 82540EM NICs and the P4 hosts: fig. 19's upper curve and the
    machine the section-5 production runs were timed on."""
    return full_machine(4).with_nic(NIC_INTEL82540EM).with_host(HOST_P4)


def grape6a_machine(**kwargs) -> MachineConfig:
    """A single-board, single-host system — the configuration later
    productised as GRAPE-6A (one 4-chip module per PCI card in the
    shipped version; here one full 32-chip board, the smallest unit of
    the paper's machine).  Useful as the minimal design point in
    scaling studies."""
    return MachineConfig(
        node=NodeConfig(boards=1), nodes_per_cluster=1, clusters=1, **kwargs
    )
