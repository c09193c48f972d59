//! System configuration mirroring Table 3 of the paper.
//!
//! [`SimConfig::baseline_64core()`] reproduces the paper's baseline: 64
//! out-of-order cores at 4 GHz, a three-level non-inclusive hierarchy, an
//! 8x8 mesh, and eight DDR4-3200 channels. [`SimConfigBuilder`] supports the
//! sensitivity sweeps (channels, cores, LLC capacity).

/// Which hardware prefetcher drives a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// Berti local-delta L1 prefetcher (MICRO '22) — the paper's main host.
    Berti,
    /// Instruction-pointer classifier prefetching (ISCA '20).
    Ipcp,
    /// Bingo spatial prefetcher (HPCA '19).
    Bingo,
    /// Signature-path prefetching with perceptron filtering (MICRO '16 + ISCA '19).
    SppPpf,
    /// Classic IP-stride prefetcher.
    IpStride,
    /// POWER4-style stream prefetcher.
    Stream,
    /// Next-line prefetcher.
    NextLine,
    /// Ensemble of Berti + SPP-PPF + next-line running concurrently under
    /// a shared degree budget; candidates are tagged with their engine so
    /// CLIP can arbitrate between sources (see `clip_prefetch::composite`).
    Composite,
}

impl PrefetcherKind {
    /// Short display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "NoPF",
            PrefetcherKind::Berti => "Berti",
            PrefetcherKind::Ipcp => "IPCP",
            PrefetcherKind::Bingo => "Bingo",
            PrefetcherKind::SppPpf => "SPP-PPF",
            PrefetcherKind::IpStride => "IP-stride",
            PrefetcherKind::Stream => "Stream",
            PrefetcherKind::NextLine => "Next-line",
            PrefetcherKind::Composite => "Composite",
        }
    }

    /// True when the prefetcher trains at the L1D (Berti, IPCP); false for
    /// L2-trained prefetchers (Bingo, SPP-PPF).
    pub fn trains_at_l1(self) -> bool {
        matches!(
            self,
            PrefetcherKind::Berti
                | PrefetcherKind::Ipcp
                | PrefetcherKind::IpStride
                | PrefetcherKind::Stream
                | PrefetcherKind::NextLine
                | PrefetcherKind::Composite
        )
    }
}

/// Cache replacement policy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least-recently-used.
    Lru,
    /// Static re-reference interval prediction (ISCA '10) — the paper's L2.
    Srrip,
    /// Mockingjay sampled-reuse Belady mimic (HPCA '22) — the paper's LLC.
    Mockingjay,
    /// Not-recently-used (cheap, used by small predictor tables).
    Nru,
    /// Dynamic insertion policy (DIP, ISCA '07): set-dueling between LRU
    /// and bimodal insertion, resistant to thrashing working sets.
    Dip,
}

/// Parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes (per slice for the LLC).
    pub capacity_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub latency: u64,
    /// Number of MSHR entries.
    pub mshrs: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheLevelConfig {
    /// Number of sets implied by capacity/ways/line size.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (crate::LINE_BYTES * self.ways)
    }

    /// Number of cache lines held.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / crate::LINE_BYTES
    }
}

/// Out-of-order core parameters (Sunny-Cove-like, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Instructions dispatched per cycle.
    pub issue_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Load queue entries (outstanding loads).
    pub load_queue: usize,
    /// Front-end refill penalty after a branch misprediction, in cycles.
    pub mispredict_penalty: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rob_entries: 512,
            issue_width: 6,
            retire_width: 4,
            load_queue: 128,
            mispredict_penalty: 15,
        }
    }
}

/// Which memory backend services misses.
///
/// The kind selects both the timing preset ([`DramConfig::preset`]) and
/// the simulation model behind the `DramModel` trait: DDR4 uses all-bank
/// lockstep refresh, HBM refreshes banks in a rolling per-bank schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DramKind {
    /// DDR4-3200 (Table 3 baseline): few wide channels, all-bank refresh.
    #[default]
    Ddr4,
    /// HBM-style stack: more, narrower channels (lower per-channel
    /// bandwidth), slightly slower array timing, per-bank refresh.
    Hbm,
}

impl DramKind {
    /// Short display name used in experiment output and env parsing.
    pub fn name(self) -> &'static str {
        match self {
            DramKind::Ddr4 => "ddr4",
            DramKind::Hbm => "hbm",
        }
    }

    /// Refresh interval in core cycles when refresh modeling is enabled:
    /// tREFI 7.8 µs for DDR4 (all-bank), 3.9 µs per bank for HBM's
    /// rolling per-bank schedule (both at the 4 GHz core clock).
    pub fn t_refi(self) -> u64 {
        match self {
            DramKind::Ddr4 => 31_200,
            DramKind::Hbm => 15_600,
        }
    }

    /// Refresh cycle time in core cycles: tRFC ~350 ns for DDR4 8 Gb
    /// parts; ~160 ns per-bank (tRFCpb) for HBM.
    pub fn t_rfc(self) -> u64 {
        match self {
            DramKind::Ddr4 => 1_400,
            DramKind::Hbm => 640,
        }
    }
}

/// DRAM subsystem parameters (DDR4-3200, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Memory backend kind (selects the model and timing family).
    pub kind: DramKind,
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size per bank in bytes.
    pub row_bytes: usize,
    /// tRP in core cycles (12.5 ns at 4 GHz = 50).
    pub t_rp: u64,
    /// tRCD in core cycles.
    pub t_rcd: u64,
    /// CAS latency in core cycles.
    pub t_cas: u64,
    /// Data-bus occupancy per 64 B line transfer, in core cycles
    /// (64 B / 25.6 GB/s at 4 GHz = 10).
    pub burst_cycles: u64,
    /// Read queue entries per channel.
    pub read_queue: usize,
    /// Write queue entries per channel.
    pub write_queue: usize,
    /// Write drain threshold as (numerator, denominator) of queue occupancy
    /// — the paper's 7/8 watermark.
    pub write_watermark: (usize, usize),
    /// Prefetch-aware scheduling (PADC): demand-first FR-FCFS with
    /// low-priority prefetches.
    pub prefetch_aware: bool,
    /// All-bank refresh interval in core cycles (tREFI; DDR4-3200's 7.8 µs
    /// is 31200 cycles at 4 GHz). `0` disables refresh modeling.
    pub t_refi: u64,
    /// Refresh cycle time in core cycles (tRFC; ~350 ns = 1400 cycles at
    /// 4 GHz for 8 Gb parts).
    pub t_rfc: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::preset(DramKind::Ddr4)
    }
}

impl DramConfig {
    /// The timing/topology preset of a backend kind. DDR4-3200 is the
    /// Table 3 baseline; the HBM preset trades per-channel bandwidth for
    /// channel count (2x channels, 2x `burst_cycles` — same aggregate
    /// peak as the DDR4 default, so backend comparisons isolate channel
    /// structure and refresh behaviour rather than raw peak bandwidth).
    pub fn preset(kind: DramKind) -> Self {
        match kind {
            DramKind::Ddr4 => DramConfig {
                kind,
                channels: 8,
                banks_per_channel: 16,
                row_bytes: 4096,
                t_rp: 50,
                t_rcd: 50,
                t_cas: 50,
                burst_cycles: 10,
                read_queue: 64,
                write_queue: 64,
                write_watermark: (7, 8),
                prefetch_aware: true,
                t_refi: 0,
                t_rfc: 1400,
            },
            DramKind::Hbm => DramConfig {
                kind,
                channels: 16,
                banks_per_channel: 32,
                row_bytes: 2048,
                t_rp: 56,
                t_rcd: 56,
                t_cas: 56,
                burst_cycles: 20,
                read_queue: 64,
                write_queue: 64,
                write_watermark: (7, 8),
                prefetch_aware: true,
                t_refi: 0,
                t_rfc: 640,
            },
        }
    }
}

/// Network-on-chip parameters (Table 3: 8x8 mesh, 2-stage wormhole routers,
/// six VCs/port, five-flit buffers, 8-flit data packets, 1-flit address
/// packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh width (nodes per row).
    pub mesh_cols: usize,
    /// Mesh height (nodes per column).
    pub mesh_rows: usize,
    /// Virtual channels per input port.
    pub virtual_channels: usize,
    /// Flit buffer depth per VC.
    pub vc_buffer_flits: usize,
    /// Flits in a data packet (carries a cache line).
    pub data_packet_flits: usize,
    /// Flits in an address/control packet.
    pub addr_packet_flits: usize,
    /// Router pipeline depth in cycles.
    pub router_stages: u64,
    /// Prefetch-aware arbitration: demand (and CLIP-critical) packets win
    /// ties against plain prefetch packets.
    pub prefetch_aware: bool,
    /// Two-node NUMA latency asymmetry on the mesh: extra cycles added to
    /// every link traversal that crosses between the two column halves of
    /// the mesh (ThunderX2-style `NUMA_NODE 2` split). `0` (the default)
    /// models a single-socket die and is behaviour-identical to a mesh
    /// without the knob.
    pub numa_penalty: u64,
    /// Tiles per chiplet for the chiplet topology (`ChipletNoc`). Must
    /// divide the core count; [`SimConfigBuilder::cores`] shrinks it to
    /// the largest divisor of the new core count. Ignored by the mesh
    /// and analytic fabrics.
    pub chiplet_cluster: usize,
    /// Die-to-die crossing latency in cycles for the chiplet topology
    /// (wire + PHY, paid once per inter-chiplet packet).
    pub d2d_latency: u64,
    /// Die-to-die serialization in cycles per flit: the crossing is
    /// narrower than an on-die link, so every flit of an inter-chiplet
    /// packet occupies the chiplet's d2d port this many cycles.
    pub d2d_flit_cycles: u64,
}

impl NocConfig {
    /// Most virtual channels per input port the flit-level mesh supports:
    /// a router tracks its 5 ports × VCs input buffers in one 64-bit
    /// occupancy mask.
    pub const MAX_VIRTUAL_CHANNELS: usize = 12;
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            mesh_cols: 8,
            mesh_rows: 8,
            virtual_channels: 6,
            vc_buffer_flits: 5,
            data_packet_flits: 8,
            addr_packet_flits: 1,
            router_stages: 2,
            prefetch_aware: true,
            numa_penalty: 0,
            chiplet_cluster: 4,
            d2d_latency: 24,
            d2d_flit_cycles: 4,
        }
    }
}

/// Complete system configuration (Table 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of cores (and LLC slices / mesh tiles).
    pub cores: usize,
    /// Core parameters.
    pub core: CoreConfig,
    /// L1 data cache (48 KB, 12-way, 5 cycles, 8 MSHRs).
    pub l1d: CacheLevelConfig,
    /// Private L2 (512 KB, 8-way, 10 cycles, 32 MSHRs, SRRIP).
    pub l2: CacheLevelConfig,
    /// LLC slice per core (2 MB, 16-way, 20 cycles, 64 MSHRs, Mockingjay).
    pub llc_slice: CacheLevelConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// NoC parameters.
    pub noc: NocConfig,
    /// L1 prefetcher selection.
    pub l1_prefetcher: PrefetcherKind,
    /// L2 prefetcher selection.
    pub l2_prefetcher: PrefetcherKind,
}

impl SimConfig {
    /// The paper's baseline 64-core system with eight DDR4-3200 channels
    /// (Table 3) and no prefetching.
    pub fn baseline_64core() -> Self {
        SimConfig {
            cores: 64,
            core: CoreConfig::default(),
            l1d: CacheLevelConfig {
                capacity_bytes: 48 * 1024,
                ways: 12,
                latency: 5,
                mshrs: 8,
                replacement: ReplacementKind::Lru,
            },
            l2: CacheLevelConfig {
                capacity_bytes: 512 * 1024,
                ways: 8,
                latency: 10,
                mshrs: 32,
                replacement: ReplacementKind::Srrip,
            },
            llc_slice: CacheLevelConfig {
                capacity_bytes: 2 * 1024 * 1024,
                ways: 16,
                latency: 20,
                mshrs: 64,
                replacement: ReplacementKind::Mockingjay,
            },
            dram: DramConfig::default(),
            noc: NocConfig::default(),
            l1_prefetcher: PrefetcherKind::None,
            l2_prefetcher: PrefetcherKind::None,
        }
    }

    /// Starts a builder seeded with the baseline configuration.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: Self::baseline_64core(),
        }
    }

    /// Validates internal consistency (power-of-two sets, mesh covers
    /// cores, legal NoC buffering, non-zero widths).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("cores must be non-zero"));
        }
        if self.noc.mesh_cols * self.noc.mesh_rows < self.cores {
            return Err(ConfigError::new("mesh is smaller than the core count"));
        }
        for (name, c) in [
            ("l1d", &self.l1d),
            ("l2", &self.l2),
            ("llc", &self.llc_slice),
        ] {
            if c.ways == 0 || c.sets() == 0 {
                return Err(ConfigError::new(format!("{name}: zero sets or ways")));
            }
            if !c.sets().is_power_of_two() {
                return Err(ConfigError::new(format!(
                    "{name}: set count {} is not a power of two",
                    c.sets()
                )));
            }
        }
        if self.dram.channels == 0 || !self.dram.channels.is_power_of_two() {
            return Err(ConfigError::new("dram channels must be a power of two"));
        }
        if self.noc.virtual_channels == 0 {
            return Err(ConfigError::new("noc virtual channels must be non-zero"));
        }
        if self.noc.virtual_channels > NocConfig::MAX_VIRTUAL_CHANNELS {
            return Err(ConfigError::new(format!(
                "noc virtual channels {} exceed the mesh's limit of {}",
                self.noc.virtual_channels,
                NocConfig::MAX_VIRTUAL_CHANNELS
            )));
        }
        if self.noc.vc_buffer_flits == 0 {
            return Err(ConfigError::new(
                "noc vc buffers must hold at least one flit",
            ));
        }
        if self.noc.chiplet_cluster == 0 {
            return Err(ConfigError::new("chiplet cluster size must be non-zero"));
        }
        if !self.cores.is_multiple_of(self.noc.chiplet_cluster) {
            return Err(ConfigError::new(
                "chiplet cluster size must divide the core count",
            ));
        }
        if self.core.issue_width == 0 || self.core.retire_width == 0 {
            return Err(ConfigError::new("core widths must be non-zero"));
        }
        Ok(())
    }

    /// Peak DRAM bandwidth in bytes per core cycle across all channels.
    pub fn dram_peak_bytes_per_cycle(&self) -> f64 {
        self.dram.channels as f64 * crate::LINE_BYTES as f64 / self.dram.burst_cycles as f64
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::baseline_64core()
    }
}

/// Builder for [`SimConfig`], used by the sensitivity studies.
///
/// # Examples
///
/// ```
/// use clip_types::{PrefetcherKind, SimConfig};
///
/// let cfg = SimConfig::builder()
///     .cores(8)
///     .dram_channels(4)
///     .l1_prefetcher(PrefetcherKind::Berti)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.cores, 8);
/// assert_eq!(cfg.dram.channels, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the core count (mesh shrinks to the smallest square that fits;
    /// the chiplet cluster shrinks to the largest divisor of `n` so the
    /// cluster-divides-cores invariant keeps holding).
    pub fn cores(mut self, n: usize) -> Self {
        self.config.cores = n;
        let mut side = 1usize;
        while side * side < n {
            side += 1;
        }
        self.config.noc.mesh_cols = side;
        self.config.noc.mesh_rows = side.max(n.div_ceil(side));
        if n != 0 {
            self.config.noc.chiplet_cluster = gcd(self.config.noc.chiplet_cluster.max(1), n);
        }
        self
    }

    /// Sets the number of DRAM channels.
    pub fn dram_channels(mut self, n: usize) -> Self {
        self.config.dram.channels = n;
        self
    }

    /// Sets the LLC slice capacity per core, in bytes.
    pub fn llc_slice_bytes(mut self, bytes: usize) -> Self {
        self.config.llc_slice.capacity_bytes = bytes;
        self
    }

    /// Sets the private L2 capacity, in bytes.
    pub fn l2_bytes(mut self, bytes: usize) -> Self {
        self.config.l2.capacity_bytes = bytes;
        self
    }

    /// Selects the L1 prefetcher.
    pub fn l1_prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.config.l1_prefetcher = kind;
        self
    }

    /// Selects the L2 prefetcher.
    pub fn l2_prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.config.l2_prefetcher = kind;
        self
    }

    /// Overrides the ROB size.
    pub fn rob_entries(mut self, n: usize) -> Self {
        self.config.core.rob_entries = n;
        self
    }

    /// Switches the memory backend: replaces the whole DRAM block with the
    /// kind's preset (channels, timing, refresh family). Call before any
    /// per-field DRAM override — notably [`SimConfigBuilder::dram_channels`]
    /// and [`SimConfigBuilder::dram_refresh`] — so those apply on top.
    pub fn dram_backend(mut self, kind: DramKind) -> Self {
        self.config.dram = DramConfig::preset(kind);
        self
    }

    /// Enables DRAM refresh modeling with the selected backend's timings
    /// (DDR4: all-bank tREFI 7.8 µs / tRFC 350 ns; HBM: per-bank tREFI
    /// 3.9 µs / tRFCpb 160 ns — at the 4 GHz core clock). Derived from
    /// [`DramKind`] so an HBM config is never silently DDR4-paced.
    pub fn dram_refresh(mut self, on: bool) -> Self {
        self.config.dram.t_refi = if on {
            self.config.dram.kind.t_refi()
        } else {
            0
        };
        self.config.dram.t_rfc = self.config.dram.kind.t_rfc();
        self
    }

    /// Sets the mesh's two-node NUMA crossing penalty in cycles
    /// (`0` = single socket, the default).
    pub fn numa_penalty(mut self, cycles: u64) -> Self {
        self.config.noc.numa_penalty = cycles;
        self
    }

    /// Sets the chiplet cluster size (tiles per die) for the chiplet
    /// topology. Must divide the core count at [`SimConfigBuilder::build`].
    pub fn chiplet_cluster(mut self, tiles: usize) -> Self {
        self.config.noc.chiplet_cluster = tiles;
        self
    }

    /// Enables or disables prefetch-aware NoC and DRAM scheduling.
    pub fn prefetch_aware(mut self, on: bool) -> Self {
        self.config.dram.prefetch_aware = on;
        self.config.noc.prefetch_aware = on;
        self
    }

    /// Finalises and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when an invariant is violated (see
    /// [`SimConfig::validate`]).
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Error returned when a configuration fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table3() {
        let c = SimConfig::baseline_64core();
        assert_eq!(c.cores, 64);
        assert_eq!(c.core.rob_entries, 512);
        assert_eq!(c.core.issue_width, 6);
        assert_eq!(c.core.retire_width, 4);
        assert_eq!(c.l1d.capacity_bytes, 48 * 1024);
        assert_eq!(c.l1d.ways, 12);
        assert_eq!(c.l1d.latency, 5);
        assert_eq!(c.l1d.mshrs, 8);
        assert_eq!(c.l2.capacity_bytes, 512 * 1024);
        assert_eq!(c.llc_slice.capacity_bytes, 2 * 1024 * 1024);
        assert_eq!(c.dram.channels, 8);
        assert_eq!(c.noc.mesh_cols, 8);
        assert_eq!(c.noc.mesh_rows, 8);
        c.validate().expect("baseline must validate");
    }

    #[test]
    fn l1d_has_768_lines_as_paper_states() {
        // §4.2: "768 cache lines at the L1D".
        let c = SimConfig::baseline_64core();
        assert_eq!(c.l1d.lines(), 768);
    }

    #[test]
    fn sets_math() {
        let c = SimConfig::baseline_64core();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.llc_slice.sets(), 2048);
    }

    #[test]
    fn builder_shrinks_mesh_for_small_systems() {
        let c = SimConfig::builder().cores(8).build().unwrap();
        assert!(c.noc.mesh_cols * c.noc.mesh_rows >= 8);
        assert!(c.noc.mesh_cols <= 4);
    }

    #[test]
    fn builder_rejects_zero_cores() {
        let mut b = SimConfig::builder();
        b.config.cores = 0;
        assert!(b.build().is_err());
    }

    #[test]
    fn validate_rejects_zero_virtual_channels() {
        let mut c = SimConfig::baseline_64core();
        c.noc.virtual_channels = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_virtual_channels_above_the_mesh_limit() {
        let mut c = SimConfig::baseline_64core();
        c.noc.virtual_channels = NocConfig::MAX_VIRTUAL_CHANNELS;
        c.validate().expect("the limit itself is legal");
        c.noc.virtual_channels = NocConfig::MAX_VIRTUAL_CHANNELS + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_vc_buffer_depth() {
        let mut c = SimConfig::baseline_64core();
        c.noc.vc_buffer_flits = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_rejects_non_pow2_channels() {
        let r = SimConfig::builder().dram_channels(6).build();
        assert!(r.is_err());
    }

    #[test]
    fn peak_bandwidth_scales_with_channels() {
        let c8 = SimConfig::builder().dram_channels(8).build().unwrap();
        let c64 = SimConfig::builder().dram_channels(64).build().unwrap();
        assert!(
            (c64.dram_peak_bytes_per_cycle() / c8.dram_peak_bytes_per_cycle() - 8.0).abs() < 1e-9
        );
        // 8 channels * 64B / 10cyc = 51.2 B/cycle at 4 GHz = 204.8 GB/s.
        assert!((c8.dram_peak_bytes_per_cycle() - 51.2).abs() < 1e-9);
    }

    #[test]
    fn prefetcher_kind_names_and_levels() {
        assert_eq!(PrefetcherKind::Berti.name(), "Berti");
        assert!(PrefetcherKind::Berti.trains_at_l1());
        assert!(!PrefetcherKind::SppPpf.trains_at_l1());
        assert!(!PrefetcherKind::Bingo.trains_at_l1());
        // The ensemble drives the L1 slot: its Berti/next-line members
        // train on L1 accesses and the shared budget gates at one level.
        assert_eq!(PrefetcherKind::Composite.name(), "Composite");
        assert!(PrefetcherKind::Composite.trains_at_l1());
    }

    #[test]
    fn config_clone_eq() {
        let c = SimConfig::baseline_64core();
        let c2 = c.clone();
        assert_eq!(c, c2);
    }

    #[test]
    fn hbm_preset_trades_channel_width_for_count() {
        let ddr4 = DramConfig::preset(DramKind::Ddr4);
        let hbm = DramConfig::preset(DramKind::Hbm);
        assert_eq!(hbm.kind, DramKind::Hbm);
        assert!(hbm.channels > ddr4.channels);
        // Lower per-channel bandwidth (more cycles per line burst)...
        assert!(hbm.burst_cycles > ddr4.burst_cycles);
        // ...but the same aggregate peak, so backend comparisons isolate
        // channel structure rather than raw bandwidth.
        let peak = |d: &DramConfig| d.channels as f64 / d.burst_cycles as f64;
        assert!((peak(&hbm) - peak(&ddr4)).abs() < 1e-9);
    }

    #[test]
    fn dram_refresh_follows_backend_timing() {
        let ddr4 = SimConfig::builder().dram_refresh(true).build().unwrap();
        assert_eq!(ddr4.dram.t_refi, 31_200);
        assert_eq!(ddr4.dram.t_rfc, 1_400);
        let hbm = SimConfig::builder()
            .dram_backend(DramKind::Hbm)
            .dram_refresh(true)
            .build()
            .unwrap();
        assert_eq!(hbm.dram.t_refi, 15_600);
        assert_eq!(hbm.dram.t_rfc, 640);
        let off = SimConfig::builder()
            .dram_backend(DramKind::Hbm)
            .dram_refresh(false)
            .build()
            .unwrap();
        assert_eq!(off.dram.t_refi, 0);
    }

    #[test]
    fn cluster_size_must_divide_cores() {
        let bad = SimConfig::builder().cores(8).chiplet_cluster(3).build();
        assert!(bad.is_err());
        let zero = SimConfig::builder().chiplet_cluster(0).build();
        assert!(zero.is_err());
        let ok = SimConfig::builder()
            .cores(8)
            .chiplet_cluster(4)
            .build()
            .unwrap();
        assert_eq!(ok.noc.chiplet_cluster, 4);
    }

    #[test]
    fn builder_cores_shrinks_cluster_to_a_divisor() {
        // Default cluster is 4; one- and two-core configs must still build.
        for n in [1usize, 2, 4, 6, 8, 64] {
            let c = SimConfig::builder().cores(n).build().unwrap();
            assert_eq!(c.cores % c.noc.chiplet_cluster, 0, "cores {n}");
        }
        assert_eq!(
            SimConfig::builder()
                .cores(2)
                .build()
                .unwrap()
                .noc
                .chiplet_cluster,
            2
        );
        assert_eq!(
            SimConfig::builder()
                .cores(6)
                .build()
                .unwrap()
                .noc
                .chiplet_cluster,
            2
        );
    }

    #[test]
    fn numa_penalty_defaults_inert() {
        assert_eq!(SimConfig::baseline_64core().noc.numa_penalty, 0);
        let c = SimConfig::builder().numa_penalty(40).build().unwrap();
        assert_eq!(c.noc.numa_penalty, 40);
    }
}
