//! Performance counters collected during a kernel launch.

use crate::config::GpuConfig;
use crate::context::SimContext;
use g80_isa::InstClass;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Why the issue unit of an SM was idle.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum StallReason {
    /// All warps waiting on global/local/texture memory results.
    Memory,
    /// All warps waiting on arithmetic pipeline results.
    AluDependency,
    /// All warps parked at a barrier.
    Barrier,
    /// Warps exist but their issue slots are busy (multi-cycle instructions).
    IssueBusy,
    /// No resident work (tail of the grid).
    Drain,
}

/// An enum whose variants index a dense tally (`ALL[k.index()] == k`): the
/// key of a [`KernelStats`] map, which travels sorted by this index.
pub trait TallyKey: Copy + Eq + Hash + 'static {
    /// Every variant, in index order.
    const ALL: &'static [Self];
    /// The variant's slot in a dense tally.
    fn index(self) -> usize;
}

impl TallyKey for InstClass {
    const ALL: &'static [Self] = &InstClass::ALL;
    fn index(self) -> usize {
        InstClass::index(self)
    }
}

impl TallyKey for StallReason {
    const ALL: &'static [Self] = &[
        Self::Memory,
        Self::AluDependency,
        Self::Barrier,
        Self::IssueBusy,
        Self::Drain,
    ];
    fn index(self) -> usize {
        self as usize
    }
}

/// The nonzero slots of a dense tally, as the map [`KernelStats`] keeps.
fn nonzero<K: TallyKey>(counts: &[u64]) -> HashMap<K, u64> {
    let slots = K::ALL.iter().copied().zip(counts.iter().copied());
    slots.filter(|&(_, n)| n > 0).collect()
}

/// Declares the summable counters once, in wire order, and derives from the
/// one list: [`SmStats`] and [`KernelStats`], the period delta
/// ([`SmStats::delta_since`], [`SmStats::add_delta`]), [`KernelStats::merge`],
/// [`KernelStats::accumulate`] and the stats' [`Wire`](crate::wire::Wire)
/// layout. An entry's doc comment documents both structs' field.
macro_rules! kernel_counters {
    ($($(#[$doc:meta])* $f:ident),+ $(,)?) => {
        /// Counters for one SM; merged into [`KernelStats`] after the launch.
        /// The per-class and per-reason tallies are dense, so the hot loop
        /// bumps an array slot.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct SmStats {
            /// Cycles until this SM drained.
            pub cycles: u64,
            $($(#[$doc])* pub $f: u64,)+
            /// Warp instructions issued, by [`InstClass::index`].
            pub by_class: [u64; InstClass::COUNT],
            /// Idle issue cycles, by [`StallReason`] index.
            pub stall_cycles: [u64; StallReason::ALL.len()],
        }

        impl SmStats {
            /// Counter increments since `base`, an earlier clone of this
            /// struct: what one steady-state period adds, which block-class
            /// dedup fast-forwards. `cycles` stays 0; the timed engine
            /// shifts its clock itself.
            pub(crate) fn delta_since(&self, base: &SmStats) -> SmStats {
                SmStats {
                    cycles: 0,
                    $($f: self.$f - base.$f,)+
                    by_class: std::array::from_fn(|i| self.by_class[i] - base.by_class[i]),
                    stall_cycles: std::array::from_fn(|i| {
                        self.stall_cycles[i] - base.stall_cycles[i]
                    }),
                }
            }

            /// Adds every counter of `d` but `cycles`: a period delta from
            /// [`SmStats::delta_since`], or one SM into a launch total.
            pub(crate) fn add_delta(&mut self, d: &SmStats) {
                $(self.$f += d.$f;)+
                for (n, dn) in self.by_class.iter_mut().zip(d.by_class) {
                    *n += dn;
                }
                for (n, dn) in self.stall_cycles.iter_mut().zip(d.stall_cycles) {
                    *n += dn;
                }
            }

            /// Every counter but `cycles`, array slots included.
            #[cfg(test)]
            fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> + '_ {
                [$(&mut self.$f),+]
                    .into_iter()
                    .chain(&mut self.by_class)
                    .chain(&mut self.stall_cycles)
            }
        }

        /// Aggregated result of a kernel launch: every counter but `cycles`
        /// is summed over SMs.
        #[derive(Clone, Debug)]
        pub struct KernelStats {
            /// Kernel name.
            pub name: String,
            /// Elapsed cycles (max over SMs — the kernel finishes when its
            /// slowest SM drains).
            pub cycles: u64,
            /// Elapsed wall-clock seconds on the simulated machine.
            pub elapsed: f64,
            $($(#[$doc])* pub $f: u64,)+
            /// Dynamic warp-instruction counts by class.
            pub by_class: HashMap<InstClass, u64>,
            /// Idle issue cycles by reason, summed over SMs.
            pub stall_cycles: HashMap<StallReason, u64>,

            // ---- static/launch-derived ----
            /// Registers per thread of the launched kernel.
            pub regs_per_thread: u32,
            /// Shared memory per block in bytes.
            pub smem_per_block: u32,
            /// Threads per block.
            pub threads_per_block: u32,
            /// Blocks resident per SM under the occupancy limits.
            pub blocks_per_sm: u32,
            /// Maximum simultaneously active threads across the chip (Table 3
            /// column: min(grid size, capacity)).
            pub max_simultaneous_threads: u32,
            /// Total threads launched.
            pub total_threads: u64,

            pub(crate) clock_ghz: f64,
            pub(crate) dram_bytes_per_cycle: f64,
            pub(crate) num_sms: u32,
            pub(crate) max_warps_per_sm: u32,
            pub(crate) warp_size: u32,
        }

        impl KernelStats {
            /// Sums the SMs' counters; `cycles` is the slowest SM's. A class
            /// or reason enters its map only with a nonzero total.
            #[allow(clippy::too_many_arguments)] // internal constructor fed by launch()
            pub(crate) fn merge(
                name: &str,
                cfg: &GpuConfig,
                per_sm: Vec<SmStats>,
                regs_per_thread: u32,
                smem_per_block: u32,
                threads_per_block: u32,
                blocks_per_sm: u32,
                total_blocks: u64,
            ) -> Self {
                let mut t = SmStats::default();
                for sm in &per_sm {
                    t.cycles = t.cycles.max(sm.cycles);
                    t.add_delta(sm);
                }
                KernelStats {
                    name: name.to_string(),
                    cycles: t.cycles,
                    elapsed: t.cycles as f64 / (cfg.clock_ghz * 1e9),
                    $($f: t.$f,)+
                    by_class: nonzero(&t.by_class),
                    stall_cycles: nonzero(&t.stall_cycles),
                    regs_per_thread,
                    smem_per_block,
                    threads_per_block,
                    blocks_per_sm,
                    max_simultaneous_threads: (blocks_per_sm * cfg.num_sms)
                        .min(total_blocks as u32)
                        * threads_per_block,
                    total_threads: total_blocks * threads_per_block as u64,
                    clock_ghz: cfg.clock_ghz,
                    dram_bytes_per_cycle: cfg.dram_bytes_per_cycle(),
                    num_sms: cfg.num_sms,
                    max_warps_per_sm: cfg.max_warps_per_sm(),
                    warp_size: cfg.warp_size,
                }
            }

            /// Folds another launch's counters into this one (for
            /// time-stepped applications that relaunch a kernel per step:
            /// cycles and traffic add; static occupancy fields keep the
            /// first launch's values).
            pub fn accumulate(&mut self, other: &KernelStats) {
                self.cycles += other.cycles;
                self.elapsed += other.elapsed;
                $(self.$f += other.$f;)+
                for (k, v) in &other.by_class {
                    *self.by_class.entry(*k).or_insert(0) += v;
                }
                for (k, v) in &other.stall_cycles {
                    *self.stall_cycles.entry(*k).or_insert(0) += v;
                }
            }
        }

        // The full stats, the `pub(crate)` machine constants included (which
        // is why the layout lives in this crate); the maps go last. The disk
        // tier appends its write-delta after these bytes; reports embed them
        // last.
        crate::wire_layout! {
            struct KernelStats {
                name: String,
                cycles: u64,
                elapsed: f64,
                $($f: u64,)+
                regs_per_thread: u32,
                smem_per_block: u32,
                threads_per_block: u32,
                blocks_per_sm: u32,
                max_simultaneous_threads: u32,
                total_threads: u64,
                clock_ghz: f64,
                dram_bytes_per_cycle: f64,
                num_sms: u32,
                max_warps_per_sm: u32,
                warp_size: u32,
                by_class: HashMap<InstClass, u64>,
                stall_cycles: HashMap<StallReason, u64>,
            }
        }
    };
}

kernel_counters! {
    /// Dynamic warp instructions issued.
    warp_instructions,
    /// Dynamic thread instructions (warp instructions × active lanes).
    thread_instructions,
    /// Floating-point operations executed (FMA = 2).
    flops,
    /// Global memory read transactions.
    global_ld_transactions,
    /// Global memory write transactions.
    global_st_transactions,
    /// Bytes moved to/from DRAM.
    global_bytes,
    /// Half-warp global accesses that met the coalescing rules.
    coalesced_half_warps,
    /// Half-warp global accesses that did not.
    uncoalesced_half_warps,
    /// Extra issue cycles serialized by shared-memory bank conflicts.
    smem_conflict_extra_cycles,
    /// Warp branches where the warp split.
    divergent_branches,
    /// Texture cache hits.
    tex_hits,
    /// Texture cache misses.
    tex_misses,
    /// Constant cache hits.
    const_hits,
    /// Constant cache misses.
    const_misses,
    /// Atomic transactions to memory.
    atomic_transactions,
    /// Thread blocks executed.
    blocks_executed,
}

impl SmStats {
    #[inline]
    pub(crate) fn count_inst(&mut self, class: InstClass, active_lanes: u32, flops: u32) {
        self.warp_instructions += 1;
        self.thread_instructions += active_lanes as u64;
        self.flops += flops as u64 * active_lanes as u64;
        self.by_class[class.index()] += 1;
    }

    #[inline]
    pub(crate) fn stall(&mut self, reason: StallReason, cycles: u64) {
        self.stall_cycles[reason.index()] += cycles;
    }
}

impl KernelStats {
    /// Achieved GFLOPS over the kernel execution.
    pub fn gflops(&self) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.flops as f64 / self.elapsed / 1e9
        }
    }

    /// Achieved DRAM bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.global_bytes as f64 / self.elapsed / 1e9
        }
    }

    /// The paper's Table 3 "GPU global-memory-to-computation cycle ratio":
    /// cycles the DRAM interface is busy divided by cycles the issue units
    /// are busy.
    pub fn global_to_compute_ratio(&self) -> f64 {
        let mem_cycles = self.global_bytes as f64 / self.dram_bytes_per_cycle;
        let issue_cycles = (self.warp_instructions * 4) as f64 / self.num_sms as f64;
        if issue_cycles == 0.0 {
            0.0
        } else {
            mem_cycles / issue_cycles
        }
    }

    /// Fraction of half-warp global accesses that were coalesced.
    pub fn coalesced_fraction(&self) -> f64 {
        let t = self.coalesced_half_warps + self.uncoalesced_half_warps;
        if t == 0 {
            1.0
        } else {
            self.coalesced_half_warps as f64 / t as f64
        }
    }

    /// Fraction of dynamic warp instructions that are f32 FMAs.
    pub fn fma_fraction(&self) -> f64 {
        if self.warp_instructions == 0 {
            return 0.0;
        }
        self.by_class.get(&InstClass::Fma).copied().unwrap_or(0) as f64
            / self.warp_instructions as f64
    }

    /// Achieved occupancy: resident warps relative to the machine's
    /// per-SM warp-context maximum (24 on the G80).
    pub fn occupancy(&self) -> f64 {
        let warps_per_block = self.threads_per_block.div_ceil(self.warp_size);
        (self.blocks_per_sm * warps_per_block) as f64 / self.max_warps_per_sm as f64
    }

    /// Total idle issue cycles.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.values().sum()
    }
}

/// Defines one family of context tallies: a `Copy` snapshot struct of `u64`
/// fields with `since` and the wire layout both [`crate::report`] and the
/// serve protocol use, and its atomic twin owned by a
/// [`crate::SimContext`]. The field order is the wire order.
macro_rules! counters {
    ($(#[$meta:meta])* $name:ident / $tally:ident { $($(#[$fmeta:meta])* $field:ident),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64),+
        }

        impl $name {
            /// Component-wise saturating difference (`self - earlier`), for
            /// attributing a window from two snapshots of one context.
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $($field: self.$field.saturating_sub(earlier.$field)),+ }
            }
        }

        crate::wire_layout!(struct $name { $($field: u64),+ });

        /// The live tallies a context's snapshots are read from.
        #[derive(Default)]
        pub(crate) struct $tally {
            $(pub(crate) $field: AtomicU64),+
        }

        impl $tally {
            pub(crate) fn snapshot(&self) -> $name {
                $name { $($field: self.$field.load(Relaxed)),+ }
            }

            /// Adds a locally accumulated tally (flushed once per SM run or
            /// event, never per instruction, to keep atomics off the hot
            /// path).
            pub(crate) fn add(&self, delta: &$name) {
                $(if delta.$field != 0 {
                    self.$field.fetch_add(delta.$field, Relaxed);
                })+
            }
        }
    };
}

counters! {
    /// Snapshot of a context's redundancy-elimination counters.
    MemoCounters / MemoTally {
        /// Launches answered from the in-process LRU memo cache without
        /// simulating.
        hits,
        /// Memo-eligible launches that had to simulate (and were recorded).
        /// Launches answered by the disk tier are neither hits nor misses
        /// here; they count in [`MemoCounters::disk_hits`].
        misses,
        /// Launches answered from the persistent disk tier
        /// ([`crate::SimConfig::disk_dir`]) after missing the LRU.
        disk_hits,
        /// Disk-tier probes that found no usable entry (absent, corrupt, or
        /// version-skewed). Zero while the tier is disabled.
        disk_misses,
        /// Disk entries removed: corrupt/version-skewed files evicted on
        /// load plus files removed by byte-budget compaction.
        disk_evictions,
        /// Blocks whose timing was fast-forwarded by block-class dedup.
        dedup_fast_blocks,
        /// Blocks fully simulated in dedup-enabled launches.
        dedup_sim_blocks,
        /// Period replays that failed verification and fell back to full
        /// simulation.
        dedup_fallbacks,
    }
}

counters! {
    /// Row-shape counters of a context: how many warp-instruction executions
    /// resolved through each [`g80_isa::LaneRow`] shape (`uniform`/`affine` =
    /// folded in O(1) or served by a closed-form memory-degree formula;
    /// `full` = evaluated eagerly across all lanes).
    ///
    /// Only the timed engine tallies: blocks that witness replay or donor-SM
    /// reuse skip add nothing, so the totals fall as more of a launch
    /// replays while the shaped fraction stays a property of the kernel.
    ///
    /// Deliberately *not* part of [`KernelStats`]: golden stats must stay
    /// bit-identical across engines (the reference engine never folds), so
    /// host-side attribution lives in this separate, monotonically
    /// increasing tally. Diff [`row_counters`] around a launch to attribute
    /// a single run.
    RowCounters / RowTally {
        /// Executions resolved through a `Uniform` row shape.
        uniform,
        /// Executions resolved through an `Affine` row shape.
        affine,
        /// Executions that fell back to eager full-row evaluation.
        full,
    }
}

counters! {
    /// Transport-fault counters of a context: what the `g80-serve` network
    /// layer survived. Lives here (not in the serve crate) so
    /// [`crate::report`] can snapshot it into every [`crate::LaunchReport`]
    /// without a dependency cycle. The serve crate's transport layer is the
    /// only writer; an in-process-only simulation leaves every field at
    /// zero.
    NetCounters / NetTally {
        /// Connection losses observed mid-conversation (peer vanished,
        /// socket error, or an injected disconnect/truncation), on either
        /// end.
        disconnects,
        /// Request frames resent on a still-open connection after the peer
        /// reported frame corruption (typed `BadFrame`) or a response frame
        /// failed its CRC locally.
        frames_retried,
        /// Payload bytes re-sent across all frame retries and reconnect
        /// replays.
        bytes_resent,
        /// Successful reconnect-and-replay cycles (a fresh connection plus
        /// a replayed in-flight request after a disconnect).
        reconnects,
    }
}

/// Snapshot of the current context's redundancy-elimination counters.
pub fn memo_counters() -> MemoCounters {
    SimContext::current().metrics.memo.snapshot()
}

/// Snapshot of the current context's row-shape counters.
pub fn row_counters() -> RowCounters {
    SimContext::current().metrics.rows.snapshot()
}

/// Snapshot of the current context's transport-fault counters.
pub fn net_counters() -> NetCounters {
    SimContext::current().metrics.net.snapshot()
}

/// Tallies one observed connection loss (serve transport layer).
pub fn note_net_disconnect() {
    SimContext::current().metrics.net.add(&NetCounters {
        disconnects: 1,
        ..Default::default()
    });
}

/// Tallies one same-connection frame retry of `payload_bytes` resent.
pub fn note_net_frame_retried(payload_bytes: u64) {
    SimContext::current().metrics.net.add(&NetCounters {
        frames_retried: 1,
        bytes_resent: payload_bytes,
        ..Default::default()
    });
}

/// Tallies one reconnect-and-replay cycle of `payload_bytes` resent.
pub fn note_net_reconnect(payload_bytes: u64) {
    SimContext::current().metrics.net.add(&NetCounters {
        reconnects: 1,
        bytes_resent: payload_bytes,
        ..Default::default()
    });
}

impl MemoCounters {
    /// Hit fraction over all memo-cache probes, counting both tiers (0 when
    /// none).
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.disk_hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

impl RowCounters {
    /// Tallies one execution of the given shape.
    #[inline]
    pub(crate) fn tally(&mut self, shape: &g80_isa::LaneRow) {
        match shape {
            g80_isa::LaneRow::Uniform(_) => self.uniform += 1,
            g80_isa::LaneRow::Affine { .. } => self.affine += 1,
            g80_isa::LaneRow::Full => self.full += 1,
        }
    }

    /// Total executions attributed across all shapes.
    pub fn total(&self) -> u64 {
        self.uniform + self.affine + self.full
    }
}

impl NetCounters {
    /// Component-wise saturating sum — merges the client-observed and
    /// daemon-reported deltas of one request. With an in-process daemon
    /// the two ends may share one context, so daemon-noted events can
    /// appear in both views; the sum is a monotone upper bound, not an
    /// exact attribution.
    pub fn saturating_add(&self, other: &NetCounters) -> NetCounters {
        NetCounters {
            disconnects: self.disconnects.saturating_add(other.disconnects),
            frames_retried: self.frames_retried.saturating_add(other.frames_retried),
            bytes_resent: self.bytes_resent.saturating_add(other.bytes_resent),
            reconnects: self.reconnects.saturating_add(other.reconnects),
        }
    }

    /// True when any fault was observed in this snapshot/delta.
    pub fn any(&self) -> bool {
        *self != NetCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(cycles: u64, flops: u64) -> KernelStats {
        let cfg = GpuConfig::geforce_8800_gtx();
        let sm = SmStats {
            cycles,
            flops,
            warp_instructions: 100,
            thread_instructions: 3200,
            global_bytes: 4096,
            ..Default::default()
        };
        KernelStats::merge("d", &cfg, vec![sm], 10, 0, 256, 3, 8)
    }

    #[test]
    fn merge_takes_max_cycles_and_sums_counters() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let a = SmStats {
            cycles: 100,
            flops: 10,
            ..Default::default()
        };
        let b = SmStats {
            cycles: 250,
            flops: 20,
            ..Default::default()
        };
        let s = KernelStats::merge("m", &cfg, vec![a, b], 8, 0, 128, 2, 4);
        assert_eq!(s.cycles, 250); // slowest SM
        assert_eq!(s.flops, 30);
        assert_eq!(s.max_simultaneous_threads, 4 * 128); // grid-limited
        assert_eq!(s.total_threads, 4 * 128);

        // Only nonzero classes and reasons enter the maps: the pinned bytes
        // and the golden stats hold that sparse form.
        let (mut a, mut b) = (SmStats::default(), SmStats::default());
        a.count_inst(InstClass::Fma, 32, 2);
        a.stall(StallReason::Memory, 7);
        b.count_inst(InstClass::Fma, 16, 2);
        b.count_inst(InstClass::Exit, 32, 0);
        let s = KernelStats::merge("m", &cfg, vec![a, SmStats::default(), b], 8, 0, 128, 2, 4);
        let classes = HashMap::from([(InstClass::Fma, 2), (InstClass::Exit, 1)]);
        assert_eq!(s.by_class, classes);
        assert_eq!(s.stall_cycles, HashMap::from([(StallReason::Memory, 7)]));
        assert_eq!((s.warp_instructions, s.thread_instructions), (3, 80));
        assert_eq!(s.flops, 96);

        // A period delta added back reproduces every counter and array slot,
        // and holds exactly what each one gained.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..100 {
            let mut base = SmStats {
                cycles: next() >> 24,
                ..Default::default()
            };
            base.counters_mut().for_each(|c| *c = next() >> 24);
            let mut now = base.clone();
            now.cycles += next() >> 40;
            let gains: Vec<u64> = now
                .counters_mut()
                .map(|c| {
                    let g = next() % 3 * (next() >> 44);
                    *c += g;
                    g
                })
                .collect();
            let mut d = now.delta_since(&base);
            assert_eq!(d.cycles, 0);
            assert_eq!(d.counters_mut().map(|c| *c).collect::<Vec<_>>(), gains);
            let mut back = SmStats {
                cycles: now.cycles,
                ..base
            };
            back.add_delta(&d);
            assert_eq!(back, now);
        }
    }

    #[test]
    fn accumulate_adds_cycles_for_multi_launch_apps() {
        let mut a = dummy(1000, 500);
        let b = dummy(2000, 700);
        let (e1, e2) = (a.elapsed, b.elapsed);
        a.accumulate(&b);
        assert_eq!(a.cycles, 3000);
        assert_eq!(a.flops, 1200);
        assert!((a.elapsed - (e1 + e2)).abs() < 1e-12);
        assert_eq!(a.warp_instructions, 200);
    }

    #[test]
    fn derived_metrics_behave() {
        let s = dummy(1350, 2700); // 1 us at 1.35 GHz
        assert!((s.elapsed - 1e-6).abs() < 1e-12);
        assert!((s.gflops() - 2.7e-3 / 1e-6 / 1e3).abs() < 1e-9);
        assert!(s.bandwidth_gbps() > 0.0);
        assert!((s.occupancy() - 1.0).abs() < 1e-9); // 3 blocks * 8 warps / 24
        assert_eq!(s.coalesced_fraction(), 1.0); // no accesses recorded
    }
}
