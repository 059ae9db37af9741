//! The repository benchmark (see `README.md` beside this crate).
//!
//! Four workloads, each run serially in one process as a closed loop: one
//! client, back-to-back executions, `sim_threads = 1`. An *execution* is
//! one sweep point as a user pays for it: generate the XC source, compile
//! it, boot a [`Machine`] and run it to exit. Every execution is checked
//! against an oracle and against the first execution of the same input.

pub mod layers;
pub mod trace;

use std::hint::black_box;
use std::time::{Duration, Instant};

use ccsvm::{HostPhases, Machine, Outcome, ProtocolKind, RunReport, SbStats, SystemConfig};
use ccsvm_engine::{SplitMix64, Stats};
use ccsvm_workloads as wl;
use wl::barnes_hut::BhParams;
use wl::matmul::MatmulParams;

/// Inputs per run. Executions cycle through them, so a run's medians
/// average over several inputs instead of resting on one Barnes-Hut tree
/// shape, whose event count alone moves by about 5% from seed to seed.
pub const INPUTS: usize = 4;

/// Calibration sort time on the reference host. Host timings are reported
/// scaled to a host on which one calibration sort takes this long.
pub const CALIBRATION_REF_S: f64 = 400e-6;

/// A fixed sort that shares no code with the simulator, timed around every
/// execution to track how fast the host runs at that moment.
///
/// On a shared host the speed of every process drifts, by up to 2x over
/// minutes. Over 7 s windows the sort's time moved with the simulator's
/// (correlation 0.93 to 0.97), so dividing by it removes most of the drift.
pub struct Calibration {
    input: Vec<u64>,
    scratch: Vec<u64>,
}

impl Calibration {
    /// 20,000 pseudo-random integers, about 0.4 ms to sort.
    pub fn new() -> Calibration {
        let mut rng = SplitMix64::new(0x5EED);
        let input: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
        Calibration {
            scratch: Vec::with_capacity(input.len()),
            input,
        }
    }

    /// Seconds one sort of the fixed input takes now.
    pub fn measure(&mut self) -> f64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.input);
        let t = Instant::now();
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        t.elapsed().as_secs_f64()
    }
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::new()
    }
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// CPU-only matmul whose operands fit the CPU L1: core and superblock
    /// path, no uncore traffic to speak of.
    CpuL1Resident,
    /// xthreads matmul on the paper's chip and protocol: SIMT MTTOP path,
    /// decode, PortLog merge and TLB walks.
    MttopMatmul,
    /// Barnes-Hut under snooping MESI: irregular read sharing, broadcast
    /// probes and invalidations.
    CoherenceBh,
    /// The same program under Dragon write-update: stores to shared lines
    /// broadcast word updates.
    UpdateBh,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CpuL1Resident,
        Workload::MttopMatmul,
        Workload::CoherenceBh,
        Workload::UpdateBh,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuL1Resident => "cpu_l1_resident",
            Workload::MttopMatmul => "mttop_matmul",
            Workload::CoherenceBh => "coherence_bh",
            Workload::UpdateBh => "update_bh",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The coherence protocol the workload runs under.
    pub fn protocol(self) -> ProtocolKind {
        match self {
            Workload::CpuL1Resident | Workload::MttopMatmul => ProtocolKind::Directory,
            Workload::CoherenceBh => ProtocolKind::MesiSnoop,
            Workload::UpdateBh => ProtocolKind::Dragon,
        }
    }

    /// Whether core execution, rather than the uncore, dominates host time.
    pub fn core_bound(self) -> bool {
        matches!(self, Workload::CpuL1Resident | Workload::MttopMatmul)
    }

    /// The XC source for the input with guest seed `seed`.
    pub fn source(self, seed: u64) -> String {
        match self {
            Workload::CpuL1Resident => wl::matmul::cpu_source(&MatmulParams::new(48, seed)),
            Workload::MttopMatmul => wl::matmul::xthreads_source(&MatmulParams::new(32, seed)),
            Workload::CoherenceBh | Workload::UpdateBh => {
                wl::barnes_hut::xthreads_source(&BhParams::new(128, seed))
            }
        }
    }

    /// The exit code a correct run of input `seed` returns.
    pub fn oracle(self, seed: u64) -> u64 {
        match self {
            Workload::CpuL1Resident => wl::matmul::reference_checksum(&MatmulParams::new(48, seed)),
            Workload::MttopMatmul => wl::matmul::reference_checksum(&MatmulParams::new(32, seed)),
            Workload::CoherenceBh | Workload::UpdateBh => {
                wl::barnes_hut::oracle_checksum(&BhParams::new(128, seed))
            }
        }
    }

    /// The paper's chip under this workload's protocol, serial.
    pub fn config(self, host_profile: bool) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default();
        cfg.protocol = self.protocol();
        cfg.sim_threads = 1;
        cfg.host_profile = host_profile;
        cfg
    }
}

/// The guest seeds of a run's inputs: `seed` itself (its low 31 bits),
/// then seeds drawn from it. All stay below 2^31 so they print as plain XC
/// integer literals.
pub fn input_seeds(seed: u64) -> [u64; INPUTS] {
    let mut rng = SplitMix64::new(seed);
    let mut seeds = [seed & 0x7fff_ffff; INPUTS];
    for s in &mut seeds[1..] {
        *s = rng.next_u64() & 0x7fff_ffff;
    }
    seeds
}

/// One execution and the host instants around each public call it made.
pub struct Execution {
    /// Start, source generated, program compiled, machine booted, run ended.
    pub marks: [Instant; 5],
    /// What `Machine::run` returned.
    pub report: RunReport,
    /// Host phase timers (all zero unless `host_profile` was on).
    pub phases: HostPhases,
    /// Superblock cache counters.
    pub sb: SbStats,
}

impl Execution {
    /// Source generation, compilation and `Machine::new`.
    pub fn setup(&self) -> Duration {
        self.marks[3] - self.marks[0]
    }

    /// `Machine::run` alone.
    pub fn host(&self) -> Duration {
        self.marks[4] - self.marks[3]
    }
}

/// Generates, compiles, boots and runs input `seed` of `w`.
pub fn execute(w: Workload, seed: u64, host_profile: bool) -> Execution {
    let t0 = Instant::now();
    let source = w.source(seed);
    let t1 = Instant::now();
    let program = wl::build(&source);
    let t2 = Instant::now();
    let mut machine = Machine::new(w.config(host_profile), program);
    let t3 = Instant::now();
    let report = machine.run();
    let t4 = Instant::now();
    Execution {
        marks: [t0, t1, t2, t3, t4],
        report,
        phases: machine.host_phases(),
        sb: machine.sb_stats(),
    }
}

/// One input of a run and what every execution of it must reproduce.
pub struct Input {
    /// Guest seed.
    pub seed: u64,
    /// Expected exit code, computed once outside timing.
    pub oracle: u64,
    /// The first correct execution's report and superblock counters.
    pub reference: Option<(RunReport, SbStats)>,
}

impl Input {
    /// Computes the oracle for input `seed` of `w`.
    pub fn new(w: Workload, seed: u64) -> Input {
        Input {
            seed,
            oracle: w.oracle(seed),
            reference: None,
        }
    }

    /// Checks an execution: it must complete with the oracle's exit code and
    /// reproduce the first execution's report exactly, whatever the
    /// `host_profile` setting. The first correct execution becomes the
    /// reference.
    pub fn check(&mut self, e: &Execution) -> Result<(), String> {
        let r = &e.report;
        if r.outcome != Outcome::Completed {
            return Err(format!("seed {}: run ended {:?}", self.seed, r.outcome));
        }
        if r.exit_code != self.oracle {
            return Err(format!(
                "seed {}: exit code {} but the oracle gives {}",
                self.seed, r.exit_code, self.oracle
            ));
        }
        match &self.reference {
            None => {
                self.reference = Some((r.clone(), e.sb));
                Ok(())
            }
            Some((reference, sb)) if reference != r || sb_counts(sb) != sb_counts(&e.sb) => {
                Err(format!(
                    "seed {}: report differs from the first execution's \
                 (events {} vs {}, instructions {} vs {}, region {} vs {} us, \
                 superblock hits/misses/evictions/ops {:?} vs {:?})",
                    self.seed,
                    r.events,
                    reference.events,
                    r.instructions,
                    reference.instructions,
                    region_us(r),
                    region_us(reference),
                    sb_counts(&e.sb),
                    sb_counts(sb),
                ))
            }
            Some(_) => Ok(()),
        }
    }
}

/// The superblock counters that must repeat exactly (decode time need not).
fn sb_counts(sb: &SbStats) -> [u64; 4] {
    [sb.hits, sb.misses, sb.evictions, sb.decoded_ops]
}

/// Simulated microseconds between the region markers.
pub fn region_us(r: &RunReport) -> f64 {
    wl::region_time(&r.printed, &r.printed_at, r.time).as_ns() / 1e3
}

/// DRAM accesses between the region markers.
pub fn region_dram(r: &RunReport) -> u64 {
    wl::region_dram(&r.printed, &r.dram_at_print, r.dram_accesses)
}

/// Sum of the counters named `<prefix>.<index>.<suffix>` over every core,
/// bank or port index.
pub fn sum_indexed(stats: &Stats, prefix: &str, suffix: &str) -> f64 {
    stats
        .iter()
        .filter(|(key, _)| {
            key.strip_prefix(prefix)
                .and_then(|k| k.strip_prefix('.'))
                .and_then(|k| k.strip_suffix(suffix))
                .and_then(|k| k.strip_suffix('.'))
                .is_some_and(|index| !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()))
        })
        .map(|(_, v)| v)
        .sum()
}

/// The median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest whole percentile of `v` with at least ten samples above
/// it, and its nearest-rank value; `None` with too few samples.
pub fn tail(v: &[f64]) -> Option<(u32, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (50..=99).rev().find_map(|p: u32| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// The process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above_the_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(median(&v), 50.5);
    }

    #[test]
    fn sum_indexed_adds_only_numbered_instances() {
        let mut s = Stats::new();
        s.set("mem.l1.0.hits", 2.0);
        s.set("mem.l1.13.hits", 3.0);
        s.set("mem.l1.hits", 100.0);
        s.set("mem.l1.0.misses", 7.0);
        s.set("cpu.1.tlb.hits", 5.0);
        assert_eq!(sum_indexed(&s, "mem.l1", "hits"), 5.0);
        assert_eq!(sum_indexed(&s, "cpu", "tlb.hits"), 5.0);
        assert_eq!(sum_indexed(&s, "cpu", "hits"), 0.0);
    }

    #[test]
    fn input_seeds_start_with_the_run_seed_and_fit_xc_literals() {
        let seeds = input_seeds(42);
        assert_eq!(seeds[0], 42);
        assert!(seeds.iter().all(|&s| s <= i32::MAX as u64));
        assert_eq!(seeds, input_seeds(42));
        assert!(input_seeds(u64::MAX).iter().all(|&s| s <= i32::MAX as u64));
    }
}
