//! Runs one benchmark workload and prints its metrics.
//!
//! Usage: `ccsvm-simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it alternates executions with and without the
//! `host_profile` phase timers, records spans around every public call,
//! runs the per-layer loops, and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ccsvm_simbench::trace::Recorder;
use ccsvm_simbench::{
    execute, layers, median, peak_rss_mb, region_dram, region_us, sum_indexed, tail, Calibration,
    Execution, Input, Workload, CALIBRATION_REF_S, INPUTS,
};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, not {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or_else(|| format!("--seconds takes 1..=600, not {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run measured, as `(name, value, unit)` in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Executions and checks shared by both kinds of run.
struct Loop {
    workload: Workload,
    inputs: Vec<Input>,
    calibration: Calibration,
    attempted: u64,
    failures: Vec<String>,
}

impl Loop {
    /// Computes the oracles, then runs one untimed warm-up execution per
    /// input, which also sets each input's reference report.
    fn new(workload: Workload, seed: u64) -> Loop {
        let mut l = Loop {
            workload,
            inputs: ccsvm_simbench::input_seeds(seed)
                .into_iter()
                .map(|s| Input::new(workload, s))
                .collect(),
            calibration: Calibration::new(),
            attempted: 0,
            failures: Vec::new(),
        };
        for i in 0..INPUTS {
            l.run(i, false);
        }
        l
    }

    /// Runs input `i` once between two calibration sorts and checks it.
    /// A correct execution comes back with its calibration: the mean of the
    /// two sort times, in seconds.
    fn run(&mut self, i: usize, host_profile: bool) -> Option<(Execution, f64)> {
        let input = &mut self.inputs[i];
        let before = self.calibration.measure();
        let e = execute(self.workload, input.seed, host_profile);
        let calibration = (before + self.calibration.measure()) / 2.0;
        self.attempted += 1;
        match input.check(&e) {
            Ok(()) => Some((e, calibration)),
            Err(msg) => {
                self.failures.push(msg);
                None
            }
        }
    }

    /// The mean over inputs of `f` applied to each reference execution.
    fn mean_reference(&self, f: impl Fn(&ccsvm::RunReport, &ccsvm::SbStats) -> f64) -> f64 {
        let values: Vec<f64> = self
            .inputs
            .iter()
            .filter_map(|i| i.reference.as_ref().map(|(r, sb)| f(r, sb)))
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a timing's median, sample count and tail percentile.
fn describe(name: &str, unit: &str, scale: f64, samples: &[f64]) {
    let tail = tail(samples).map_or("too few samples for a tail".to_string(), |(p, v)| {
        format!("p{p} {:.6}", v * scale)
    });
    println!(
        "  {name:<16} median {:.6} {unit}  n={}  {tail}",
        median(samples) * scale,
        samples.len()
    );
}

/// The end-to-end run: round-robin executions over the inputs, untraced,
/// until `seconds` have passed. Host times are scaled by each execution's
/// calibration to the reference host speed.
fn end_to_end(l: &mut Loop, seconds: u64) -> Metrics {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut host, mut setup, mut mips) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall, mut calibrations) = (Vec::new(), Vec::new());
    let mut i = 0;
    while start.elapsed() < budget {
        if let Some((e, calibration)) = l.run(i % INPUTS, false) {
            let scale = CALIBRATION_REF_S / calibration;
            host.push(e.host().as_secs_f64() * scale);
            setup.push(e.setup().as_secs_f64() * scale);
            mips.push(e.report.instructions as f64 / (e.host().as_secs_f64() * scale) / 1e6);
            wall.push(e.host().as_secs_f64());
            calibrations.push(calibration);
        }
        i += 1;
    }
    println!(
        "per execution ({} measured), scaled to a {} us calibration sort:",
        host.len(),
        CALIBRATION_REF_S * 1e6
    );
    describe("host_s", "s", 1.0, &host);
    describe("setup_s", "s", 1.0, &setup);
    describe("sim_mips", "MIPS", 1.0, &mips);
    println!("unscaled:");
    describe("run wall time", "s", 1.0, &wall);
    describe("calibration", "us", 1e6, &calibrations);
    vec![
        ("host_s", median(&host), "s"),
        ("sim_mips", median(&mips), "MIPS"),
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        (
            "sim_region_us",
            l.mean_reference(|r, _| region_us(r)),
            "sim_us",
        ),
        (
            "region_dram",
            l.mean_reference(|r, _| region_dram(r) as f64),
            "count",
        ),
    ]
}

/// The traced run: executions alternate with and without `host_profile`,
/// spans are recorded around every call, then the layer loops run.
fn per_layer(l: &mut Loop, seconds: u64, spans: &Path) -> Metrics {
    let budget = Duration::from_secs(seconds);
    let loop_budget = budget / 4;
    let start = Instant::now();
    let mut rec = Recorder::new();
    let mut traced: Vec<Execution> = Vec::new();
    let (mut host_off, mut ns_per_event) = (Vec::new(), Vec::new());
    let mut calibrations = Vec::new();
    let mut exec_id = 0;
    while start.elapsed() < budget - loop_budget {
        let (i, profile) = ((exec_id / 2) as usize % INPUTS, exec_id % 2 == 1);
        exec_id += 1;
        let Some((e, calibration)) = l.run(i, profile) else {
            continue;
        };
        calibrations.push(calibration);
        rec.record(exec_id, &e, profile);
        if profile {
            traced.push(e);
        } else {
            host_off.push(e.host().as_secs_f64());
            ns_per_event.push(e.host().as_secs_f64() * 1e9 / e.report.events as f64);
        }
    }
    if let Err(err) = rec.write(spans) {
        l.failures
            .push(format!("writing {}: {err}", spans.display()));
    }
    let span_ms = |from: usize, to: usize| -> f64 {
        median(
            &traced
                .iter()
                .map(|e| ms(e.marks[to] - e.marks[from]))
                .collect::<Vec<_>>(),
        )
    };
    let phase = |f: fn(&ccsvm::HostPhases) -> f64| -> f64 {
        median(&traced.iter().map(|e| f(&e.phases)).collect::<Vec<_>>())
    };
    let host_on: Vec<f64> = traced.iter().map(|e| e.host().as_secs_f64()).collect();
    println!(
        "traced run: {} executions with host_profile, {} without; spans in {}",
        host_on.len(),
        host_off.len(),
        spans.display()
    );
    describe("host_s traced", "s", 1.0, &host_on);
    describe("host_s untraced", "s", 1.0, &host_off);

    let cfg = l.workload.config(false);
    let program = ccsvm_workloads::build(&l.workload.source(l.inputs[0].seed));
    let each = loop_budget / 7;
    let exec_all = layers::exec_all_ns_per_op(&program, each);
    let queue = layers::queue_push_pop_ns(each);
    let send = layers::noc_send_ns(&cfg, each);
    let tlb = layers::tlb_lookup_ns(each);
    let hit = layers::l1_hit_ns(&cfg, each);
    let miss = layers::l1_miss_ns(&cfg, each);
    let shared = layers::shared_write_ns(&cfg, each);

    let count = |prefix: &'static str, suffix: &'static str| {
        l.mean_reference(move |r, _| sum_indexed(&r.stats, prefix, suffix))
    };
    let stat = |key: &'static str| l.mean_reference(move |r, _| r.stats.get(key));
    let (l1_hits, l1_misses) = (count("mem.l1", "hits"), count("mem.l1", "misses"));
    vec![
        ("workloads.gen_ms", span_ms(0, 1), "ms"),
        ("xcc.compile_ms", span_ms(1, 2), "ms"),
        ("core.boot_ms", span_ms(2, 3), "ms"),
        ("core.exec_ms", phase(|p| p.core_exec_ms), "ms"),
        ("core.merge_ms", phase(|p| p.merge_ms), "ms"),
        ("core.uncore_ms", phase(|p| p.uncore_ms), "ms"),
        ("core.other_ms", phase(|p| p.other_ms), "ms"),
        (
            "core.trace_overhead_pct",
            100.0 * (median(&host_on) / median(&host_off) - 1.0),
            "%",
        ),
        ("isa.decode_ms", phase(|p| p.decode_ms), "ms"),
        (
            "isa.sb_hits",
            l.mean_reference(|_, sb| sb.hits as f64),
            "count",
        ),
        (
            "isa.sb_misses",
            l.mean_reference(|_, sb| sb.misses as f64),
            "count",
        ),
        (
            "isa.sb_mean_len",
            l.mean_reference(|_, sb| sb.mean_decoded_len()),
            "ops",
        ),
        ("isa.exec_all_ns_per_op", exec_all, "ns"),
        ("cpu.instructions", count("cpu", "instructions"), "count"),
        ("cpu.mem_ops", count("cpu", "mem_ops"), "count"),
        (
            "mttop.warp_instructions",
            count("mttop", "warp_instructions"),
            "count",
        ),
        (
            "mttop.thread_instructions",
            count("mttop", "thread_instructions"),
            "count",
        ),
        (
            "mttop.divergent_issues",
            count("mttop", "divergent_issues"),
            "count",
        ),
        ("mttop.miss_count", count("mttop", "miss_count"), "count"),
        (
            "engine.events",
            l.mean_reference(|r, _| r.events as f64),
            "count",
        ),
        ("engine.ns_per_event", median(&ns_per_event), "ns"),
        ("engine.queue_push_pop_ns", queue, "ns"),
        ("noc.send_ns", send, "ns"),
        ("noc.messages", stat("noc.messages"), "count"),
        ("noc.bytes", stat("noc.bytes"), "bytes"),
        ("noc.hops", stat("noc.hops"), "count"),
        ("mem.l1_hit_ns", hit, "ns"),
        ("mem.l1_miss_ns", miss, "ns"),
        ("mem.shared_write_ns", shared, "ns"),
        ("mem.l1.hits", l1_hits, "count"),
        ("mem.l1.misses", l1_misses, "count"),
        ("mem.l1.retries", count("mem.l1", "retries"), "count"),
        (
            "mem.l1.invalidations",
            count("mem.l1", "invalidations"),
            "count",
        ),
        ("mem.l1.hit_ratio", l1_hits / (l1_hits + l1_misses), "ratio"),
        ("mem.l2.gets", count("mem.l2", "gets"), "count"),
        ("mem.l2.getm", count("mem.l2", "getm"), "count"),
        ("mem.l2.puts", count("mem.l2", "puts"), "count"),
        ("mem.l2.misses", count("mem.l2", "misses"), "count"),
        ("mem.dram.reads", stat("mem.dram.reads"), "count"),
        ("mem.dram.writes", stat("mem.dram.writes"), "count"),
        (
            "vm.tlb.hits",
            count("cpu", "tlb.hits") + count("mttop", "tlb.hits"),
            "count",
        ),
        (
            "vm.tlb.misses",
            count("cpu", "tlb.misses") + count("mttop", "tlb.misses"),
            "count",
        ),
        (
            "vm.tlb_walks",
            count("cpu", "tlb_walks") + count("mttop", "tlb_walks"),
            "count",
        ),
        ("vm.page_faults", stat("os.page_faults"), "count"),
        ("vm.tlb_lookup_ns", tlb, "ns"),
        ("host.calibration_us", median(&calibrations) * 1e6, "us"),
    ]
}

/// Formats a metric value for JSON; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("simbench: {msg}");
            eprintln!(
                "usage: ccsvm-simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {} (protocol {:?}, sim_threads 1), seed {}, {} inputs {:?}, {} s, trace {}",
        w.name(),
        w.protocol(),
        args.seed,
        INPUTS,
        ccsvm_simbench::input_seeds(args.seed),
        args.seconds,
        u8::from(args.trace)
    );
    let mut l = Loop::new(w, args.seed);
    let metrics = if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.json", w.name(), args.seed));
        per_layer(&mut l, args.seconds, &spans)
    } else {
        end_to_end(&mut l, args.seconds)
    };
    println!("metrics:");
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    println!(
        "model accuracy: unvalidated (the repository holds no hardware reference results); \
         simulated metrics cover the marked region after guest input initialisation, which \
         warms the modelled caches and TLBs"
    );
    for f in &l.failures {
        println!("FAILED: {f}");
    }
    let failed = l.failures.len();
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        l.attempted,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
