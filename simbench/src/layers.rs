//! Short timed loops over each layer's public functions, with `Instant`
//! and `black_box`. Each loop runs batches until its budget is spent and
//! reports the median nanoseconds per operation over its batches.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ccsvm::SystemConfig;
use ccsvm_engine::{EventQueue, SplitMix64, Time};
use ccsvm_isa::{Program, SbCache};
use ccsvm_mem::{
    Access, AccessResult, BankConfig, Completion, L1Config, MemConfig, MemEvent, MemorySystem,
    PhysAddr, PortId, BLOCK_BYTES,
};
use ccsvm_noc::{Network, NodeId, Topology};
use ccsvm_vm::{Tlb, VirtAddr, PAGE_BYTES};

use crate::median;

/// Runs `batch`, which returns its ns per operation, until `budget` is
/// spent (at least five times); the median over batches.
fn time_batches(budget: Duration, mut batch: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 5 || start.elapsed() < budget {
        per_op.push(batch());
    }
    median(&per_op)
}

/// Nanoseconds per operation for `ops` operations spent since `t`.
fn ns_per_op(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `EventQueue::push` plus `pop` in steady state: 1024 pending events, each
/// pop followed by a push up to 100 ns later.
pub fn queue_push_pop_ns(budget: Duration) -> f64 {
    let mut rng = SplitMix64::new(1);
    let mut q = EventQueue::new();
    for i in 0..1024u64 {
        q.push(Time::from_ps(rng.next_below(100_000)), i);
    }
    time_batches(budget, || {
        let start = Instant::now();
        for _ in 0..20_000 {
            let (t, e) = q.pop().expect("the queue always holds 1024 events");
            q.push(t + Time::from_ps(1 + rng.next_below(100_000)), black_box(e));
        }
        ns_per_op(start, 20_000)
    })
}

/// `Network::send` between random nodes of the paper's torus, alternating
/// control and data message sizes.
pub fn noc_send_ns(cfg: &SystemConfig, budget: Duration) -> f64 {
    let topo = Topology::torus(cfg.torus.0, cfg.torus.1);
    let nodes = topo.len() as u64;
    let mut net = Network::new(topo, cfg.noc);
    let mut rng = SplitMix64::new(2);
    let mut now = Time::ZERO;
    time_batches(budget, || {
        let start = Instant::now();
        for i in 0..20_000 {
            let src = NodeId(rng.next_below(nodes) as usize);
            let dst = NodeId(rng.next_below(nodes) as usize);
            now += Time::from_ps(2_000);
            black_box(net.send(now, src, dst, if i % 2 == 0 { 8 } else { 72 }));
        }
        ns_per_op(start, 20_000)
    })
}

/// `Tlb::lookup` hits at the paper's 64 entries, in random page order.
pub fn tlb_lookup_ns(budget: Duration) -> f64 {
    let mut tlb = Tlb::new(64);
    for p in 0..64 {
        tlb.insert(VirtAddr(p * PAGE_BYTES), PhysAddr((1000 + p) * PAGE_BYTES));
    }
    let mut rng = SplitMix64::new(3);
    let vas: Vec<VirtAddr> = (0..4096)
        .map(|_| VirtAddr(rng.next_below(64) * PAGE_BYTES + rng.next_below(PAGE_BYTES)))
        .collect();
    time_batches(budget, || {
        let start = Instant::now();
        for _ in 0..5 {
            for &va in &vas {
                black_box(tlb.lookup(black_box(va)));
            }
        }
        ns_per_op(start, 5 * vas.len() as u64)
    })
}

/// `SbCache::entry` plus `MicroOp::exec_all` over an 8-lane warp, for every
/// superblock of `program`; ns per micro-op.
pub fn exec_all_ns_per_op(program: &Program, budget: Duration) -> f64 {
    let mut cache = SbCache::new(SbCache::DEFAULT_CAPACITY);
    let entries: Vec<usize> = (0..program.text.len())
        .filter(|&pc| cache.entry(program, pc).is_some())
        .collect();
    let mut lanes = [[0u64; 32]; 8];
    for (i, lane) in lanes.iter_mut().enumerate() {
        for (r, v) in lane.iter_mut().enumerate().skip(1) {
            *v = (i * 32 + r) as u64;
        }
    }
    time_batches(budget, || {
        let start = Instant::now();
        let mut ops = 0;
        for _ in 0..20 {
            for &pc in &entries {
                let sb = cache.entry(program, pc).expect("decoded above");
                let run = cache.ops_at(sb).expect("nothing is evicted");
                for op in run {
                    op.exec_all(lanes.iter_mut());
                }
                ops += run.len() as u64;
            }
        }
        black_box(&lanes);
        ns_per_op(start, ops)
    })
}

/// A `MemorySystem` on the paper's torus with its own event queue, driven
/// one blocking access at a time.
struct MemRig {
    mem: MemorySystem,
    net: Network,
    queue: EventQueue<MemEvent>,
    done: Vec<Completion>,
    now: Time,
    token: u64,
}

impl MemRig {
    /// The L1s, banks and node placement `Machine::new` builds from `cfg`:
    /// CPUs, then L2 banks, then the MIFD, then MTTOPs.
    fn new(cfg: &SystemConfig) -> MemRig {
        let l1 = |node, cache, hit_time, max_mshrs| L1Config {
            node: NodeId(node),
            cache,
            hit_time,
            max_mshrs,
            write_policy: cfg.l1_write_policy,
        };
        let mttop_base = cfg.n_cpus + cfg.l2_banks + 1;
        let l1s = (0..cfg.n_cpus)
            .map(|i| l1(i, cfg.cpu_l1, cfg.cpu_l1_hit, cfg.cpu_mshrs))
            .chain((0..cfg.n_mttops).map(|i| {
                l1(
                    mttop_base + i,
                    cfg.mttop_l1,
                    cfg.mttop_l1_hit,
                    cfg.mttop_mshrs,
                )
            }))
            .collect();
        let banks = (0..cfg.l2_banks)
            .map(|i| BankConfig {
                node: NodeId(cfg.n_cpus + i),
                cache: cfg.l2_bank,
                latency: cfg.l2_latency,
            })
            .collect();
        MemRig {
            mem: MemorySystem::new(MemConfig {
                l1s,
                banks,
                dram: cfg.dram,
                ctrl_bytes: 8,
                data_bytes: 72,
                protocol: cfg.protocol,
            }),
            net: Network::new(Topology::torus(cfg.torus.0, cfg.torus.1), cfg.noc),
            queue: EventQueue::new(),
            done: Vec::new(),
            now: Time::ZERO,
            token: 0,
        }
    }

    /// Issues `access` from `port` and, on a miss, handles events until the
    /// memory system drains; returns the access's value.
    fn access(&mut self, port: usize, access: Access) -> u64 {
        self.token += 1;
        let token = self.token;
        let MemRig {
            mem,
            net,
            queue,
            done,
            now,
            ..
        } = self;
        let mut sched = |t: Time, e: MemEvent| queue.push(t, e);
        match mem.access(*now, net, &mut sched, PortId(port), token, access) {
            AccessResult::Hit { finish, value } => {
                *now = (*now).max(finish);
                value
            }
            AccessResult::Pending => {
                done.clear();
                while let Some((t, ev)) = queue.pop() {
                    *now = (*now).max(t);
                    mem.handle(t, net, &mut |at, e| queue.push(at, e), ev, done);
                }
                done.iter()
                    .find(|c| c.token == token)
                    .expect("a pending access completes once the system drains")
                    .value
            }
            AccessResult::Retry | AccessResult::Poisoned => {
                panic!("a lone blocking access never exhausts MSHRs or meets poison")
            }
        }
    }

    fn read(&mut self, port: usize, addr: u64) -> u64 {
        self.access(
            port,
            Access::Read {
                paddr: PhysAddr(addr),
                size: 8,
            },
        )
    }

    fn write(&mut self, port: usize, addr: u64, value: u64) {
        self.access(
            port,
            Access::Write {
                paddr: PhysAddr(addr),
                size: 8,
                value,
            },
        );
    }
}

/// Base of the physical region the memory loops touch.
const BASE: u64 = 0x100_0000;

/// `MemorySystem::access` L1 read hits from a CPU port.
pub fn l1_hit_ns(cfg: &SystemConfig, budget: Duration) -> f64 {
    let mut rig = MemRig::new(cfg);
    rig.write(0, BASE, 7);
    time_batches(budget, || {
        let start = Instant::now();
        for _ in 0..20_000 {
            assert_eq!(black_box(rig.read(0, BASE)), 7, "L1 hit returns the store");
        }
        ns_per_op(start, 20_000)
    })
}

/// A CPU L1 read miss: `MemorySystem::access`, then `handle` for every
/// event until the grant completes. The loop streams a region eight times
/// the L1 and an eighth of the L2.
pub fn l1_miss_ns(cfg: &SystemConfig, budget: Duration) -> f64 {
    let mut rig = MemRig::new(cfg);
    let blocks = 8 * cfg.cpu_l1.capacity() as u64 / BLOCK_BYTES;
    for b in 0..blocks {
        rig.write(1, BASE + b * BLOCK_BYTES, b);
    }
    for b in 0..blocks {
        rig.read(0, BASE + b * BLOCK_BYTES);
    }
    let mut b = 0;
    time_batches(budget, || {
        let start = Instant::now();
        for _ in 0..2_000 {
            assert_eq!(
                rig.read(0, BASE + b * BLOCK_BYTES),
                b,
                "miss returns memory"
            );
            b = (b + 1) % blocks;
        }
        ns_per_op(start, 2_000)
    })
}

/// A CPU store to a line the four CPUs share: invalidations or, under
/// Dragon, a broadcast update. Only the store is timed; the reads that
/// re-share the line between stores are not.
pub fn shared_write_ns(cfg: &SystemConfig, budget: Duration) -> f64 {
    let mut rig = MemRig::new(cfg);
    let mut value = 0;
    time_batches(budget, || {
        let mut spent = Duration::ZERO;
        for _ in 0..500 {
            for port in 0..cfg.n_cpus {
                assert_eq!(rig.read(port, BASE), value, "sharers see the last store");
            }
            value += 1;
            let t = Instant::now();
            rig.write(0, BASE, value);
            spent += t.elapsed();
        }
        spent.as_nanos() as f64 / 500.0
    })
}
