//! Per-operation layer replay.
//!
//! Drives each hot-path layer on its own — scheduler pop/push, TLB
//! probe, L1 probe, page-table touch, directory fetch and network send —
//! with the node and address stream of the workload's own em3d trace
//! (the `hotpath` bench uses a synthetic stream instead), and prices each
//! in ns/op.  Multiplying by the run's own operation counts and dividing
//! by the machine time of the em3d cells gives `layer.explained_frac`.
//!
//! What the replay leaves unexplained: the trace runner (segment and
//! schedule decoding), the per-page action dispatch and RAC/DRAM/bus
//! timing models in `core::machine`, the `vm` policy paths (relocation
//! interrupts, remaps, pageout daemon, back-off), barrier and lock
//! handling, statistics accumulation, and the cache misses the replayed
//! layers suffer when they share the host caches inside a real run.

use ascoma::RunResult;
use ascoma_mem::cache::{DirectMappedCache, Lookup};
use ascoma_net::Network;
use ascoma_proto::Directory;
use ascoma_sim::addr::{Geometry, VAddr, VPage};
use ascoma_sim::sched::Scheduler;
use ascoma_sim::NodeId;
use ascoma_vm::page_table::PageTable;
use ascoma_vm::tlb::Tlb;
use ascoma_workloads::trace::ScheduleItem;
use ascoma_workloads::Trace;
use perfbench_common::{median, now_s};
use std::hint::black_box;

/// Shared operations taken from the trace (round-robin across nodes).
const STREAM_OPS: usize = 1 << 20;
/// Timed passes per layer (after one warm-up pass); the median counts.
const PASSES: usize = 5;

/// One replayed shared access.
#[derive(Debug, Clone, Copy)]
struct Access {
    node: NodeId,
    addr: u64,
    write: bool,
}

/// ns/op of each replayed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `Scheduler` step: the run-to-quiescence compare, and push + pop
    /// when the node yields.
    pub sched: f64,
    /// `Tlb::access`.
    pub tlb: f64,
    /// `DirectMappedCache::access` (+ fill on a miss).
    pub l1: f64,
    /// `PageTable::touch`.
    pub pt_touch: f64,
    /// `Directory::fetch`, on the L1-miss stream.
    pub dir_fetch: f64,
    /// `Network::send`, on the L1-miss stream.
    pub net_send: f64,
}

/// The shared-access stream of `trace`: each node's program order,
/// interleaved one access per node at a time, up to `limit` accesses.
fn stream(trace: &Trace, limit: usize) -> Vec<Access> {
    let per_node = limit / trace.nodes.max(1);
    let lanes: Vec<Vec<Access>> = trace
        .programs
        .iter()
        .enumerate()
        .map(|(n, prog)| {
            let node = NodeId(n as u16);
            let mut lane = Vec::with_capacity(per_node);
            'sched: for item in &prog.schedule {
                if let ScheduleItem::Run(seg) = item {
                    for op in &prog.segments[*seg as usize].ops {
                        if lane.len() == per_node {
                            break 'sched;
                        }
                        if !op.private() {
                            lane.push(Access {
                                node,
                                addr: op.addr(),
                                write: op.write(),
                            });
                        }
                    }
                }
            }
            lane
        })
        .collect();
    let longest = lanes.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| lanes.iter().filter_map(move |l| l.get(i).copied()))
        .collect()
}

/// Median ns/op of `pass` over `ops` operations per pass.
fn price(ops: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = now_s();
            pass();
            (now_s() - t0) * 1e9 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Price every layer on `trace`'s access stream.
pub fn measure(trace: &Trace, geo: Geometry) -> LayerCosts {
    let acc = stream(trace, STREAM_OPS);
    let nodes = trace.nodes;
    let page = |a: &Access| geo.page_of(VAddr(a.addr));

    let mut tlbs: Vec<Tlb> = (0..nodes).map(|_| Tlb::paper()).collect();
    let tlb_ns = price(acc.len(), || {
        for a in &acc {
            black_box(tlbs[a.node.idx()].access(page(a)));
        }
    });

    // The L1 pass also yields the miss stream the directory and network
    // see.
    let mut l1s: Vec<DirectMappedCache> =
        (0..nodes).map(|_| DirectMappedCache::paper_l1()).collect();
    let mut missed = vec![false; acc.len()];
    let l1_ns = price(acc.len(), || {
        for (i, a) in acc.iter().enumerate() {
            let c = &mut l1s[a.node.idx()];
            let miss = !matches!(c.access(VAddr(a.addr), a.write), Lookup::Hit);
            if miss {
                black_box(c.fill(VAddr(a.addr), a.write));
            }
            missed[i] = miss;
        }
    });
    // The scheduler runs each node to quiescence, as `Machine` does: a
    // node keeps the processor while re-queueing it would make it the next
    // pop, and otherwise goes through push + pop.  Each step consumes the
    // node's next access; its delay is 8 cycles of compute plus 1 on an
    // L1 hit or 100 on a miss.
    let mut lanes: Vec<Vec<u64>> = vec![Vec::new(); nodes];
    for (a, m) in acc.iter().zip(&missed) {
        lanes[a.node.idx()].push(if *m { 108 } else { 9 });
    }
    let mut sched = Scheduler::with_nodes(nodes);
    let mut next = vec![0usize; nodes];
    let sched_ns = price(acc.len(), || {
        let Some((mut n, mut t)) = sched.pop() else {
            return;
        };
        for _ in 0..acc.len() {
            let lane = &lanes[n.idx()];
            let i = &mut next[n.idx()];
            t += lane.get(*i).copied().unwrap_or(9);
            *i = if *i + 1 < lane.len() { *i + 1 } else { 0 };
            if !sched.requeue_is_next(n, t) {
                sched.push(n, t);
                (n, t) = sched.pop().unwrap_or((n, t));
            }
        }
        sched.push(black_box(n), t);
    });

    let misses: Vec<Access> = acc
        .iter()
        .zip(&missed)
        .filter(|(_, m)| **m)
        .map(|(a, _)| *a)
        .collect();

    let mut pts: Vec<PageTable> = (0..nodes)
        .map(|_| {
            let mut pt = PageTable::new(trace.shared_pages, geo.blocks_per_page());
            for p in 0..trace.shared_pages {
                pt.map_numa(VPage(p));
            }
            pt
        })
        .collect();
    let pt_ns = price(acc.len(), || {
        for a in &acc {
            pts[a.node.idx()].touch(page(a));
        }
    });

    let mut dir = Directory::new(geo, trace.shared_pages, nodes);
    let dir_ns = price(misses.len(), || {
        for a in &misses {
            black_box(dir.fetch(a.node, geo.block_of(VAddr(a.addr)), a.write));
        }
    });

    let mut net = Network::paper(nodes);
    let mut now = 0;
    let net_ns = price(misses.len(), || {
        for a in &misses {
            let home = trace.first_toucher[page(a).0 as usize];
            black_box(net.send(now, a.node, home, geo.block_bytes()));
            now += 50;
        }
    });

    LayerCosts {
        sched: sched_ns,
        tlb: tlb_ns,
        l1: l1_ns,
        pt_touch: pt_ns,
        dir_fetch: dir_ns,
        net_send: net_ns,
    }
}

/// Shared (non-private) dynamic operations of `trace`.
pub fn shared_ops(trace: &Trace) -> u64 {
    trace
        .programs
        .iter()
        .map(|p| {
            p.schedule
                .iter()
                .map(|s| match s {
                    ScheduleItem::Run(i) => p.segments[*i as usize]
                        .ops
                        .iter()
                        .filter(|o| !o.private())
                        .count() as u64,
                    _ => 0,
                })
                .sum::<u64>()
        })
        .sum()
}

/// The `layer.*` metrics: each layer's ns/op, and the share of the em3d
/// cells' machine seconds (`machine_s`, over `runs`) that count × ns/op
/// accounts for.  Every op passes the scheduler and the L1; every shared
/// op probes the TLB and touches the page table; fetches and messages
/// come from the runs.
pub fn metrics(
    costs: &LayerCosts,
    trace: &Trace,
    runs: &[&RunResult],
    machine_s: f64,
) -> Vec<(&'static str, f64)> {
    let cells = runs.len() as f64;
    let ops = trace.total_ops() as f64 * cells;
    let shared = shared_ops(trace) as f64 * cells;
    let fetches: f64 = runs.iter().map(|r| crate::check::fetches(r) as f64).sum();
    let messages: f64 = runs.iter().map(|r| r.net_messages as f64).sum();
    let explained_ns = ops * (costs.sched + costs.l1)
        + shared * (costs.tlb + costs.pt_touch)
        + fetches * costs.dir_fetch
        + messages * costs.net_send;
    vec![
        ("layer.sched_ns", costs.sched),
        ("layer.tlb_ns", costs.tlb),
        ("layer.l1_ns", costs.l1),
        ("layer.pt_touch_ns", costs.pt_touch),
        ("layer.dir_fetch_ns", costs.dir_fetch),
        ("layer.net_send_ns", costs.net_send),
        (
            "layer.explained_frac",
            explained_ns / (machine_s * 1e9).max(1.0),
        ),
    ]
}
