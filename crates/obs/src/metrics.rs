//! The metrics registry: latency histograms, counters, windowed
//! time-series, and hot-page analytics folded from the event stream.
//!
//! The registry is a pure function of the (deterministic) event stream:
//! it can be built online while a run executes ([`MetricsSink`], constant
//! memory) or offline from a recorded trace
//! ([`MetricsRegistry::from_events`]) — both orders produce identical
//! state, so the resulting [`MetricsDigest`] is byte-identical across
//! job counts and across export/re-import round-trips.  Every digest
//! field is an integer (see [`ascoma_sim::hist::Histogram::percentile`])
//! which makes digests directly comparable by `bench diff`.

use crate::event::{Event, MissLoc, TimedEvent};
use crate::sink::Sink;
use ascoma_sim::hist::{HistDigest, Histogram};
use ascoma_sim::Cycles;
use std::collections::BTreeMap;

/// Default time-series window, in cycles.
pub const DEFAULT_WINDOW: Cycles = 100_000;

/// One point of a windowed time series: the window's ordinal and the
/// series value for that window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPoint {
    /// Window ordinal (`cycle / window`).
    pub window: u64,
    /// Series value for this window.
    pub value: u64,
}

/// Per-node latency histograms and time series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Shared-miss service time, split by service location
    /// (indexed by [`MissLoc::ALL`] order).
    pub miss_service: [Histogram; 5],
    /// Network queueing delay per remote transaction.
    pub net_delay: Histogram,
    /// Pageout-daemon reclaim latency per epoch.
    pub reclaim: Histogram,
    /// Kernel page-remap cost per map/upgrade/eviction.
    pub remap: Histogram,
    /// Free-pool depth per window (last sample wins within a window).
    pub free_pool: Vec<WindowPoint>,
    /// Refetch threshold per window (last sample wins within a window).
    pub threshold: Vec<WindowPoint>,
    /// Capacity refetches completed per window.
    pub refetch_rate: Vec<WindowPoint>,
    /// Most recent sampled free-pool depth (tracked even when
    /// `window == 0` disables the series — live snapshots read these).
    pub last_free: u64,
    /// Most recent sampled free-pool low watermark.
    pub last_low: u64,
    /// Most recent sampled refetch threshold.
    pub last_threshold: u64,
    /// Most recent sampled network backlog.
    pub last_backlog: u64,
}

fn series_set_last(series: &mut Vec<WindowPoint>, window: u64, value: u64) {
    match series.last_mut() {
        Some(p) if p.window == window => p.value = value,
        _ => series.push(WindowPoint { window, value }),
    }
}

fn series_add(series: &mut Vec<WindowPoint>, window: u64, delta: u64) {
    match series.last_mut() {
        Some(p) if p.window == window => p.value += delta,
        _ => series.push(WindowPoint {
            window,
            value: delta,
        }),
    }
}

/// Counters, histograms, time-series and hot-page tallies for one run.
///
/// Fold events in with [`Self::fold`] (any order consistent with the
/// stream; the registry state depends only on stream content).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    /// Time-series window in cycles (0 disables windowed series).
    window: Cycles,
    /// Per-node histograms and series (grown on demand).
    nodes: Vec<NodeMetrics>,
    /// Events folded, by kind tag.
    counters: BTreeMap<&'static str, u64>,
    /// Capacity-refetch tallies per `(node, page)` — the hot-page set.
    hot_pages: BTreeMap<(u16, u64), u64>,
}

impl MetricsRegistry {
    /// An empty registry sized for `nodes` nodes, windowing time series
    /// every `window` cycles (0 disables the series).
    pub fn new(nodes: usize, window: Cycles) -> Self {
        Self {
            window,
            nodes: vec![NodeMetrics::default(); nodes],
            counters: BTreeMap::new(),
            hot_pages: BTreeMap::new(),
        }
    }

    /// The configured series window in cycles.
    pub fn window(&self) -> Cycles {
        self.window
    }

    /// Per-node metrics, indexed by node id.
    pub fn nodes(&self) -> &[NodeMetrics] {
        &self.nodes
    }

    /// Event counts by kind tag, sorted by kind.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Total events folded so far (sum over every kind counter).
    pub fn total_events(&self) -> u64 {
        self.counters.values().sum()
    }

    /// The `n` hottest `(node, page)` pairs by capacity-refetch count,
    /// hottest first; ties break on `(node, page)` ascending so the
    /// ranking is deterministic.
    pub fn hot_pages(&self, n: usize) -> Vec<((u16, u64), u64)> {
        let mut all: Vec<_> = self.hot_pages.iter().map(|(&k, &v)| (k, v)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    fn node_mut(&mut self, node: u16) -> &mut NodeMetrics {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, NodeMetrics::default());
        }
        &mut self.nodes[idx]
    }

    /// Fold one event into the registry.
    pub fn fold(&mut self, te: &TimedEvent) {
        *self.counters.entry(te.event.kind()).or_insert(0) += 1;
        let w = te.cycle.checked_div(self.window).unwrap_or(0);
        match te.event {
            Event::MissServiced {
                node,
                page,
                loc,
                refetch,
                cycles,
            } => {
                let windowed = self.window != 0;
                let nm = self.node_mut(node.0);
                let li = MissLoc::ALL
                    .iter()
                    .position(|&l| l == loc)
                    .unwrap_or_default();
                nm.miss_service[li].record(cycles);
                if refetch {
                    if windowed {
                        series_add(&mut nm.refetch_rate, w, 1);
                    }
                    *self.hot_pages.entry((node.0, page.0)).or_insert(0) += 1;
                }
            }
            Event::NetDelay { node, queued } => {
                self.node_mut(node.0).net_delay.record(queued);
            }
            Event::RemapCost { node, cycles, .. } => {
                self.node_mut(node.0).remap.record(cycles);
            }
            Event::ReclaimLatency { node, cycles, .. } => {
                self.node_mut(node.0).reclaim.record(cycles);
            }
            Event::FreePoolSample {
                node, free, low, ..
            } => {
                let windowed = self.window != 0;
                let nm = self.node_mut(node.0);
                nm.last_free = free as u64;
                nm.last_low = low as u64;
                if windowed {
                    series_set_last(&mut nm.free_pool, w, free as u64);
                }
            }
            Event::ThresholdSample { node, threshold } => {
                let windowed = self.window != 0;
                let nm = self.node_mut(node.0);
                nm.last_threshold = threshold as u64;
                if windowed {
                    series_set_last(&mut nm.threshold, w, threshold as u64);
                }
            }
            Event::NetSample { node, backlog, .. } => {
                self.node_mut(node.0).last_backlog = backlog;
            }
            _ => {}
        }
    }

    /// Build a registry by folding a recorded event stream.
    pub fn from_events(events: &[TimedEvent], nodes: usize, window: Cycles) -> Self {
        let mut reg = Self::new(nodes, window);
        for te in events {
            reg.fold(te);
        }
        reg
    }

    /// The machine-wide digest: per-class histograms merged across nodes
    /// plus the event-kind counters.  Deterministic and integer-only.
    pub fn digest(&self) -> MetricsDigest {
        let mut hists = Vec::with_capacity(MissLoc::ALL.len() + 3);
        for (li, loc) in MissLoc::ALL.iter().enumerate() {
            let mut h = Histogram::new();
            for nm in &self.nodes {
                h.merge(&nm.miss_service[li]);
            }
            hists.push(HistStat {
                name: format!("miss_service/{}", loc.name()),
                stat: h.digest(),
            });
        }
        for (name, pick) in [
            ("net_queue_delay", 0usize),
            ("daemon_reclaim", 1),
            ("page_remap", 2),
        ] {
            let mut h = Histogram::new();
            for nm in &self.nodes {
                h.merge(match pick {
                    0 => &nm.net_delay,
                    1 => &nm.reclaim,
                    _ => &nm.remap,
                });
            }
            hists.push(HistStat {
                name: name.to_string(),
                stat: h.digest(),
            });
        }
        MetricsDigest {
            hists,
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// A named histogram digest inside a [`MetricsDigest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistStat {
    /// Stable series name, e.g. `miss_service/remote3`.
    pub name: String,
    /// The integer percentile digest.
    pub stat: HistDigest,
}

/// The serializable, comparable summary of a run's metrics: one
/// [`HistStat`] per latency class (machine-wide, merged across nodes)
/// and the event-kind counters.  All fields are integers, so equality
/// is exact and `bench diff` can compare digests across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsDigest {
    /// Latency digests in stable declaration order.
    pub hists: Vec<HistStat>,
    /// Event counts by kind, sorted by kind.
    pub counters: Vec<(String, u64)>,
}

impl MetricsDigest {
    /// The digest for `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&HistDigest> {
        self.hists.iter().find(|h| h.name == name).map(|h| &h.stat)
    }

    /// Render as a (hand-rolled, dependency-free) JSON object with
    /// stable key order — the payload embedded in `BENCH_perf.json`
    /// style baseline files and consumed by `bench diff`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.hists.len() * 128);
        out.push_str("{\"hists\":{");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.stat;
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.name, s.count, s.sum, s.max, s.p50, s.p95, s.p99
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}");
        out
    }
}

/// A [`Sink`] that folds events straight into a [`MetricsRegistry`] —
/// constant memory regardless of run length, no event buffer.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    /// The registry being populated.
    pub registry: MetricsRegistry,
}

impl MetricsSink {
    /// A metrics-collecting sink for `nodes` nodes with the given series
    /// window (0 disables windowed series).
    pub fn new(nodes: usize, window: Cycles) -> Self {
        Self {
            registry: MetricsRegistry::new(nodes, window),
        }
    }
}

impl Sink for MetricsSink {
    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        self.registry.fold(&TimedEvent { cycle, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma_sim::addr::VPage;
    use ascoma_sim::NodeId;

    fn miss(node: u16, page: u64, loc: MissLoc, refetch: bool, cycles: u64) -> Event {
        Event::MissServiced {
            node: NodeId(node),
            page: VPage(page),
            loc,
            refetch,
            cycles,
        }
    }

    fn stream() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                cycle: 10,
                event: miss(0, 7, MissLoc::Home, false, 40),
            },
            TimedEvent {
                cycle: 120_000,
                event: miss(0, 7, MissLoc::Remote2, true, 300),
            },
            TimedEvent {
                cycle: 130_000,
                event: miss(1, 7, MissLoc::Remote3, true, 500),
            },
            TimedEvent {
                cycle: 130_001,
                event: miss(1, 7, MissLoc::Remote3, true, 510),
            },
            TimedEvent {
                cycle: 140_000,
                event: Event::NetDelay {
                    node: NodeId(1),
                    queued: 25,
                },
            },
            TimedEvent {
                cycle: 150_000,
                event: Event::RemapCost {
                    node: NodeId(0),
                    page: VPage(7),
                    cycles: 600,
                },
            },
            TimedEvent {
                cycle: 160_000,
                event: Event::ReclaimLatency {
                    node: NodeId(0),
                    reclaimed: 2,
                    cycles: 1500,
                },
            },
            TimedEvent {
                cycle: 170_000,
                event: Event::FreePoolSample {
                    node: NodeId(0),
                    free: 12,
                    resident: 20,
                    deficit: 0,
                    low: 4,
                },
            },
            TimedEvent {
                cycle: 171_000,
                event: Event::ThresholdSample {
                    node: NodeId(0),
                    threshold: 96,
                },
            },
        ]
    }

    #[test]
    fn online_and_offline_folds_agree() {
        let evs = stream();
        let mut sink = MetricsSink::new(2, DEFAULT_WINDOW);
        for te in &evs {
            sink.emit(te.cycle, te.event);
        }
        let offline = MetricsRegistry::from_events(&evs, 2, DEFAULT_WINDOW);
        assert_eq!(sink.registry, offline);
        assert_eq!(sink.registry.digest(), offline.digest());
    }

    #[test]
    fn digest_merges_across_nodes() {
        let d = MetricsRegistry::from_events(&stream(), 2, DEFAULT_WINDOW).digest();
        let r3 = d.hist("miss_service/remote3").unwrap();
        assert_eq!(r3.count, 2);
        assert_eq!(r3.max, 510);
        assert_eq!(d.hist("miss_service/home").unwrap().count, 1);
        assert_eq!(d.hist("net_queue_delay").unwrap().count, 1);
        assert_eq!(d.hist("daemon_reclaim").unwrap().max, 1500);
        assert_eq!(d.hist("page_remap").unwrap().sum, 600);
        let misses = d
            .counters
            .iter()
            .find(|(k, _)| k == "miss_serviced")
            .unwrap();
        assert_eq!(misses.1, 4);
    }

    #[test]
    fn hot_pages_rank_deterministically() {
        let reg = MetricsRegistry::from_events(&stream(), 2, DEFAULT_WINDOW);
        let hot = reg.hot_pages(10);
        // Node 1 refetched page 7 twice, node 0 once; ties impossible
        // here but ordering is (count desc, key asc).
        assert_eq!(hot, vec![((1, 7), 2), ((0, 7), 1)]);
        assert_eq!(reg.hot_pages(1).len(), 1);
    }

    #[test]
    fn windowed_series_bucket_by_cycle() {
        let reg = MetricsRegistry::from_events(&stream(), 2, DEFAULT_WINDOW);
        let n0 = &reg.nodes()[0];
        assert_eq!(
            n0.free_pool,
            vec![WindowPoint {
                window: 1,
                value: 12
            }]
        );
        assert_eq!(
            n0.threshold,
            vec![WindowPoint {
                window: 1,
                value: 96
            }]
        );
        // Refetch rate: node 0 had one refetch in window 1.
        assert_eq!(
            n0.refetch_rate,
            vec![WindowPoint {
                window: 1,
                value: 1
            }]
        );
        // Window 0 disables series but keeps histograms.
        let flat = MetricsRegistry::from_events(&stream(), 2, 0);
        assert!(flat.nodes()[0].free_pool.is_empty());
        assert_eq!(flat.digest().hists, reg.digest().hists);
    }

    #[test]
    fn empty_run_has_empty_series_and_zero_digest() {
        let reg = MetricsRegistry::from_events(&[], 2, DEFAULT_WINDOW);
        assert_eq!(reg.total_events(), 0);
        for nm in reg.nodes() {
            assert!(nm.free_pool.is_empty());
            assert!(nm.threshold.is_empty());
            assert!(nm.refetch_rate.is_empty());
            assert_eq!((nm.last_free, nm.last_low), (0, 0));
            assert_eq!((nm.last_threshold, nm.last_backlog), (0, 0));
        }
        let d = reg.digest();
        assert!(d.hists.iter().all(|h| h.stat.count == 0));
        assert!(d.counters.is_empty());
    }

    #[test]
    fn run_shorter_than_one_window_lands_in_window_zero() {
        // Every cycle below DEFAULT_WINDOW buckets into window ordinal 0.
        let evs: Vec<TimedEvent> = (0..5)
            .map(|i| TimedEvent {
                cycle: i * 1_000,
                event: miss(0, i, MissLoc::Remote2, true, 100 + i),
            })
            .collect();
        let reg = MetricsRegistry::from_events(&evs, 1, DEFAULT_WINDOW);
        assert_eq!(
            reg.nodes()[0].refetch_rate,
            vec![WindowPoint {
                window: 0,
                value: 5
            }]
        );
    }

    #[test]
    fn exact_window_boundary_cycles_open_the_next_window() {
        // cycle == k * window belongs to window k (cycle / window), so a
        // sample exactly on the boundary must start a new point, and the
        // last sample strictly before it must close the previous one.
        let w = DEFAULT_WINDOW;
        let evs = vec![
            TimedEvent {
                cycle: w - 1,
                event: Event::FreePoolSample {
                    node: NodeId(0),
                    free: 7,
                    resident: 1,
                    deficit: 0,
                    low: 2,
                },
            },
            TimedEvent {
                cycle: w,
                event: Event::FreePoolSample {
                    node: NodeId(0),
                    free: 5,
                    resident: 3,
                    deficit: 0,
                    low: 2,
                },
            },
            TimedEvent {
                cycle: 2 * w,
                event: miss(0, 1, MissLoc::Remote3, true, 10),
            },
        ];
        let reg = MetricsRegistry::from_events(&evs, 1, w);
        let n0 = &reg.nodes()[0];
        assert_eq!(
            n0.free_pool,
            vec![
                WindowPoint {
                    window: 0,
                    value: 7
                },
                WindowPoint {
                    window: 1,
                    value: 5
                },
            ]
        );
        assert_eq!(
            n0.refetch_rate,
            vec![WindowPoint {
                window: 2,
                value: 1
            }]
        );
        assert_eq!(n0.last_free, 5);
    }

    #[test]
    fn last_values_survive_disabled_windowing() {
        let mut evs = stream();
        evs.push(TimedEvent {
            cycle: 180_000,
            event: Event::NetSample {
                node: NodeId(0),
                backlog: 9,
                messages: 100,
                queued: 3,
            },
        });
        let flat = MetricsRegistry::from_events(&evs, 2, 0);
        let n0 = &flat.nodes()[0];
        assert!(n0.free_pool.is_empty(), "window 0 disables the series");
        assert_eq!(n0.last_free, 12);
        assert_eq!(n0.last_low, 4);
        assert_eq!(n0.last_threshold, 96);
        assert_eq!(n0.last_backlog, 9);
        assert_eq!(flat.total_events(), evs.len() as u64);
    }

    #[test]
    fn digest_json_is_valid_and_stable() {
        let d = MetricsRegistry::from_events(&stream(), 2, DEFAULT_WINDOW).digest();
        let j = d.to_json();
        crate::export::validate_json(&j).unwrap();
        let v = crate::json::parse(&j).unwrap();
        let r3 = v.get("hists").unwrap().get("miss_service/remote3").unwrap();
        assert_eq!(r3.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("miss_serviced")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        // Stable: same registry, same bytes.
        assert_eq!(j, d.to_json());
    }
}
