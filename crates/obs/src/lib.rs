//! # ascoma-obs — in-run observability for the AS-COMA simulator
//!
//! The whole point of AS-COMA is *dynamic* behavior — S-COMA-first
//! allocation draining the free pool, the pageout daemon detecting
//! thrashing, refetch-threshold back-off reacting to phase changes — but
//! end-of-run aggregates cannot show any of those trajectories.  This
//! crate defines:
//!
//! * a typed [`Event`] taxonomy covering page-mode transitions, pageout
//!   daemon epochs, threshold back-off/recovery, refetch-threshold
//!   crossings, and periodic time-series samples;
//! * a zero-cost-when-disabled [`Sink`] abstraction: the machine layer is
//!   generic over `S: Sink`, and the default [`NoopSink`] has
//!   `Sink::ENABLED == false`, so every emission site compiles away and an
//!   uninstrumented run is bit-identical to the pre-instrumentation
//!   simulator;
//! * recording sinks ([`VecSink`], [`RingSink`], [`JsonlSink`]);
//! * exporters to JSONL and Chrome `trace_event` JSON (loadable in
//!   Perfetto / `chrome://tracing`) in [`export`];
//! * a [`summary`] API folding a trace back into per-page lifecycle
//!   histories, per-node threshold trajectories and daemon-epoch records;
//! * a [`metrics`] registry folding measurement events into per-node,
//!   per-class latency histograms, windowed time series, and hot-page
//!   tallies, with an integer-only [`MetricsDigest`] compared by
//!   `bench diff`;
//! * a dependency-free JSON reader ([`json`], [`import`]) so archived
//!   JSONL traces round-trip back into typed events.
//!
//! Event cycles come from the emitting node's clock, and the simulator is
//! deterministic, so two identical runs produce byte-identical streams.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod import;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod snapshot;
pub mod summary;

pub use event::{BackoffKind, Event, EvictCause, MapMode, MissLoc, TimedEvent};
pub use import::{parse_event_line, parse_jsonl};
pub use metrics::{HistStat, MetricsDigest, MetricsRegistry, MetricsSink};
pub use sink::{JsonlSink, NoopSink, RingSink, Sink, VecSink};
pub use snapshot::{channel_sink, parse_stream_line, NodeSnap, Snapshot, StreamEvent, StreamSink};
pub use summary::{
    summarize, summarize_lossy, DaemonEpochRecord, LifecycleViolation, PageLifecycle, Summary,
    ThresholdStep,
};
