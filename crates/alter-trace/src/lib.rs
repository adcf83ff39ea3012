//! Deterministic structured tracing for the ALTER runtime.
//!
//! This crate is the observability layer of the workspace: a compact
//! [`Event`] taxonomy covering the transaction lifecycle (round start,
//! task start, validate ok/conflict, commit, squash, reduction merge,
//! OOM, crash) and the annotation-inference search (probe start/outcome),
//! a [`Recorder`] sink abstraction with a zero-cost [`NopRecorder`] and a
//! bounded [`RingRecorder`] flight buffer, plus four consumers:
//!
//! * [`Metrics`] — counters and fixed power-of-two-bucket [`Histogram`]s
//!   folded from a trace (retry rate, read/write-set sizes, validation
//!   words),
//! * [`to_jsonl`] — a canonical JSONL export (one event per line, fixed
//!   field order, no external deps),
//! * [`render_timeline`] — a human-readable round-by-round flight
//!   recorder with conflict explanations,
//! * [`trace_hash`] — a stable 64-bit FNV-1a hash over the canonical
//!   JSONL bytes.
//!
//! # Determinism contract
//!
//! Events carry only deterministic payloads (sequence numbers, word
//! indices, object ids — never wall-clock times or addresses) and engine
//! emissions happen only on the coordinating thread during the sequential
//! validate/commit phase. Therefore a trace is a pure function of the
//! program and its annotation, and [`trace_hash`] is a determinism
//! oracle: two runs of the same workload under the same annotation must
//! hash identically, and any divergence is an engine bug.
//!
//! # Overhead contract
//!
//! Emission sites branch on [`Recorder::is_enabled`] *before* building an
//! event, so with a [`NopRecorder`] the hot path pays one predictable
//! branch and constructs nothing.

pub mod event;
pub mod hash;
pub mod journal;
pub mod jsonl;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod render;

pub use event::{ConflictKind, Event, Phase};
pub use hash::{format_hash, trace_hash, TraceHasher};
pub use journal::{Journal, JournalHeader, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use jsonl::{event_json, from_jsonl, parse_set, render_set, to_jsonl, ParseTraceError};
pub use metrics::{Histogram, Metrics, HISTOGRAM_BUCKETS};
pub use profile::{WallProfile, PHASE_COUNT};
pub use recorder::{NopRecorder, Recorder, RingRecorder, DEFAULT_RING_CAPACITY};
pub use render::render_timeline;
