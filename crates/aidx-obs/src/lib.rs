//! Observability for the adaptive-indexing engines: structured event
//! tracing and structure/convergence introspection.
//!
//! The paper's evaluation hinges on *distributions*, not averages: Figure
//! 13/15 break response time into wait / crack / aggregate components, and
//! the interesting behaviour (latch convoys in the early, expensive
//! cracking phase; snapshot retries under reclamation) lives in the tail.
//! This crate supplies the two instruments the rest of the workspace
//! threads through every engine arm:
//!
//! - [`trace`] — bounded per-thread ring buffers of typed [`TraceEvent`]s
//!   drained to JSONL; one relaxed atomic load per call site when
//!   disabled, an empty inline function when built without the `trace`
//!   feature.
//! - [`structure`] — [`StructureProbe`], the one record of piece layout,
//!   delta pressure, and per-range load.
//! - [`json`] — the dependency-free JSON writer/parser the above encode
//!   with.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod structure;
pub mod trace;

pub use event::{LatchMode, TraceEvent, TraceRecord};
pub use json::Json;
pub use structure::StructureProbe;
pub use trace::{
    disable, drain, drain_jsonl, dropped_events, emit, enable, enable_with_capacity, enabled,
    DEFAULT_RING_CAPACITY,
};
