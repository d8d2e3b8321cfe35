//! Typed trace events.
//!
//! Every engine arm emits the same small vocabulary of events, so one
//! trace answers the evaluation's breakdown questions: where did latch
//! time go (and on *which* piece), when did cracking converge, what did
//! compaction actually move, and how often did snapshot validation retry.

use crate::json::Json;

/// Latch acquisition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchMode {
    /// Shared (read) acquisition.
    Read,
    /// Exclusive (write) acquisition.
    Write,
}

impl LatchMode {
    fn label(self) -> &'static str {
        match self {
            LatchMode::Read => "read",
            LatchMode::Write => "write",
        }
    }
}

/// One traced engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A latch acquisition that had to wait: which object (piece start
    /// position, or [`TraceEvent::COLUMN_LATCH`] for the column latch), in
    /// which mode, and for how long.
    LatchWait {
        /// Piece start position, or [`TraceEvent::COLUMN_LATCH`] for the
        /// column-level latch.
        piece: u64,
        /// Acquisition mode.
        mode: LatchMode,
        /// Nanoseconds spent waiting.
        ns: u64,
    },
    /// One crack (piece partition) step.
    Crack {
        /// Start position of the piece that was split.
        piece: u64,
        /// The crack value (pivot).
        pivot: i64,
        /// Rows in the partitioned range: the rows the pass read, and an
        /// upper bound on the rows it moved.
        rows: u64,
        /// Nanoseconds spent partitioning.
        ns: u64,
    },
    /// One incremental compaction walk step (piece-at-a-time delta merge).
    CompactionStep {
        /// Walk cursor position the step started at.
        piece: u64,
        /// Rows physically reconciled (swept + merged) by the step.
        rows: u64,
        /// Nanoseconds the step took.
        ns: u64,
    },
    /// A read or delete whose shrink-epoch validation failed and retried.
    SnapshotRetry {
        /// How many failures this operation has accumulated so far.
        attempt: u32,
    },
    /// Pending delta rows physically merged into the main array — either a
    /// piece-local hole fill or a full quiescing rebuild.
    DeltaMerge {
        /// Rows merged out of the delta.
        rows: u64,
        /// Nanoseconds the merge took.
        ns: u64,
        /// True for a full quiescing rebuild, false for a piece-local
        /// merge.
        rebuild: bool,
    },
    /// One executed equi-join between two table engines: which physical
    /// strategy ran and how many output pairs it produced.
    Join {
        /// Physical strategy label: `"auto"` (the engine's join, a hash
        /// join over both sides' key runs) or `"nested_loop"`.
        strategy: &'static str,
        /// `(left rowid, right rowid)` pairs emitted.
        pairs: u64,
        /// Nanoseconds the join phase took (filtering excluded).
        ns: u64,
    },
}

impl TraceEvent {
    /// Sentinel `piece` value meaning "the column-level latch".
    pub const COLUMN_LATCH: u64 = u64::MAX;

    /// Stable snake_case tag identifying the event type (the `ev` field
    /// of the JSONL encoding).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::LatchWait { .. } => "latch_wait",
            TraceEvent::Crack { .. } => "crack",
            TraceEvent::CompactionStep { .. } => "compaction_step",
            TraceEvent::SnapshotRetry { .. } => "snapshot_retry",
            TraceEvent::DeltaMerge { .. } => "delta_merge",
            TraceEvent::Join { .. } => "join",
        }
    }

    /// All six tags, for completeness checks.
    pub fn all_tags() -> [&'static str; 6] {
        [
            "latch_wait",
            "crack",
            "compaction_step",
            "snapshot_retry",
            "delta_merge",
            "join",
        ]
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        match *self {
            TraceEvent::LatchWait { piece, mode, ns } => vec![
                (
                    "piece",
                    if piece == Self::COLUMN_LATCH {
                        Json::str("column")
                    } else {
                        Json::UInt(piece)
                    },
                ),
                ("mode", Json::str(mode.label())),
                ("ns", Json::UInt(ns)),
            ],
            TraceEvent::Crack {
                piece,
                pivot,
                rows,
                ns,
            } => vec![
                ("piece", Json::UInt(piece)),
                (
                    "pivot",
                    if pivot < 0 {
                        Json::Int(pivot)
                    } else {
                        Json::UInt(pivot as u64)
                    },
                ),
                ("rows", Json::UInt(rows)),
                ("ns", Json::UInt(ns)),
            ],
            TraceEvent::CompactionStep { piece, rows, ns } => vec![
                ("piece", Json::UInt(piece)),
                ("rows", Json::UInt(rows)),
                ("ns", Json::UInt(ns)),
            ],
            TraceEvent::SnapshotRetry { attempt } => {
                vec![("attempt", Json::UInt(attempt as u64))]
            }
            TraceEvent::DeltaMerge { rows, ns, rebuild } => vec![
                ("rows", Json::UInt(rows)),
                ("ns", Json::UInt(ns)),
                ("rebuild", Json::Bool(rebuild)),
            ],
            TraceEvent::Join {
                strategy,
                pairs,
                ns,
            } => vec![
                ("strategy", Json::str(strategy)),
                ("pairs", Json::UInt(pairs)),
                ("ns", Json::UInt(ns)),
            ],
        }
    }
}

/// A trace event plus its capture context: nanoseconds since tracing was
/// enabled and the emitting thread's (process-local) trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since tracing was enabled.
    pub t_ns: u64,
    /// Process-local id of the emitting thread.
    pub thread: u32,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Encodes the record as one JSON object (one JSONL line, without the
    /// trailing newline).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ev".to_string(), Json::str(self.event.tag())),
            ("t_ns".to_string(), Json::UInt(self.t_ns)),
            ("thread".to_string(), Json::UInt(self.thread as u64)),
        ];
        for (k, v) in self.event.fields() {
            pairs.push((k.to_string(), v));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_type_encodes_with_its_tag() {
        let events = [
            TraceEvent::LatchWait {
                piece: 7,
                mode: LatchMode::Write,
                ns: 1500,
            },
            TraceEvent::Crack {
                piece: 0,
                pivot: -3,
                rows: 4096,
                ns: 900,
            },
            TraceEvent::CompactionStep {
                piece: 64,
                rows: 12,
                ns: 400,
            },
            TraceEvent::SnapshotRetry { attempt: 2 },
            TraceEvent::DeltaMerge {
                rows: 8,
                ns: 300,
                rebuild: false,
            },
            TraceEvent::Join {
                strategy: "auto",
                pairs: 77,
                ns: 9_000,
            },
        ];
        for (event, tag) in events.into_iter().zip(TraceEvent::all_tags()) {
            assert_eq!(event.tag(), tag);
            let record = TraceRecord {
                t_ns: 10,
                thread: 1,
                event,
            };
            let json = record.to_json();
            assert_eq!(json.get("ev").unwrap().as_str(), Some(tag));
            assert_eq!(json.get("t_ns").unwrap().as_u64(), Some(10));
            // Round-trips through the parser.
            assert_eq!(Json::parse(&json.render()).unwrap(), json);
        }
    }

    #[test]
    fn column_latch_sentinel_renders_as_a_label() {
        let record = TraceRecord {
            t_ns: 0,
            thread: 0,
            event: TraceEvent::LatchWait {
                piece: TraceEvent::COLUMN_LATCH,
                mode: LatchMode::Read,
                ns: 5,
            },
        };
        assert_eq!(
            record.to_json().get("piece").unwrap().as_str(),
            Some("column")
        );
    }
}
