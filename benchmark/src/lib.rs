//! The repo's one yardstick: four closed-loop workloads over the adaptive
//! indexing engine, measured end to end and per layer from outside the
//! engine crates. See `README.md` beside this package.

pub mod col;
pub mod gen;
pub mod ledger;
pub mod measure;
pub mod outcome;
pub mod probes;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod table;
pub mod verify;
