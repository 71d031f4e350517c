//! Experiment library behind the `lrm-cli` binary.
//!
//! [`experiments`] holds one driver per table/figure of the paper;
//! [`table`] renders their outputs as aligned text tables. The workspace
//! integration tests reuse these drivers so that "what the CLI prints"
//! and "what the tests assert" are the same code path.

pub mod experiments;
pub mod service;
pub mod table;
