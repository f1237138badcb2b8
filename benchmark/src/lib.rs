//! Layered end-to-end benchmark for the AIM-II reproduction.
//!
//! See `README.md` in this directory for the workloads, the metric
//! glossary and how to run, compare and read a trace.

pub mod cli;
pub mod compare;
pub mod engine;
pub mod gen;
pub mod json;
pub mod lifecycle;
pub mod manifest;
pub mod oracle;
pub mod outcome;
pub mod peel;
pub mod probes;
pub mod run;
pub mod socket;
pub mod span;
pub mod spec;
pub mod suite;
pub mod summary;
pub mod workloads;
