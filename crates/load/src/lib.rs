#![warn(missing_docs)]

//! # cf-load
//!
//! Open-loop load generation for the cf-serve wire protocol (DESIGN.md
//! §14). A closed-loop client (send, wait, send) can never observe
//! queueing collapse: its offered rate falls exactly as the server slows
//! down. This crate instead fixes the arrival schedule *before* the run —
//! requests are sent at their scheduled instants whether or not earlier
//! ones have been answered — so latency under overload is measured
//! honestly and admission control has something real to push back on.
//!
//! The whole plan is a pure function of its [`plan::PlanConfig`] (arrival
//! process, rate, zipf exponent, seed) and the loaded graph: two runs with
//! the same config generate byte-identical request streams, which is what
//! lets CI diff response bytes across server shard counts.
//!
//! - [`arrival`] — deterministic Poisson/uniform arrival offsets;
//! - [`zipf`] — zipfian entity-popularity sampling over the store;
//! - [`plan`] — arrival offsets × popularity → an event plan with warmup
//!   and measurement windows and an optional reload mix;
//! - [`runner`] — renders the plan to wire lines, drives a TCP server
//!   over N connections, and folds replies into a [`LoadReport`].

pub mod arrival;
pub mod plan;
pub mod runner;
pub mod zipf;

pub use arrival::{arrival_offsets_us, check_rate, ArrivalProcess};
pub use plan::{build_plan, Event, EventKind, PlanConfig};
pub use runner::{
    canonical_dump, fold_report, render_events, run_tcp, sleep_until, LoadReport, PreparedEvent,
    RunOutcome,
};
pub use zipf::{check_exponent, ZipfSampler};
