//! Experiment orchestration for the HVC simulator.
//!
//! This crate turns single simulator runs into **sweeps**: the
//! cartesian product of workload × scheme × seed × cache-configuration
//! axes, executed on a pool of worker threads and written out as one
//! JSON report. It owns
//!
//! * [`Experiment`] — the grid type, with [`presets`] for the paper's
//!   figures and tables (`fig9`, `table2`, …); a `vm:` scheme runs its
//!   cell's workload in a guest VM,
//! * [`tables`] — the reductions that print each paper result's table
//!   from its preset's sweep report (`hvcsim table`),
//! * [`run_sweep`] — the parallel executor; every cell is one
//!   continuous run ([`run_cell`]: one warm-up, one measured window) in
//!   its own [`hvc_core::SystemSim`] with a seed derived from the grid
//!   position, so results are a pure function of the experiment and do
//!   not depend on `--jobs` or scheduling order,
//! * [`sweep_report`] — a self-describing JSON document (schema
//!   [`report::SCHEMA`]) with exact `u64` counters, written and parsed
//!   by the dependency-free [`json`] module,
//! * [`cell_key`] — the stable 64-bit memoization key of one cell
//!   (schema [`KEY_SCHEMA`]), which the `hvcsim serve` result cache and
//!   crash-resume spool index by,
//! * [`write_atomic`] — crash-safe write-temp-then-rename file output,
//!   shared by the CLI report writers and the server spool.
//!
//! # Examples
//!
//! ```
//! use hvc_runner::{presets, run_sweep, sweep_report, RunOptions};
//!
//! let mut exp = presets::preset("smoke").unwrap();
//! exp.refs = 2_000; // keep the doctest quick
//! exp.warm = 500;
//! let opts = RunOptions { jobs: 2, check: false };
//! let outcome = run_sweep(&exp, &opts).unwrap();
//! let doc = sweep_report(&exp, &opts, &outcome);
//! assert_eq!(doc.get("cells").unwrap().as_array().unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
pub mod fsio;
mod grid;
pub mod json;
mod key;
pub mod params;
pub mod presets;
pub mod report;
pub mod tables;

pub use exec::{
    run_cell, run_cell_mc, run_sweep, CellResult, FilterOccupancy, RunOptions, SweepOutcome,
    MC_QUANTUM,
};
pub use fsio::write_atomic;
pub use grid::{Cell, Experiment};
pub use key::{cell_key, cell_key_hex, KEY_SCHEMA};
pub use report::{run_report_value, sweep_report, trace_events_json};
