//! Differential-oracle and runtime invariant checking (**hvc-check**).
//!
//! The paper's whole design rests on one guarantee: every physical
//! block has exactly one name in the hierarchy, maintained by OS flush
//! requests on unmap, ASID destruction and sharing transitions. This
//! crate turns that guarantee (and its supporting invariants) into
//! executable checks:
//!
//! * [`Oracle`] observes the measured run: installed as the measured
//!   [`hvc_core::SystemSim`]'s [`hvc_core::CheckHooks`], it steps a
//!   physically-addressed reference machine (natively, or the nested
//!   baseline in a guest VM) with every reference and churn batch in the
//!   order the measured machine executes them — on one core or across
//!   the quantum schedule's per-core turns — and compares the
//!   OS-visible outcome of every access (frame, permissions, synonym
//!   status) and the per-space synonym partition.
//! * [`check_system`] / [`check_virt`] sweep a native / virtualized
//!   simulator's entire state:
//!   no virtually tagged line without a mapping (stale line), at most
//!   one writable name per machine line (single-name), every TLB entry
//!   consistent with the page tables, no synonym page missing from its
//!   filter (false negative), and an empty flush queue.
//! * [`stress`] generates seeded scripts of OS churn interleaved with
//!   traffic and shrinks failures to minimal reproducers.
//!
//! The measured report is the same with the oracle installed or not:
//! the oracle only reads the machine it observes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod invariants;
mod oracle;
pub mod stress;
mod violation;

pub use invariants::{check_system, check_virt};
pub use oracle::{CheckConfig, Oracle};
pub use violation::Violation;
