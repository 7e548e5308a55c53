//! Stable cell keys for memoizing per-cell results.
//!
//! A cell's statistics are a **pure function** of the inputs
//! hashed here — workload profile, scheme string, synonym-filter
//! strategy, the derived per-cell
//! seed, LLC capacity, and the experiment-level knobs that shape the
//! reference stream (`refs`, `warm`, `mem`, `cores`, `ifetch`, and the
//! replay path, if any). [`cell_key`] folds those into one 64-bit
//! FNV-1a hash of a canonical byte string, so two cells collide exactly
//! when they would produce identical statistics (up to hash collision,
//! which at 64 bits is negligible for any realistic result store).
//!
//! Keys are used by the `hvcsim serve` result cache and its on-disk
//! spool: a completed cell is stored under its key and replayed on any
//! later request — even after a server restart — whose grid contains a
//! config-identical cell.
//!
//! Deliberately **excluded** from the key:
//!
//! * `obs` — statistics collection is always on; the flag only widens
//!   the JSON serialization (see [`Experiment::obs`]), and consumers
//!   strip the observability sections at serialization time.
//! * the grid *position* (`index`, `base_seed`) — only the derived
//!   per-cell seed matters; two grids that derive the same seed for a
//!   config-identical cell genuinely share the result.
//!
//! A caveat on `replay`: the trace **path** is hashed, not the trace
//! contents, so persisted keys are only trustworthy for generated
//! workloads. The experiment server rejects replay requests outright.
//!
//! The canonical form is versioned as [`KEY_SCHEMA`]; any change to the
//! statistics' dependence on the inputs must bump it so stale spools
//! are never mistaken for current results.

use crate::grid::{Cell, Experiment};

/// Version tag mixed into every key. Bump when the canonical form — or
/// anything that changes what statistics a given config produces —
/// changes, so persisted results from older builds never alias.
/// `/2`: `cores > 1` cells moved to the multi-core engine (per-core
/// clocks, quantum scheduling, shootdown costs), changing their stats.
/// `/3`: the synonym-filter strategy (`filter=bloom|rlt`) became a grid
/// axis and entered the canonical form.
/// `/4`: long runs (`refs ≥ 131,072`) were measured as independent
/// re-seeded slices merged in order, changing their statistics; short
/// runs were unchanged but shared the bump so no spool mixed engines.
/// `/5`: long runs are continuous again; their `/4` spools hold sliced
/// statistics and must never alias.
pub const KEY_SCHEMA: &str = "hvc-cell-key/5";

/// The stable 64-bit key of one grid cell under its experiment.
///
/// Equal keys ⇔ equal cell configurations (workload, scheme, filter,
/// derived
/// seed, LLC bytes, refs, warm, mem, cores, ifetch, replay path), up to
/// 64-bit hash collision. See the module docs for what is excluded and
/// why.
pub fn cell_key(exp: &Experiment, cell: &Cell) -> u64 {
    fnv1a64(canonical_form(exp, cell).as_bytes())
}

/// [`cell_key`] formatted as a fixed-width lowercase hex string — the
/// spelling used in spool filenames and NDJSON events.
pub fn cell_key_hex(exp: &Experiment, cell: &Cell) -> String {
    format!("{:016x}", cell_key(exp, cell))
}

/// The canonical byte string that is hashed. Decimal fields joined by
/// newlines: no endianness, no struct layout, stable across platforms.
fn canonical_form(exp: &Experiment, cell: &Cell) -> String {
    format!(
        "{KEY_SCHEMA}\nworkload={}\nscheme={}\nfilter={}\nseed={}\nllc={}\nrefs={}\nwarm={}\nmem={}\ncores={}\nifetch={}\nreplay={}\n",
        cell.workload,
        cell.scheme,
        cell.filter,
        cell.seed,
        cell.llc_bytes,
        exp.refs,
        exp.warm,
        exp.mem,
        exp.cores,
        exp.ifetch,
        exp.replay.as_deref().unwrap_or("-"),
    )
}

/// 64-bit FNV-1a — tiny, dependency-free, and stable by specification.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::preset;

    #[test]
    fn keys_are_a_pure_function_of_the_config() {
        let exp = preset("smoke").unwrap();
        for cell in exp.cells() {
            assert_eq!(cell_key(&exp, &cell), cell_key(&exp, &cell));
            assert_eq!(cell_key_hex(&exp, &cell).len(), 16);
        }
    }

    #[test]
    fn smoke_grid_keys_are_distinct() {
        let exp = preset("smoke").unwrap();
        let cells = exp.cells();
        let keys: Vec<u64> = cells.iter().map(|c| cell_key(&exp, c)).collect();
        for i in 0..keys.len() {
            for j in 0..i {
                assert_ne!(keys[i], keys[j], "cells {i} and {j} alias");
            }
        }
    }

    #[test]
    fn grid_position_does_not_leak_into_the_key() {
        // The same config at a different index keys identically as long
        // as the derived seed matches: reindex cell 1 as cell 0.
        let exp = preset("smoke").unwrap();
        let cells = exp.cells();
        let mut moved = cells[1].clone();
        moved.index = 0;
        moved.base_seed = 7; // position metadata, not config
        assert_eq!(cell_key(&exp, &cells[1]), cell_key(&exp, &moved));
    }

    #[test]
    fn every_hashed_field_changes_the_key() {
        let exp = preset("smoke").unwrap();
        let cell = exp.cells().remove(0);
        let base = cell_key(&exp, &cell);

        let mut c = cell.clone();
        c.workload = "mcf".into();
        assert_ne!(base, cell_key(&exp, &c));
        let mut c = cell.clone();
        c.scheme = "ideal".into();
        assert_ne!(base, cell_key(&exp, &c));
        let mut c = cell.clone();
        c.filter = "rlt".into();
        assert_ne!(base, cell_key(&exp, &c));
        let mut c = cell.clone();
        c.seed ^= 1;
        assert_ne!(base, cell_key(&exp, &c));
        let mut c = cell.clone();
        c.llc_bytes *= 2;
        assert_ne!(base, cell_key(&exp, &c));

        let mut e = exp.clone();
        e.refs += 1;
        assert_ne!(base, cell_key(&e, &cell));
        let mut e = exp.clone();
        e.warm += 1;
        assert_ne!(base, cell_key(&e, &cell));
        let mut e = exp.clone();
        e.mem *= 2;
        assert_ne!(base, cell_key(&e, &cell));
        let mut e = exp.clone();
        e.cores += 1;
        assert_ne!(base, cell_key(&e, &cell));
        let mut e = exp.clone();
        e.ifetch = true;
        assert_ne!(base, cell_key(&e, &cell));
        let mut e = exp.clone();
        e.replay = Some("t.hvct".into());
        assert_ne!(base, cell_key(&e, &cell));
    }

    #[test]
    fn excluded_knobs_do_not_change_the_key() {
        let exp = preset("smoke").unwrap();
        let cell = exp.cells().remove(0);
        let base = cell_key(&exp, &cell);
        let mut e = exp.clone();
        e.obs = true;
        e.name = "renamed".into();
        assert_eq!(base, cell_key(&e, &cell));
    }

    #[test]
    fn field_values_cannot_smear_across_separators() {
        // "ab" + "c" must not alias "a" + "bc": fields are delimited,
        // not concatenated.
        let exp = preset("smoke").unwrap();
        let mut a = exp.cells().remove(0);
        a.workload = "gupsx".into();
        let mut b = a.clone();
        b.workload = "gups".into();
        b.scheme = format!("x{}", a.scheme);
        assert_ne!(cell_key(&exp, &a), cell_key(&exp, &b));
    }
}
