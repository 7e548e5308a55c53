//! Shared knobs of the structure-level experiment benches in `benches/`
//! (plain `main`s, `harness = false`): Table III, Figure 7, the
//! ablations and the extensions. The system-level results are
//! `hvcsim sweep` presets printed by `hvcsim table`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Default physical memory for experiment kernels.
pub const PHYS_BYTES: u64 = 16 << 30;

/// Returns the number of memory references to simulate per configuration,
/// honouring the `HVC_REFS` environment variable (e.g. `HVC_REFS=200000`
/// for a quick pass).
pub fn refs_per_run(default: usize) -> usize {
    std::env::var("HVC_REFS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refs_env_override() {
        std::env::remove_var("HVC_REFS");
        assert_eq!(refs_per_run(123), 123);
    }
}
