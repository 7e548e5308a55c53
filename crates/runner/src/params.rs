//! Shared parsing of workload names, scheme strings, and sizes.
//!
//! Both the `hvcsim` CLI and the sweep grid accept the same spellings;
//! keeping the parsers here means a scheme string that works for a
//! single run works unchanged as a grid axis value.

use hvc_core::{TranslationScheme, VirtScheme};
use hvc_os::{AllocPolicy, FilterKind};
use hvc_workloads::{apps, WorkloadSpec};

/// The synonym-heavy subset (Table I / Table II workloads).
pub const SYNONYM_WORKLOADS: &[&str] = &["ferret", "postgres", "specjbb", "firefox", "apache"];

/// Multi-process churn profiles built for multi-core (`--cores N`)
/// runs: their address-space mutations generate the directed TLB
/// shootdowns the coherence cost model prices. No paper-result preset
/// runs them.
pub const MC_WORKLOADS: &[&str] = &["fork_storm", "shm_heavy"];

/// Synonym-stress profiles built to churn the synonym filter itself
/// (KSM-style dedup merge/break, COW fork storms, reader/writer shm
/// rotation). Like [`MC_WORKLOADS`], no paper-result preset runs them;
/// they drive the filter-strategy comparison grids instead.
pub const STRESS_WORKLOADS: &[&str] = &["ksm_dedup", "cow_storm", "shm_rotate"];

/// Parses a size with an optional `K`/`M`/`G` suffix (`8M` → `8 << 20`).
pub fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Looks up a workload profile by name; `gups_mem` sizes the GUPS table.
pub fn workload_by_name(name: &str, gups_mem: u64) -> Option<WorkloadSpec> {
    Some(match name {
        "gups" => apps::gups(gups_mem),
        "milc" => apps::milc(),
        "mcf" => apps::mcf(),
        "xalancbmk" => apps::xalancbmk(),
        "tigr" => apps::tigr(),
        "omnetpp" => apps::omnetpp(),
        "soplex" => apps::soplex(),
        "astar" => apps::astar(),
        "cactus" => apps::cactus(),
        "gems" => apps::gems(),
        "canneal" => apps::canneal(),
        "stream" => apps::stream(),
        "mummer" => apps::mummer(),
        "memcached" => apps::memcached(),
        "cg" => apps::npb_cg(),
        "graph500" => apps::graph500(),
        "ferret" => apps::ferret(),
        "postgres" => apps::postgres(),
        "specjbb" => apps::specjbb(),
        "firefox" => apps::firefox(),
        "apache" => apps::apache(),
        "fork_storm" => apps::fork_storm(),
        "shm_heavy" => apps::shm_heavy(),
        "ksm_dedup" => apps::ksm_dedup(),
        "cow_storm" => apps::cow_storm(),
        "shm_rotate" => apps::shm_rotate(),
        _ => return None,
    })
}

/// Parses a scheme string — `baseline`, `ideal`, `dtlb:<entries>`,
/// `manyseg`, `manyseg-nosc`, `enigma:<entries>` or `rmm` — together
/// with the allocation policy the scheme requires (many-segment
/// translation and RMM need eagerly reserved segments).
pub fn parse_scheme(s: &str) -> Option<(TranslationScheme, AllocPolicy)> {
    let demand = AllocPolicy::DemandPaging;
    let eager = AllocPolicy::EagerSegments { split: 1 };
    Some(match s {
        "baseline" => (TranslationScheme::Baseline, demand),
        "ideal" => (TranslationScheme::Ideal, demand),
        "manyseg" => (
            TranslationScheme::HybridManySegment {
                segment_cache: true,
            },
            eager,
        ),
        "manyseg-nosc" => (
            TranslationScheme::HybridManySegment {
                segment_cache: false,
            },
            eager,
        ),
        "rmm" => (TranslationScheme::Rmm, eager),
        _ => {
            if let Some(n) = s.strip_prefix("dtlb:") {
                (TranslationScheme::HybridDelayedTlb(n.parse().ok()?), demand)
            } else if let Some(n) = s.strip_prefix("enigma:") {
                (TranslationScheme::EnigmaDelayedTlb(n.parse().ok()?), demand)
            } else {
                return None;
            }
        }
    })
}

/// Parses a guest-VM scheme string — `vm:nested` (the nested
/// translation-cache baseline), `vm:dtlb:<entries>` or `vm:seg` (2D
/// segments). These share the scheme axis with the native spellings of
/// [`parse_scheme`]; a cell whose scheme parses here runs one guest VM.
pub fn parse_vm_scheme(s: &str) -> Option<VirtScheme> {
    Some(match s.strip_prefix("vm:")? {
        "nested" => VirtScheme::NestedBaseline,
        "seg" => VirtScheme::HybridNestedSegments,
        rest => VirtScheme::HybridDelayedNested(rest.strip_prefix("dtlb:")?.parse().ok()?),
    })
}

/// Guest-physical and machine memory of a VM cell whose GUPS table is
/// `mem` bytes: the guest gets `max(4·mem, 1 GiB)`, the host 1 GiB more.
pub fn vm_memory(mem: u64) -> (u64, u64) {
    let guest = (mem * 4).max(1 << 30);
    (guest, guest + (1 << 30))
}

/// Parses a synonym-filter strategy name (`bloom` / `rlt`) — the grid's
/// `filter` axis and the CLI's `--filter` flag share this spelling with
/// [`FilterKind::parse`].
pub fn parse_filter(s: &str) -> Option<FilterKind> {
    FilterKind::parse(s)
}

/// The delayed-TLB entry count of a scheme string, native or guest VM:
/// `N` for `dtlb:N`, `enigma:N` and `vm:dtlb:N`; `None` for schemes
/// without a delayed TLB.
fn delayed_entries(scheme: &str) -> Option<usize> {
    match (parse_vm_scheme(scheme), parse_scheme(scheme)) {
        (Some(VirtScheme::HybridDelayedNested(n)), _)
        | (
            _,
            Some((
                TranslationScheme::HybridDelayedTlb(n) | TranslationScheme::EnigmaDelayedTlb(n),
                _,
            )),
        ) => Some(n),
        _ => None,
    }
}

/// The delayed-TLB entry count the energy model charges for a scheme
/// string: its delayed-TLB size, or the paper's default 4096 for schemes
/// without a delayed TLB.
pub fn energy_entries(scheme: &str) -> usize {
    delayed_entries(scheme).unwrap_or(4096)
}

/// Checks a scheme string's delayed-TLB size against the geometry
/// `hvc_tlb::TlbConfig::delayed` builds: 8 ways and a power-of-two set
/// count, so the valid sizes are the powers of two from 8 up. Schemes
/// without a delayed TLB pass.
pub fn check_delayed_tlb(scheme: &str) -> Result<(), String> {
    match delayed_entries(scheme) {
        Some(n) if n < 8 || !n.is_power_of_two() => Err(format!(
            "scheme '{scheme}': delayed TLB size {n} is not a valid 8-way geometry \
             (use a power of two ≥ 8, e.g. 1024 or 4096)"
        )),
        _ => Ok(()),
    }
}

/// Validates an LLC capacity against the fixed 16-way, 64-byte-line
/// geometry (the set count must be a power of two).
pub fn valid_llc(bytes: u64) -> bool {
    let lines = bytes / 64;
    lines > 0 && lines.is_multiple_of(16) && (lines / 16).is_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("4K"), Some(4 << 10));
        assert_eq!(parse_size("8M"), Some(8 << 20));
        assert_eq!(parse_size("2g"), Some(2 << 30));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn every_listed_workload_resolves() {
        // The sixteen big-memory applications, then the five synonym
        // (r/w-shared) ones, as `hvcsim --list` groups them.
        let paper = [
            "gups",
            "milc",
            "mcf",
            "xalancbmk",
            "tigr",
            "omnetpp",
            "soplex",
            "astar",
            "cactus",
            "gems",
            "canneal",
            "stream",
            "mummer",
            "memcached",
            "cg",
            "graph500",
        ];
        for name in paper
            .iter()
            .chain(SYNONYM_WORKLOADS)
            .chain(MC_WORKLOADS)
            .chain(STRESS_WORKLOADS)
        {
            assert!(workload_by_name(name, 16 << 20).is_some(), "{name}");
        }
        assert!(workload_by_name("nope", 16 << 20).is_none());
    }

    #[test]
    fn mc_workloads_churn_and_stay_out_of_the_paper_grids() {
        let paper_presets = [
            "table1", "table2", "table3", "fig4", "fig9", "fig10", "energy",
        ];
        for name in MC_WORKLOADS.iter().chain(STRESS_WORKLOADS) {
            for p in paper_presets {
                let exp = crate::presets::preset(p).unwrap();
                assert!(!exp.workloads.iter().any(|w| w == name), "{p}: {name}");
            }
            let spec = workload_by_name(name, 16 << 20).unwrap();
            assert!(spec.churn.is_some(), "{name} must churn");
        }
    }

    #[test]
    fn filter_strategies_parse() {
        assert_eq!(parse_filter("bloom"), Some(FilterKind::Bloom));
        assert_eq!(parse_filter("rlt"), Some(FilterKind::Rlt));
        assert!(parse_filter("cuckoo").is_none());
        assert!(parse_filter("").is_none());
    }

    #[test]
    fn schemes() {
        assert!(matches!(
            parse_scheme("baseline"),
            Some((TranslationScheme::Baseline, _))
        ));
        assert!(matches!(
            parse_scheme("dtlb:4096"),
            Some((TranslationScheme::HybridDelayedTlb(4096), _))
        ));
        assert!(matches!(
            parse_scheme("manyseg"),
            Some((
                TranslationScheme::HybridManySegment {
                    segment_cache: true
                },
                _
            ))
        ));
        assert!(matches!(
            parse_scheme("rmm"),
            Some((
                TranslationScheme::Rmm,
                AllocPolicy::EagerSegments { split: 1 }
            ))
        ));
        assert!(parse_scheme("rmm:32").is_none());
        assert!(parse_scheme("dtlb:").is_none());
        assert!(parse_scheme("bogus").is_none());
    }

    #[test]
    fn vm_schemes_parse_beside_the_native_ones() {
        assert_eq!(
            parse_vm_scheme("vm:nested"),
            Some(VirtScheme::NestedBaseline)
        );
        assert_eq!(
            parse_vm_scheme("vm:dtlb:1024"),
            Some(VirtScheme::HybridDelayedNested(1024))
        );
        assert_eq!(
            parse_vm_scheme("vm:seg"),
            Some(VirtScheme::HybridNestedSegments)
        );
        for bad in ["vm:dtlb:", "vm:", "vm:bogus", "dtlb:1024", "nested"] {
            assert!(parse_vm_scheme(bad).is_none(), "{bad}");
        }
        // The native parser's results do not change.
        assert!(parse_scheme("vm:seg").is_none());
        assert_eq!(energy_entries("vm:dtlb:1024"), 1024);
        assert_eq!(energy_entries("dtlb:2048"), 2048);
        assert_eq!(energy_entries("vm:seg"), 4096);
        assert_eq!(vm_memory(64 << 20), (1 << 30, 2 << 30));
        assert_eq!(vm_memory(1 << 30), (4 << 30, 5 << 30));
    }

    #[test]
    fn delayed_tlb_geometry() {
        for ok in ["dtlb:8", "enigma:4096", "vm:dtlb:32768", "manyseg"] {
            assert_eq!(check_delayed_tlb(ok), Ok(()), "{ok}");
        }
        for bad in ["dtlb:0", "dtlb:4", "enigma:3000", "vm:dtlb:24"] {
            let err = check_delayed_tlb(bad).unwrap_err();
            assert!(
                err.contains(bad) && err.contains("power of two ≥ 8"),
                "{err}"
            );
        }
        // Every accepted size is a geometry the TLB builds.
        for n in (0..=1usize << 16).filter(|n| check_delayed_tlb(&format!("dtlb:{n}")).is_ok()) {
            assert!(
                hvc_tlb::TlbConfig::delayed(n).sets().is_power_of_two(),
                "{n}"
            );
        }
    }

    #[test]
    fn llc_geometry() {
        assert!(valid_llc(2 << 20));
        assert!(valid_llc(8 << 20));
        assert!(!valid_llc(3 << 20));
        assert!(!valid_llc(0));
    }
}
