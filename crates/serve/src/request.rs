//! Parsing and validation of `POST /sweep` request bodies.
//!
//! The body is a JSON object mirroring the sweep CLI: an optional
//! `preset` resolved first, then per-field overrides — the same
//! precedence as `hvcsim sweep --preset … --refs …`. Everything funnels
//! into the existing [`Experiment`] machinery, so a grid that validates
//! on the command line validates identically over HTTP.
//!
//! ```text
//! { "preset": "smoke",                  // optional, see GET /presets
//!   "workloads": ["gups", "mcf"],      // optional overrides …
//!   "schemes": ["baseline", "manyseg"],
//!   "filters": ["bloom", "rlt"],
//!   "seeds": [42], "llc_bytes": [2097152],
//!   "refs": 20000, "warm": 5000, "mem": 16777216,
//!   "cores": 1, "ifetch": false, "obs": false }
//! ```
//!
//! Unknown fields are rejected rather than ignored — a typo like
//! `"shcemes"` silently running the wrong grid is the failure mode a
//! shared service cannot afford. `replay` is rejected explicitly:
//! trace paths name files on the *server*, and the cell keys of replay
//! runs hash the path, not the trace bytes.

use hvc_runner::json::{self, Value};
use hvc_runner::{presets, Experiment};

/// Parses and validates a request body into a runnable [`Experiment`].
pub fn parse_sweep_request(body: &[u8]) -> Result<Experiment, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let Value::Object(fields) = &doc else {
        return Err("body must be a JSON object".into());
    };

    // Preset first, so later fields override it (CLI precedence).
    let mut exp = match doc.get("preset") {
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| "preset must be a string".to_string())?;
            presets::preset(name).ok_or_else(|| format!("unknown preset '{name}'"))?
        }
        None => Experiment::default(),
    };

    for (field, value) in fields {
        match field.as_str() {
            "preset" => {} // consumed above
            "workloads" => exp.workloads = string_list(field, value)?,
            "schemes" => exp.schemes = string_list(field, value)?,
            "filters" => exp.filters = string_list(field, value)?,
            "seeds" => exp.seeds = u64_list(field, value)?,
            "llc_bytes" => exp.llc_bytes = u64_list(field, value)?,
            "refs" => exp.refs = usize_field(field, value)?,
            "warm" => exp.warm = usize_field(field, value)?,
            "mem" => exp.mem = u64_field(field, value)?,
            "cores" => exp.cores = usize_field(field, value)?,
            "ifetch" => exp.ifetch = bool_field(field, value)?,
            "obs" => exp.obs = bool_field(field, value)?,
            "replay" => {
                return Err(
                    "replay is not supported over the server API (trace paths are server-local)"
                        .into(),
                )
            }
            other => return Err(format!("unknown field '{other}'")),
        }
    }
    exp.name = match doc.get("preset").and_then(Value::as_str) {
        Some(name) => name.to_string(),
        None => "custom".to_string(),
    };
    exp.replay = None;
    exp.validate()?;
    Ok(exp)
}

fn string_list(field: &str, v: &Value) -> Result<Vec<String>, String> {
    v.as_array()
        .and_then(|items| {
            items
                .iter()
                .map(|i| i.as_str().map(String::from))
                .collect::<Option<Vec<_>>>()
        })
        .ok_or_else(|| format!("{field} must be an array of strings"))
}

fn u64_list(field: &str, v: &Value) -> Result<Vec<u64>, String> {
    v.as_array()
        .and_then(|items| items.iter().map(Value::as_u64).collect::<Option<Vec<_>>>())
        .ok_or_else(|| format!("{field} must be an array of non-negative integers"))
}

fn u64_field(field: &str, v: &Value) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{field} must be a non-negative integer"))
}

fn usize_field(field: &str, v: &Value) -> Result<usize, String> {
    u64_field(field, v).map(|n| n as usize)
}

fn bool_field(field: &str, v: &Value) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("{field} must be a boolean")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_with_overrides_matches_cli_precedence() {
        let exp = parse_sweep_request(br#"{"preset": "smoke", "refs": 4000, "obs": true}"#)
            .expect("valid request");
        let base = presets::preset("smoke").unwrap();
        assert_eq!(exp.name, "smoke");
        assert_eq!(exp.refs, 4_000, "override applies");
        assert_eq!(exp.warm, base.warm, "unset fields keep the preset");
        assert_eq!(exp.workloads, base.workloads);
        assert!(exp.obs);
    }

    #[test]
    fn bare_grid_without_a_preset() {
        let exp = parse_sweep_request(
            br#"{"workloads": ["gups"], "schemes": ["baseline", "ideal"],
                 "seeds": [1, 2], "refs": 1000, "warm": 0, "mem": 16777216}"#,
        )
        .unwrap();
        assert_eq!(exp.name, "custom");
        assert_eq!(exp.cells().len(), 4);
    }

    #[test]
    fn rejects_malformed_bodies() {
        for (body, needle) in [
            (&b"not json"[..], "JSON"),
            (b"[1,2]", "object"),
            (br#"{"preset": "warp"}"#, "preset"),
            (br#"{"shcemes": ["baseline"]}"#, "unknown field"),
            (br#"{"refs": "many"}"#, "refs"),
            (br#"{"workloads": [1]}"#, "workloads"),
            (br#"{"ifetch": 1}"#, "ifetch"),
            (br#"{"replay": "/tmp/t.hvct"}"#, "replay"),
            (br#"{"schemes": ["bogus"]}"#, "scheme"),
            (br#"{"schemes": ["dtlb:12"]}"#, "delayed TLB size"),
            (br#"{"filters": ["cuckoo"]}"#, "filter"),
            (br#"{"refs": 0}"#, "refs"),
            (br#"{"shards": 8}"#, "unknown field"),
        ] {
            let err = parse_sweep_request(body).expect_err(&format!("{body:?} accepted"));
            assert!(
                err.contains(needle),
                "error {err:?} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn field_order_does_not_matter_for_preset_overrides() {
        let a = parse_sweep_request(br#"{"refs": 777, "preset": "smoke"}"#).unwrap();
        let b = parse_sweep_request(br#"{"preset": "smoke", "refs": 777}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.refs, 777);
    }
}
