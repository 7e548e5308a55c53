//! Property tests: whatever bytes a client sends, the request path
//! answers with an error instead of a panic. The HTTP reader and the
//! sweep-body validator both see raw socket input, so a panic in either
//! would take a connection handler down with it. Spool replay reads
//! files a crash or a stranger may have left behind, and must skip the
//! bad ones instead of failing the server's start.

use hvc_runner::json::Value;
use hvc_serve::http::read_request;
use hvc_serve::request::parse_sweep_request;
use hvc_serve::spool;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Request-line, header and body fragments mixed with single arbitrary
/// bytes, so the cases reach the reader's header and body branches and
/// not only its request-line check.
fn request_like() -> impl Strategy<Value = Vec<u8>> {
    let fragment = prop::sample::select(vec![
        "GET ",
        "POST ",
        "/sweep ",
        "HTTP/1.1",
        "\r\n",
        "\r\n\r\n",
        "Content-Length: ",
        "Transfer-Encoding: chunked",
        ":",
        "0",
        "7",
        "4194305",
        "99999999999999999999",
        "{}",
    ]);
    prop::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(|b| vec![b]),
            fragment.prop_map(|w| w.as_bytes().to_vec()),
        ],
        0..48,
    )
    .prop_map(|parts| parts.concat())
}

/// JSON objects of known and unknown grid fields with values of every
/// shape, with a few arbitrary bytes spliced in some of the time.
fn body_like() -> impl Strategy<Value = Vec<u8>> {
    let field = prop::sample::select(vec![
        "preset",
        "workloads",
        "schemes",
        "filters",
        "seeds",
        "llc_bytes",
        "refs",
        "warm",
        "mem",
        "cores",
        "ifetch",
        "obs",
        "replay",
        "shards",
        "bogus",
    ]);
    let value = prop::sample::select(vec![
        "\"smoke\"",
        "\"warp\"",
        "[\"gups\"]",
        "[\"baseline\", \"bogus\"]",
        "[42]",
        "[]",
        "0",
        "3",
        "-1",
        "1e999",
        "18446744073709551616",
        "true",
        "null",
        "{}",
        "[[[]]]",
        "\"\\u00\"",
    ]);
    (
        prop::collection::vec((field, value), 0..6),
        prop::collection::vec((0usize..256, any::<u8>()), 0..3),
    )
        .prop_map(|(pairs, noise)| {
            let fields: Vec<String> = pairs.iter().map(|(f, v)| format!("\"{f}\": {v}")).collect();
            let mut bytes = format!("{{{}}}", fields.join(", ")).into_bytes();
            for (at, byte) in noise {
                bytes.insert(at % (bytes.len() + 1), byte);
            }
            bytes
        })
}

proptest! {
    // Each case is microseconds of parsing, so explore widely.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn read_request_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = read_request(&mut &bytes[..]);
    }

    #[test]
    fn read_request_never_panics_on_request_shaped_bytes(bytes in request_like()) {
        let _ = read_request(&mut &bytes[..]);
    }

    #[test]
    fn parse_sweep_request_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = parse_sweep_request(&bytes);
    }

    #[test]
    fn parse_sweep_request_never_panics_on_json_shaped_bytes(bytes in body_like()) {
        let _ = parse_sweep_request(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replaying a directory of intact, truncated and garbage cell files
    /// returns every intact cell and skips or replays each other file,
    /// without panicking.
    #[test]
    fn spool_replay_skips_truncated_and_garbage_files(
        files in prop::collection::vec(
            (any::<u64>(), 0u8..3, any::<usize>(), prop::collection::vec(any::<u8>(), 0..200)),
            0..12,
        ),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hvc-spool-props-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats = Value::Object(vec![("cycles".into(), Value::UInt(7))]);
        let mut intact = BTreeMap::new();
        for (key, kind, cut, garbage) in files {
            spool::write_cell(&dir, key, "gups", "baseline", &stats).unwrap();
            let path = spool::cell_path(&dir, key);
            let bytes = std::fs::read(&path).unwrap();
            match kind {
                0 => {}
                1 => std::fs::write(&path, &bytes[..cut % bytes.len()]).unwrap(),
                _ => std::fs::write(&path, garbage).unwrap(),
            }
            intact.insert(key, kind == 0);
        }
        let replay = spool::replay(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let replay = replay.expect("a readable directory replays");
        prop_assert_eq!(replay.cells.len() as u64 + replay.skipped, intact.len() as u64);
        for (key, cell) in &replay.cells {
            prop_assert_eq!(&cell.stats, &stats);
            intact.remove(key);
        }
        prop_assert!(intact.values().all(|&ok| !ok), "an intact cell was dropped");
    }
}
