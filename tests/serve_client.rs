//! In-process integration tests for `hvcsim serve`: a raw-TCP client
//! drives a real [`Server`] on an ephemeral port, exercising the
//! memoizing cache (a repeated sweep re-simulates nothing) and the
//! crash-safe spool (a server killed mid-sweep resumes on restart and
//! produces a byte-identical final report).

use hvc::runner::json::{self, Value};
use hvc::serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// Sends one request and returns `(status, body bytes)` once the server
/// closes the connection.
fn roundtrip(addr: SocketAddr, request: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    split_response(&response)
}

fn split_response(response: &[u8]) -> (u16, Vec<u8>) {
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&response[..head_end]).unwrap();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, response[head_end + 4..].to_vec())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Value) {
    let (status, body) = roundtrip(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
    );
    let text = String::from_utf8(body).unwrap();
    (status, json::parse(&text).expect("JSON body"))
}

fn sweep_request(body: &str) -> Vec<u8> {
    format!(
        "POST /sweep HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    )
    .into_bytes()
}

/// Runs a sweep to completion and returns the parsed NDJSON events.
fn sweep(addr: SocketAddr, body: &str) -> Vec<Value> {
    let (status, ndjson) = roundtrip(addr, &sweep_request(body));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&ndjson));
    String::from_utf8(ndjson)
        .unwrap()
        .lines()
        .map(|line| json::parse(line).expect("NDJSON line"))
        .collect()
}

fn event_name(e: &Value) -> &str {
    e.get("event").and_then(Value::as_str).unwrap_or("?")
}

/// Per-source cell counts `(simulated, cache, spool)` of one response.
fn sources(events: &[Value]) -> (usize, usize, usize) {
    let count = |s: &str| {
        events
            .iter()
            .filter(|e| {
                event_name(e) == "cell" && e.get("source").and_then(Value::as_str) == Some(s)
            })
            .count()
    };
    (count("simulated"), count("cache"), count("spool"))
}

/// The deterministic report of a completed sweep, as canonical bytes.
fn report_bytes(events: &[Value]) -> String {
    let done = events
        .iter()
        .find(|e| event_name(e) == "done")
        .expect("done event");
    done.get("report").expect("report").to_compact()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvc-serve-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small but non-trivial grid: 2 cells of the smoke preset.
const SMOKE_BODY: &str = r#"{"preset": "smoke", "refs": 4000, "warm": 1000}"#;

#[test]
fn health_stats_and_presets_endpoints_respond() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr();

    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));

    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats.get("cache").is_some());

    let (status, presets) = get(addr, "/presets");
    assert_eq!(status, 200);
    let names: Vec<&str> = presets
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(names.contains(&"smoke"), "{names:?}");

    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    let (status, body) = roundtrip(addr, b"DELETE /sweep HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405, "{}", String::from_utf8_lossy(&body));

    let (status, body) = roundtrip(addr, &sweep_request(r#"{"preset": "warp"}"#));
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    server.shutdown();
}

#[test]
fn repeated_sweep_is_served_entirely_from_cache() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let first = sweep(addr, SMOKE_BODY);
    let (simulated, cached, spooled) = sources(&first);
    assert_eq!(
        (simulated, cached, spooled),
        (2, 0, 0),
        "cold run simulates"
    );

    let second = sweep(addr, SMOKE_BODY);
    let (simulated, cached, _) = sources(&second);
    assert_eq!(simulated, 0, "warm run must re-simulate nothing");
    assert_eq!(cached, 2);
    assert_eq!(
        report_bytes(&first),
        report_bytes(&second),
        "cached report must be byte-identical"
    );

    // The same cells under a different obs flag still hit the cache
    // (the memoized stats are obs-wide; serialization narrows).
    let with_obs = sweep(
        addr,
        r#"{"preset": "smoke", "refs": 4000, "warm": 1000, "obs": true}"#,
    );
    let (simulated, cached, _) = sources(&with_obs);
    assert_eq!((simulated, cached), (0, 2), "obs flag must not miss");
    let done = with_obs.iter().find(|e| event_name(e) == "done").unwrap();
    let cell0 = &done
        .get("report")
        .unwrap()
        .get("cells")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert!(cell0.get("stats").unwrap().get("latency").is_some());
    assert!(report_bytes(&first) != report_bytes(&with_obs));

    let (_, stats) = get(addr, "/stats");
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(hits >= 4, "stats should show the cache hits, got {hits}");

    server.shutdown();
}

/// A body nested far past the JSON depth limit is a 400, not a stack
/// overflow that takes the server down: the same server then runs a
/// normal sweep.
#[test]
fn deeply_nested_body_is_rejected_and_the_server_keeps_serving() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr();

    let hostile = "[".repeat(1 << 20);
    let (status, body) = roundtrip(addr, &sweep_request(&hostile));
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    assert!(
        String::from_utf8_lossy(&body).contains("nesting deeper than"),
        "{}",
        String::from_utf8_lossy(&body)
    );

    let events = sweep(addr, SMOKE_BODY);
    assert_eq!(
        sources(&events).0,
        2,
        "the smoke sweep simulates both cells"
    );
    assert!(events.iter().any(|e| event_name(e) == "done"));

    server.shutdown();
}

/// A 6-cell grid slow enough that a shutdown after two streamed cells
/// lands mid-sweep (jobs = 1 serializes the cells).
const RESUME_BODY: &str = r#"{"workloads": ["gups"], "schemes": ["baseline", "ideal", "dtlb:1024"],
    "seeds": [1, 2], "refs": 20000, "warm": 5000, "mem": 16777216}"#;

fn resume_config(spool: &std::path::Path) -> ServeConfig {
    ServeConfig {
        jobs: 1,
        cache_capacity: 4096,
        spool_dir: Some(spool.to_path_buf()),
    }
}

#[test]
fn killed_server_resumes_from_spool_with_byte_identical_report() {
    let spool = temp_dir("resume");
    let fresh = temp_dir("fresh");

    // Kill the server mid-sweep: stream until two cells have finished,
    // then shut down while the rest are queued or in flight.
    let server = Server::start("127.0.0.1:0", resume_config(&spool)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(&sweep_request(RESUME_BODY)).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut streamed_cells = 0;
    while streamed_cells < 2 {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "stream ended early"
        );
        if let Ok(event) = json::parse(line.trim()) {
            if event_name(&event) == "cell" {
                streamed_cells += 1;
            }
        }
    }
    server.shutdown();
    drop(reader); // the aborted tail of the stream is irrelevant

    // Restart on the same spool and resubmit: the finished cells replay
    // from disk, only the remainder simulates.
    let server = Server::start("127.0.0.1:0", resume_config(&spool)).unwrap();
    let resumed = sweep(server.addr(), RESUME_BODY);
    let (simulated, _, spooled) = sources(&resumed);
    assert!(
        spooled >= 2,
        "the cells finished before the kill must come from the spool (got {spooled})"
    );
    assert_eq!(simulated + spooled, 6, "every cell accounted for");
    assert!(simulated >= 1, "the killed sweep should not have finished");
    server.shutdown();

    // An uninterrupted control run of the same grid on a fresh spool.
    let server = Server::start("127.0.0.1:0", resume_config(&fresh)).unwrap();
    let control = sweep(server.addr(), RESUME_BODY);
    assert_eq!(sources(&control), (6, 0, 0));
    server.shutdown();

    assert_eq!(
        report_bytes(&resumed),
        report_bytes(&control),
        "resumed report must be byte-identical to an uninterrupted run"
    );

    std::fs::remove_dir_all(&spool).ok();
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn spool_survives_a_completed_sweep_and_warms_a_new_server() {
    let spool = temp_dir("warm");
    let server = Server::start("127.0.0.1:0", resume_config(&spool)).unwrap();
    let first = sweep(server.addr(), SMOKE_BODY);
    assert_eq!(sources(&first), (2, 0, 0));
    server.shutdown();

    // A brand-new process (here: a new server) replays the spool and
    // serves the whole grid without simulating.
    let server = Server::start("127.0.0.1:0", resume_config(&spool)).unwrap();
    let replayed = sweep(server.addr(), SMOKE_BODY);
    assert_eq!(sources(&replayed), (0, 0, 2), "all cells replayed");
    assert_eq!(report_bytes(&first), report_bytes(&replayed));

    let (_, stats) = get(server.addr(), "/stats");
    let replays = stats
        .get("spool")
        .and_then(|s| s.get("replayed"))
        .and_then(Value::as_u64)
        .unwrap();
    assert_eq!(replays, 2);
    server.shutdown();

    std::fs::remove_dir_all(&spool).ok();
}
