//! The experiment server: listener, router, and the sweep pipeline.
//!
//! Request lifecycle for `POST /sweep`:
//!
//! 1. Parse + validate the grid with the `hvc-runner` machinery.
//! 2. Key every cell with [`hvc_runner::cell_key`] and probe the
//!    [`ResultCache`]; hits stream back immediately as `cell` events
//!    tagged `"cache"` (this process simulated them earlier) or
//!    `"spool"` (replayed from disk after a restart).
//! 3. Misses are enqueued on the shared [`WorkerPool`]; each completed
//!    cell is spooled to disk (atomic write-then-rename), inserted into
//!    the cache, and streamed back tagged `"simulated"` — so a kill at
//!    any instant loses at most in-flight cells, never finished ones.
//! 4. When every cell has arrived, the handler emits a `done` event
//!    whose embedded report is **deterministic** (no wall-clock fields):
//!    a resumed, cached, or re-run sweep of the same grid produces a
//!    byte-identical report.

use crate::cache::{CachedCell, Origin, ResultCache};
use crate::http;
use crate::pool::WorkerPool;
use crate::request::parse_sweep_request;
use crate::spool;
use hvc_runner::json::Value;
use hvc_runner::{cell_key, presets, run_cell, run_report_value, Cell, Experiment, KEY_SCHEMA};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic report schema embedded in the `done` event.
pub const REPORT_SCHEMA: &str = "hvc-serve-report/1";

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Simulation worker threads shared by all requests.
    pub jobs: usize,
    /// Result-cache capacity in cells.
    pub cache_capacity: usize,
    /// Spool directory for crash-safe persistence; `None` disables the
    /// spool (results then live only in memory).
    pub spool_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 2,
            cache_capacity: 4096,
            spool_dir: None,
        }
    }
}

/// Shared state visible to every connection handler and worker job.
struct Shared {
    cache: ResultCache,
    pool: WorkerPool,
    spool_dir: Option<PathBuf>,
    spool_replayed: u64,
    spool_skipped: u64,
    spool_errors: AtomicU64,
    shutting_down: AtomicBool,
}

/// A running experiment server. Dropping it (or calling
/// [`Server::shutdown`]) stops the listener, drains the worker pool,
/// and joins every connection handler.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), replays the
    /// spool into the cache, and starts accepting connections.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let (mut replayed, mut skipped) = (0, 0);
        let cache = ResultCache::new(config.cache_capacity);
        if let Some(dir) = &config.spool_dir {
            let replay = spool::replay(dir)?;
            for (key, cell) in replay.cells {
                cache.insert(key, cell);
                replayed += 1;
            }
            skipped = replay.skipped;
        }
        let shared = Arc::new(Shared {
            cache,
            pool: WorkerPool::new(config.jobs),
            spool_dir: config.spool_dir,
            spool_replayed: replayed,
            spool_skipped: skipped,
            spool_errors: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        return; // the shutdown wake-up connection lands here
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || handle_connection(stream, &shared));
                    // Reap finished handlers first, so the list tracks the
                    // live connections rather than the server's uptime.
                    let mut live = handlers.lock().unwrap();
                    live.retain(|h| !h.is_finished());
                    live.push(handle);
                }
            })
        };
        Ok(Server {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
            handlers,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: the pool finishes in-flight cells (persisting
    /// them to the spool) and drops queued ones, interrupted request
    /// streams abort, and every thread is joined before this returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Finish running cells, drop queued ones; aborts any handler
        // blocked on simulation results.
        self.shared.pool.shutdown();
        // Wake the blocking accept() so the listener thread sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = self.handlers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn error_body(message: &str) -> Vec<u8> {
    object(vec![("error", Value::Str(message.into()))])
        .to_compact()
        .into_bytes()
}

/// One connection = one request = one response (`Connection: close`).
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // A stalled or hostile client cannot pin the handler forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(stream);
    let request = match http::read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let mut stream = reader.into_inner();
            let _ = http::write_response(&mut stream, 400, "application/json", &error_body(&e));
            return;
        }
    };
    let mut stream = reader.into_inner();
    let path = request.path.split('?').next().unwrap_or("");
    let respond = |stream: &mut TcpStream, status, body: Value| {
        let _ = http::write_response(
            stream,
            status,
            "application/json",
            body.to_compact().as_bytes(),
        );
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => respond(
            &mut stream,
            200,
            object(vec![
                ("ok", Value::Bool(true)),
                ("service", Value::Str("hvcsim-serve".into())),
                ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
            ]),
        ),
        ("GET", "/stats") => respond(&mut stream, 200, stats_body(shared)),
        ("GET", "/presets") => respond(
            &mut stream,
            200,
            Value::Array(
                presets::PRESET_NAMES
                    .iter()
                    .map(|(name, summary)| {
                        object(vec![
                            ("name", Value::Str((*name).into())),
                            ("summary", Value::Str((*summary).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("POST", "/sweep") => match parse_sweep_request(&request.body) {
            Ok(exp) => stream_sweep(&mut stream, shared, exp),
            Err(e) => {
                let _ = http::write_response(&mut stream, 400, "application/json", &error_body(&e));
            }
        },
        ("GET" | "POST", _) => {
            let _ = http::write_response(
                &mut stream,
                404,
                "application/json",
                &error_body(&format!("no endpoint {path}")),
            );
        }
        (method, _) => {
            let _ = http::write_response(
                &mut stream,
                405,
                "application/json",
                &error_body(&format!("method {method} not allowed")),
            );
        }
    }
}

fn stats_body(shared: &Shared) -> Value {
    let c = shared.cache.stats();
    object(vec![
        ("ok", Value::Bool(true)),
        ("jobs", Value::UInt(shared.pool.jobs() as u64)),
        ("cells_executed", Value::UInt(shared.pool.executed())),
        (
            "cache",
            object(vec![
                ("entries", Value::UInt(c.entries)),
                ("capacity", Value::UInt(c.capacity)),
                ("hits", Value::UInt(c.hits)),
                ("misses", Value::UInt(c.misses)),
                ("insertions", Value::UInt(c.insertions)),
                ("evictions", Value::UInt(c.evictions)),
            ]),
        ),
        (
            "spool",
            object(vec![
                ("enabled", Value::Bool(shared.spool_dir.is_some())),
                ("replayed", Value::UInt(shared.spool_replayed)),
                ("skipped", Value::UInt(shared.spool_skipped)),
                (
                    "write_errors",
                    Value::UInt(shared.spool_errors.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ])
}

/// Sends one NDJSON event; a failed write means the client hung up, and
/// the caller stops streaming.
fn emit(stream: &mut TcpStream, event: &Value) -> bool {
    let mut line = event.to_compact();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush())
        .is_ok()
}

/// How a cell's result reached this response.
fn source_name(origin: Origin, fresh: bool) -> &'static str {
    if fresh {
        "simulated"
    } else {
        match origin {
            Origin::Simulated => "cache",
            Origin::Spool => "spool",
        }
    }
}

fn cell_event(cell: &Cell, key: u64, source: &'static str, stats: &Value) -> Value {
    object(vec![
        ("event", Value::Str("cell".into())),
        ("index", Value::UInt(cell.index as u64)),
        ("workload", Value::Str(cell.workload.clone())),
        ("scheme", Value::Str(cell.scheme.clone())),
        ("seed", Value::UInt(cell.seed)),
        ("llc_bytes", Value::UInt(cell.llc_bytes)),
        ("key", Value::Str(format!("{key:016x}"))),
        ("source", Value::Str(source.into())),
        // One headline number so progress is human-readable without
        // parsing the final report.
        (
            "cycles",
            stats.get("cycles").cloned().unwrap_or(Value::Null),
        ),
    ])
}

/// Runs one sweep request, streaming progress and the final report.
fn stream_sweep(stream: &mut TcpStream, shared: &Arc<Shared>, exp: Experiment) {
    let exp = Arc::new(exp);
    let cells = exp.cells();
    let keys: Vec<u64> = cells.iter().map(|c| cell_key(&exp, c)).collect();
    let start = Instant::now();

    if http::write_stream_head(stream, 200).is_err() {
        return;
    }
    if !emit(
        stream,
        &object(vec![
            ("event", Value::Str("start".into())),
            ("experiment", Value::Str(exp.name.clone())),
            ("cells", Value::UInt(cells.len() as u64)),
            ("key_schema", Value::Str(KEY_SCHEMA.into())),
        ]),
    ) {
        return;
    }

    // Pass 1: serve every warm cell straight from the cache, in grid
    // order, and remember which cells still need simulating.
    let mut results: Vec<Option<Arc<CachedCell>>> = vec![None; cells.len()];
    let mut counts = [0u64; 3]; // simulated / cache / spool
    let mut pending: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match shared.cache.get(keys[i]) {
            Some(hit) => {
                let source = source_name(hit.origin, false);
                counts[if hit.origin == Origin::Spool { 2 } else { 1 }] += 1;
                let ok = emit(stream, &cell_event(cell, keys[i], source, &hit.stats));
                results[i] = Some(hit);
                if !ok {
                    return;
                }
            }
            None => pending.push(i),
        }
    }

    // Pass 2: shard the cold cells across the worker pool. Workers
    // spool + cache each completion themselves, so finished work
    // survives even if this handler (or the whole server) dies first.
    let (tx, rx) = channel::<(usize, Result<Arc<CachedCell>, String>)>();
    let expected = pending.len();
    for i in pending {
        let exp = Arc::clone(&exp);
        let cell = cells[i].clone();
        let key = keys[i];
        let tx = tx.clone();
        let job_shared = Arc::clone(shared);
        let accepted = shared.pool.submit(move || {
            let outcome = run_cell(&exp, &cell, None, false).map(|(report, filters)| {
                // Memoize the widest serialization; `obs: false`
                // responses strip the observability sections later.
                let stats = run_report_value(&report, &filters, &cell.scheme, true);
                if let Some(dir) = &job_shared.spool_dir {
                    if spool::write_cell(dir, key, &cell.workload, &cell.scheme, &stats).is_err() {
                        job_shared.spool_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let cached = Arc::new(CachedCell {
                    stats,
                    origin: Origin::Simulated,
                });
                job_shared.cache.insert(key, Arc::clone(&cached));
                cached
            });
            let _ = tx.send((cell.index, outcome));
        });
        if !accepted {
            // Server is draining; the abort event below reports it.
            break;
        }
    }
    drop(tx);

    // Pass 3: stream completions as they land (completion order; the
    // report reassembles grid order).
    let mut received = 0usize;
    let mut errors = 0u64;
    while let Ok((index, outcome)) = rx.recv() {
        received += 1;
        match outcome {
            Ok(cached) => {
                counts[0] += 1;
                let ok = emit(
                    stream,
                    &cell_event(&cells[index], keys[index], "simulated", &cached.stats),
                );
                results[index] = Some(cached);
                if !ok {
                    return;
                }
            }
            Err(e) => {
                errors += 1;
                if !emit(
                    stream,
                    &object(vec![
                        ("event", Value::Str("error".into())),
                        ("index", Value::UInt(index as u64)),
                        ("error", Value::Str(e)),
                    ]),
                ) {
                    return;
                }
            }
        }
    }

    let complete = results.iter().all(Option::is_some);
    if received < expected || !complete {
        // The pool was drained mid-sweep (server shutdown): everything
        // completed so far is already cached and spooled; tell the
        // client how far we got and stop.
        emit(
            stream,
            &object(vec![
                ("event", Value::Str("aborted".into())),
                (
                    "completed",
                    Value::UInt(results.iter().flatten().count() as u64),
                ),
                ("cells", Value::UInt(cells.len() as u64)),
                ("errors", Value::UInt(errors)),
            ]),
        );
        return;
    }
    if errors > 0 {
        emit(
            stream,
            &object(vec![
                ("event", Value::Str("failed".into())),
                ("errors", Value::UInt(errors)),
            ]),
        );
        return;
    }

    let report = report_value(&exp, &cells, &keys, &results);
    emit(
        stream,
        &object(vec![
            ("event", Value::Str("done".into())),
            ("cells", Value::UInt(cells.len() as u64)),
            ("simulated", Value::UInt(counts[0])),
            ("cached", Value::UInt(counts[1])),
            ("spooled", Value::UInt(counts[2])),
            ("wall_ms", Value::UInt(start.elapsed().as_millis() as u64)),
            ("report", report),
        ]),
    );
}

/// The deterministic final report: everything a `hvc-sweep-report/3`
/// cell carries, minus wall-clock fields, plus per-cell keys — so an
/// uninterrupted run, a fully cached re-run, and a crash-resumed run of
/// the same grid serialize byte-identically.
fn report_value(
    exp: &Experiment,
    cells: &[Cell],
    keys: &[u64],
    results: &[Option<Arc<CachedCell>>],
) -> Value {
    let strs = |v: &[String]| Value::Array(v.iter().map(|s| Value::Str(s.clone())).collect());
    let cell_values = cells
        .iter()
        .zip(results)
        .zip(keys)
        .map(|((cell, result), &key)| {
            let full = &result.as_ref().expect("complete").stats;
            let stats = if exp.obs {
                full.clone()
            } else {
                strip_obs(full)
            };
            object(vec![
                ("index", Value::UInt(cell.index as u64)),
                ("workload", Value::Str(cell.workload.clone())),
                ("scheme", Value::Str(cell.scheme.clone())),
                ("filter", Value::Str(cell.filter.clone())),
                ("base_seed", Value::UInt(cell.base_seed)),
                ("seed", Value::UInt(cell.seed)),
                ("llc_bytes", Value::UInt(cell.llc_bytes)),
                ("key", Value::Str(format!("{key:016x}"))),
                ("stats", stats),
            ])
        })
        .collect();
    object(vec![
        ("schema", Value::Str(REPORT_SCHEMA.into())),
        (
            "simulator",
            object(vec![
                ("name", Value::Str("hvc".into())),
                ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
            ]),
        ),
        (
            "experiment",
            object(vec![
                ("name", Value::Str(exp.name.clone())),
                ("workloads", strs(&exp.workloads)),
                ("schemes", strs(&exp.schemes)),
                ("filters", strs(&exp.filters)),
                (
                    "seeds",
                    Value::Array(exp.seeds.iter().map(|&s| Value::UInt(s)).collect()),
                ),
                (
                    "llc_bytes",
                    Value::Array(exp.llc_bytes.iter().map(|&b| Value::UInt(b)).collect()),
                ),
                ("refs", Value::UInt(exp.refs as u64)),
                ("warm", Value::UInt(exp.warm as u64)),
                ("mem", Value::UInt(exp.mem)),
                ("cores", Value::UInt(exp.cores as u64)),
                ("ifetch", Value::Bool(exp.ifetch)),
                ("obs", Value::Bool(exp.obs)),
            ]),
        ),
        ("cells", Value::Array(cell_values)),
    ])
}

/// The cache memoizes the obs-wide stats; an `obs: false` request gets
/// the lean serialization by dropping the two observability sections —
/// exactly what `hvc-runner` would have omitted.
fn strip_obs(stats: &Value) -> Value {
    match stats {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "latency" && k != "attribution")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn finished_handlers_are_reaped_between_connections() {
        const REQUESTS: usize = 64;
        let server = Server::start("127.0.0.1:0", ServeConfig::default()).expect("bind");
        for _ in 0..REQUESTS {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                .expect("send");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("receive");
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        }
        // Each request ran to completion before the next connected, so
        // only handlers still exiting can remain alongside the last one.
        let held = server.handlers.lock().unwrap().len();
        assert!(
            held <= REQUESTS / 4,
            "{held} handles held after {REQUESTS} requests"
        );
        server.shutdown();
    }

    #[test]
    fn strip_obs_removes_only_the_observability_sections() {
        let stats = object(vec![
            ("cycles", Value::UInt(5)),
            ("latency", object(vec![("p50", Value::UInt(1))])),
            ("attribution", object(vec![("dram", Value::UInt(2))])),
            ("os", object(vec![])),
        ]);
        let lean = strip_obs(&stats);
        assert!(lean.get("cycles").is_some());
        assert!(lean.get("os").is_some());
        assert!(lean.get("latency").is_none());
        assert!(lean.get("attribution").is_none());
        assert_eq!(strip_obs(&Value::Null), Value::Null);
    }
}
