//! End-to-end tests of the `hvcsim` command-line driver.

use std::process::Command;

fn hvcsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hvcsim"))
}

#[test]
fn help_and_list_work() {
    let out = hvcsim().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--workload"));

    let out = hvcsim().arg("--list").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("postgres"));
    assert!(text.contains("gups"));
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        vec!["--scheme", "bogus"],
        vec!["--workload", "nope"],
        vec!["--definitely-not-a-flag"],
        vec!["--refs"], // missing value
    ] {
        let out = hvcsim().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
    }
}

#[test]
fn non_power_of_two_cores_fail_cleanly_without_panicking() {
    for args in [
        vec!["--workload", "gups", "--cores", "3", "--refs", "1000"],
        vec!["sweep", "--preset", "smoke", "--cores", "3"],
        vec!["sweep", "--preset", "smoke", "--cores", "0"],
    ] {
        let out = hvcsim().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}

#[test]
fn more_than_32_cores_fail_cleanly_without_panicking() {
    for args in [
        vec!["--workload", "gups", "--cores", "64", "--refs", "1000"],
        vec!["sweep", "--preset", "smoke", "--cores", "64"],
    ] {
        let out = hvcsim().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("32"), "{args:?}: {stderr}");
    }
}

#[test]
fn vm_machine_beyond_the_page_table_frame_range_fails_cleanly() {
    // A guest VM runs on a machine of 4 × mem + 1 GiB; at 200G that is
    // 801 GiB, past the 512 GiB a page-table entry can name.
    let grid = "--workloads gups --schemes vm:dtlb:1024 --mem 200G --refs 100 --warm 0";
    for (cmd, extra) in [("sweep", &[][..]), ("check", &["--seed-range", "0..1"][..])] {
        let out = hvcsim()
            .arg(cmd)
            .args(grid.split(' '))
            .args(extra)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{cmd} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{cmd} panicked: {stderr}");
        assert!(stderr.contains("512 GiB"), "{cmd}: {stderr}");
    }
}

#[test]
fn vm_memory_that_is_not_a_page_multiple_fails_cleanly() {
    // 4 × 300000001 bytes of guest memory is no whole number of pages.
    let grid = "--workloads gups --schemes vm:dtlb:1024 --mem 300000001 --refs 100 --warm 0";
    for (cmd, extra) in [("sweep", &[][..]), ("check", &["--seed-range", "0..1"][..])] {
        let out = hvcsim()
            .arg(cmd)
            .args(grid.split(' '))
            .args(extra)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{cmd} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{cmd} panicked: {stderr}");
        assert!(stderr.contains("4096-byte page"), "{cmd}: {stderr}");
    }
}

#[test]
fn trace_options_with_multiple_cores_fail_cleanly() {
    let trace = std::env::temp_dir().join(format!("hvcsim-mc-trace-{}.json", std::process::id()));
    let trace = trace.to_string_lossy().into_owned();
    for option in ["--trace-events", "--save-trace", "--replay"] {
        let args = [
            "--workload",
            "gups",
            "--refs",
            "1000",
            "--mem",
            "16M",
            "--cores",
            "2",
            option,
            &trace,
        ];
        let out = hvcsim().args(args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("--cores 1"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(&trace).exists(),
        "a rejected run must not write its trace"
    );
}

#[test]
fn invalid_delayed_tlb_sizes_fail_cleanly_without_panicking() {
    let trace = std::env::temp_dir().join(format!("hvcsim-dtlb-trace-{}.hvct", std::process::id()));
    let trace = trace.to_string_lossy().into_owned();
    fn run(scheme: &str) -> Vec<&str> {
        vec![
            "--workload",
            "gups",
            "--mem",
            "16M",
            "--refs",
            "1000",
            "--scheme",
            scheme,
        ]
    }
    let mut cases = vec![run("dtlb:0"), run("enigma:0"), run("dtlb:12")];
    // The trace options build the simulator without the sweep
    // validation.
    let mut traced = run("dtlb:12");
    traced.extend(["--save-trace", &trace]);
    cases.push(traced);
    cases.push(vec!["sweep", "--workloads", "gups", "--schemes", "dtlb:0"]);
    cases.push(vec![
        "sweep",
        "--workloads",
        "gups",
        "--schemes",
        "vm:dtlb:12",
    ]);
    for args in cases {
        let out = hvcsim().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(
            stderr.contains("delayed TLB size") && stderr.contains("power of two ≥ 8"),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        !std::path::Path::new(&trace).exists(),
        "a rejected run must not write its trace"
    );
}

#[test]
fn small_simulation_reports_ipc() {
    let out = hvcsim()
        .args([
            "--workload",
            "astar",
            "--scheme",
            "baseline",
            "--refs",
            "5000",
            "--warm",
            "0",
            "--mem",
            "16M",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPC"));
    assert!(text.contains("front TLB lookups"));
}

#[test]
fn obs_flag_prints_percentiles_and_trace_events_are_valid_json() {
    let dir = std::env::temp_dir().join(format!("hvcsim-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("events.json");
    let out = hvcsim()
        .args([
            "--workload",
            "gups",
            "--scheme",
            "manyseg",
            "--refs",
            "5000",
            "--warm",
            "0",
            "--mem",
            "16M",
            "--obs",
            "--trace-events",
        ])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("p50"), "missing percentiles:\n{text}");
    assert!(text.contains("p99"));
    assert!(text.contains("cycle attribution"));

    // The trace file is a valid Chrome trace_event document: an object
    // with a traceEvents array of complete ("ph": "X") events.
    let doc = hvc::runner::json::parse(&std::fs::read_to_string(&trace).unwrap())
        .expect("trace events parse as JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "tracer captured no events");
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert!(e.get("name").unwrap().as_str().is_some());
        assert!(e.get("ts").unwrap().as_u64().is_some());
        assert!(e.get("dur").unwrap().as_u64().is_some());
        assert!(e.get("tid").unwrap().as_u64().is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_save_then_replay_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("hvcsim-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.hvct");

    // Saving a trace runs the simulation on the captured items.
    let saved = hvcsim()
        .args([
            "--workload",
            "omnetpp",
            "--scheme",
            "dtlb:1024",
            "--refs",
            "8000",
            "--warm",
            "0",
            "--seed",
            "5",
            "--save-trace",
        ])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        saved.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&saved.stderr)
    );

    // Replaying the same trace under the same scheme must reproduce the
    // exact same cycle count.
    let replayed = hvcsim()
        .args([
            "--workload",
            "omnetpp",
            "--scheme",
            "dtlb:1024",
            "--refs",
            "8000",
            "--warm",
            "0",
            "--seed",
            "5",
            "--replay",
        ])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(replayed.status.success());

    let cycles = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .find(|l| l.starts_with("cycles"))
            .expect("cycles line")
            .to_string()
    };
    assert_eq!(cycles(&saved.stdout), cycles(&replayed.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

/// A single run reads a trace as a sweep cell does: the warm-up eats its
/// head. A churn-free workload's trace, saved with its warm-up, then
/// replays to the run that generated it — under any scheme, alone or in
/// a sweep.
#[test]
fn trace_replay_warms_up_from_its_head() {
    let dir = std::env::temp_dir().join(format!("hvcsim-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.hvct").to_string_lossy().into_owned();
    let report = dir.join("sweep.json").to_string_lossy().into_owned();
    let run = |args: &[&str]| {
        let out = hvcsim()
            .args(args)
            .args(["--refs", "5000", "--warm", "3000", "--mem", "16M"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let single = |args: &[&str]| -> u64 {
        let out = run(&[&["--workload", "astar", "--seed", "42"], args].concat());
        let line = out
            .lines()
            .find(|l| l.starts_with("cycles"))
            .expect("cycles line");
        line.split_whitespace().last().unwrap().parse().unwrap()
    };
    single(&["--scheme", "baseline", "--save-trace", &trace]);
    let plain = single(&["--scheme", "manyseg"]);
    assert_eq!(single(&["--scheme", "manyseg", "--replay", &trace]), plain);

    let sweep = ["sweep", "--workloads", "astar", "--schemes", "manyseg"];
    run(&[&sweep[..], &["--replay", &trace, "--out", &report]].concat());
    let doc = hvc::runner::json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
    let swept = cell.get("stats").unwrap().get("cycles").unwrap().as_u64();
    assert_eq!(
        swept,
        Some(plain),
        "a sweep reads the trace as a single run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_reports_every_cell_and_is_jobs_invariant() {
    let dir = std::env::temp_dir().join(format!("hvcsim-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |jobs: &str, out: &std::path::Path| {
        let status = hvcsim()
            .args([
                "sweep",
                "--workloads",
                "gups",
                "--schemes",
                "baseline,ideal",
                "--refs",
                "3000",
                "--warm",
                "500",
                "--mem",
                "16M",
                "--jobs",
                jobs,
                "--out",
            ])
            .arg(out)
            .output()
            .expect("spawn");
        assert!(
            status.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&status.stderr)
        );
    };
    let parallel = dir.join("jobs2.json");
    let serial = dir.join("jobs1.json");
    run("2", &parallel);
    run("1", &serial);

    let doc = hvc::runner::json::parse(&std::fs::read_to_string(&parallel).unwrap())
        .expect("report parses as JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("hvc-sweep-report/6")
    );
    let cells = doc.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), 2, "one cell per scheme");
    for (i, scheme) in ["baseline", "ideal"].iter().enumerate() {
        assert_eq!(cells[i].get("index").unwrap().as_u64(), Some(i as u64));
        assert_eq!(cells[i].get("scheme").unwrap().as_str(), Some(*scheme));
        assert_eq!(cells[i].get("filter").unwrap().as_str(), Some("bloom"));
        let stats = cells[i].get("stats").unwrap();
        assert!(stats.get("instructions").unwrap().as_u64().unwrap() > 0);
        assert!(stats.get("cycles").unwrap().as_u64().unwrap() > 0);
    }

    // Per-cell statistics must not depend on the worker count: the
    // serialized cells arrays are byte-identical.
    let serial_doc = hvc::runner::json::parse(&std::fs::read_to_string(&serial).unwrap()).unwrap();
    assert_eq!(
        doc.get("cells").unwrap().to_pretty(),
        serial_doc.get("cells").unwrap().to_pretty()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_subcommand_passes_on_a_bounded_run() {
    let out = hvcsim()
        .args([
            "check",
            "--preset",
            "smoke",
            "--refs",
            "1000",
            "--warm",
            "200",
            "--seed-range",
            "0..1",
            "--stress-ops",
            "80",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("all checks passed"), "stderr: {text}");
}

#[test]
fn check_subcommand_rejects_bad_seed_range() {
    for range in ["five..six", "3..1"] {
        let out = hvcsim()
            .args(["check", "--seed-range", range])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{range}: {stderr}");
        assert!(!stderr.contains("panicked"), "{range} panicked: {stderr}");
    }
}

/// Sweeps a tiny grid to a report in `dir` and runs `hvcsim table` on it.
fn table_of(dir: &std::path::Path, sweep: &[&str]) -> std::process::Output {
    let report = dir.join("report.json");
    let out = hvcsim()
        .arg("sweep")
        .args(sweep)
        .args(["--refs", "1000", "--warm", "0", "--mem", "16M", "--out"])
        .arg(&report)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    hvcsim().arg("table").arg(&report).output().expect("spawn")
}

#[test]
fn table_prints_a_paper_table_from_its_preset_report() {
    let out = hvcsim()
        .args(["sweep", "--list-presets"])
        .output()
        .expect("spawn");
    let presets = String::from_utf8_lossy(&out.stdout);
    for name in [
        "table1", "table2", "table3", "fig4", "fig9", "fig10", "energy",
    ] {
        assert!(presets.contains(&format!("  {name} ")), "{presets}");
    }
    assert!(!presets.contains("fig11"), "{presets}");

    let dir = std::env::temp_dir().join(format!("hvcsim-table-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = table_of(&dir, &["--preset", "table1", "--workloads", "postgres,mcf"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("Table I"), "{text}");
    assert!(text.contains("postgres") && text.contains("mcf"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn table_rejects_a_report_with_two_seeds() {
    let dir = std::env::temp_dir().join(format!("hvcsim-table-seeds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = table_of(
        &dir,
        &["--preset", "table1", "--workloads", "mcf", "--seeds", "1,2"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("seeds has 2"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn table_rejects_a_preset_without_a_reduction() {
    let dir = std::env::temp_dir().join(format!("hvcsim-table-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = table_of(&dir, &["--preset", "smoke"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("'smoke' has no reduction"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn table_rejects_malformed_input_cleanly() {
    let dir = std::env::temp_dir().join(format!("hvcsim-table-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = table_of(&dir, &["--preset", "table1", "--workloads", "mcf"]);
    assert!(out.status.success());
    let bytes = std::fs::read(dir.join("report.json")).unwrap();
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let not_a_report = dir.join("not_a_report.json");
    std::fs::write(&not_a_report, "{\"schema\": \"x\", \"cells\": []}\n").unwrap();

    for (path, message) in [
        (truncated, "JSON error at byte"),
        (not_a_report, "no experiment.name"),
        (dir.join("missing.json"), "cannot read"),
    ] {
        let out = hvcsim().arg("table").arg(&path).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path:?}: {stderr}");
        assert!(stderr.contains(message), "{path:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{path:?} panicked: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
