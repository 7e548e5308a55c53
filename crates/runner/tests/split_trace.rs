//! Sweeps over a recorded trace: replay runs each cell as one simulator
//! consuming the stream in order, so the worker count must be
//! completely inert — identical statistics at every `--jobs` value.

use hvc_os::{AllocPolicy, Kernel};
use hvc_runner::{run_sweep, sweep_report, Experiment, RunOptions};
use hvc_types::TraceItem;

fn record_trace(path: &std::path::Path, refs: usize) {
    let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
    let mut wl = hvc_workloads::apps::gups(16 << 20)
        .instantiate(&mut kernel, 7)
        .expect("workload setup");
    let items: Vec<TraceItem> = (0..refs).map(|_| wl.next_item()).collect();
    let file = std::fs::File::create(path).expect("create trace");
    hvc_trace::write_trace(std::io::BufWriter::new(file), items).expect("write trace");
}

#[test]
fn replay_sweep_is_invariant_under_jobs() {
    let dir = std::env::temp_dir().join(format!("hvc-runner-replay-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("replay.hvct");
    record_trace(&trace, 6_000);

    let exp = Experiment {
        workloads: vec!["gups".into()],
        schemes: vec!["baseline".into(), "manyseg".into()],
        refs: 5_000,
        warm: 1_000,
        mem: 16 << 20,
        replay: Some(trace.to_string_lossy().into_owned()),
        ..Default::default()
    };

    let whole = run_sweep(&exp, &RunOptions::default()).expect("serial run");
    let parallel = run_sweep(
        &exp,
        &RunOptions {
            jobs: 2,
            check: false,
        },
    )
    .expect("parallel run");

    assert_eq!(whole.results.len(), parallel.results.len());
    for (a, b) in whole.results.iter().zip(parallel.results.iter()) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(
            a.report.instructions, b.report.instructions,
            "{}",
            a.cell.scheme
        );
        assert_eq!(a.report.cycles, b.report.cycles, "{}", a.cell.scheme);
        assert_eq!(a.report.refs, b.report.refs);
        assert_eq!(
            a.report.translation, b.report.translation,
            "{}",
            a.cell.scheme
        );
        assert_eq!(a.report.baseline_tlb_misses, b.report.baseline_tlb_misses);
        assert_eq!(a.report.cache, b.report.cache, "{}", a.cell.scheme);
        assert_eq!(a.report.dram, b.report.dram, "{}", a.cell.scheme);
        assert_eq!(a.report.minor_faults, b.report.minor_faults);
        assert_eq!(a.report.os, b.report.os, "{}", a.cell.scheme);
        assert_eq!(a.report.obs, b.report.obs, "{}", a.cell.scheme);
        assert_eq!(a.filters, b.filters, "{}", a.cell.scheme);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Reports with the observability sections enabled stay byte-identical
/// whatever the job count — each cell's log₂ histograms, percentiles
/// and attribution ledger come from one simulator, whichever worker
/// runs it — and every cell's
/// attribution components sum exactly to its memory-latency total.
#[test]
fn obs_report_is_jobs_invariant_and_attribution_sums() {
    obs_invariants(false);
    // The instruction-fetch stream goes through the same translation
    // front-end and latency histogram; the sum invariant must survive it.
    obs_invariants(true);
}

fn obs_invariants(ifetch: bool) {
    let exp = Experiment {
        workloads: vec!["gups".into()],
        schemes: vec!["baseline".into(), "dtlb:4096".into(), "manyseg".into()],
        refs: 4_000,
        warm: 1_000,
        mem: 16 << 20,
        ifetch,
        obs: true,
        ..Default::default()
    };

    let serial_opts = RunOptions {
        jobs: 1,
        check: false,
    };
    let parallel_opts = RunOptions {
        jobs: 4,
        check: false,
    };
    let serial = run_sweep(&exp, &serial_opts).expect("serial run");
    let parallel = run_sweep(&exp, &parallel_opts).expect("parallel run");

    let a = sweep_report(&exp, &serial_opts, &serial);
    let b = sweep_report(&exp, &parallel_opts, &parallel);
    assert_eq!(
        a.get("cells").unwrap().to_pretty(),
        b.get("cells").unwrap().to_pretty(),
        "obs-enabled cells must serialize identically across --jobs"
    );

    for cell in &serial.results {
        let obs = &cell.report.obs;
        assert_eq!(
            obs.attribution.total(),
            obs.mem_latency.total(),
            "attribution components must sum to total memory cycles ({})",
            cell.cell.scheme
        );
        // One histogram sample per data access, plus one per modelled
        // instruction fetch.
        let expected = cell.report.refs * if ifetch { 2 } else { 1 };
        assert_eq!(obs.mem_latency.count(), expected);
        // The report exposes the same invariant through JSON.
        let doc = sweep_report(&exp, &serial_opts, &serial);
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        let stats = cells[cell.cell.index].get("stats").unwrap();
        let latency = stats.get("latency").unwrap();
        let mem = latency.get("memory").unwrap();
        assert!(mem.get("p50").unwrap().as_u64().is_some());
        assert!(mem.get("p95").unwrap().as_u64().is_some());
        assert!(mem.get("p99").unwrap().as_u64().is_some());
        let attribution = stats.get("attribution").unwrap();
        assert_eq!(
            attribution.get("total").unwrap().as_u64(),
            mem.get("total_cycles").unwrap().as_u64()
        );
    }
}
