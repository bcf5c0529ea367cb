//! Figure 17 (extension, beyond the paper): elastic scale-out by dynamic
//! range splitting. A closed-loop write workload hammers one hot range;
//! mid-run the leader splits it at the median hot key. The right child's
//! leadership preference moves to the next cohort member, so after the
//! split two nodes share the leader-side work that one node did before.
//!
//! Reported series: hot-range write throughput before, during, and after
//! the split. The "during" window absorbs the right child's election; the
//! "after" window should exceed "before" — that is the scale-out claim.

use std::fs;
use std::io::Write as _;

use spinnaker_bench as b;
use spinnaker_common::RangeId;
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::partition::u64_to_key;
use spinnaker_sim::{DiskProfile, Time, MICROS, MILLIS, SECS};

fn main() {
    let quick = b::quick();
    let clients = if quick { 48 } else { 96 };

    // The hot range's bottleneck must be the *leader's* request handling
    // for a split to pay off (the whole cohort still sees every propose).
    // Model the real leader/follower asymmetry: leader RPC handling (OCC
    // check, reply marshalling) is expensive, the follower's append+ack
    // is cheap, and nodes have few cores to saturate.
    let mut cfg = ClusterConfig { nodes: 5, seed: 1717, ..Default::default() };
    cfg.disk = DiskProfile::Ssd;
    cfg.node.commit_period = 200 * MILLIS;
    cfg.perf.cpu_cores = 2;
    cfg.perf.write_service = 600 * MICROS;
    cfg.perf.propose_service = Some(60 * MICROS);

    let split_at = 6 * SECS;
    let phases: [(&str, Time, Time); 3] = [
        ("before split", 3 * SECS, 6 * SECS),
        ("during split", 6 * SECS, 8 * SECS),
        ("after split", 9 * SECS, if quick { 13 * SECS } else { 17 * SECS }),
    ];
    let end = phases[2].2;

    let mut cluster = SimCluster::new(cfg);
    let stats: Vec<_> = (0..clients)
        .map(|_| {
            let s = cluster.add_client(
                Workload::SpanWrites { value_size: 512, lo: 0, hi: 4096 },
                SECS,
                SECS,
                end,
            );
            s.borrow_mut().trace = Some(Vec::new());
            s
        })
        .collect();
    // Split the hot range at the median hot key (SingleRangeWrites spans
    // key indexes [0, 4096)).
    cluster.split_range(split_at, RangeId(0), u64_to_key(2048));
    cluster.run_until(end);

    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 2, "the split must have completed");
    let children = ring.children_of(RangeId(0));
    let leaders: Vec<_> = children.iter().map(|d| cluster.leader_of(d.id)).collect();
    let refreshes: u64 = stats.iter().map(|s| s.borrow().ring_refreshes).sum();

    println!("==============================================================");
    println!("Figure 17 — Hot-range write throughput across a dynamic split");
    println!("==============================================================");
    println!("({clients} closed-loop writers on one range; split at t=6s)");
    let mut rows = Vec::new();
    for (name, from, to) in phases {
        let mut completed = 0u64;
        for s in &stats {
            let s = s.borrow();
            let trace = s.trace.as_ref().unwrap();
            completed += trace.iter().filter(|(t, _)| *t >= from && *t < to).count() as u64;
        }
        let secs = (to - from) as f64 / 1e9;
        let tput = completed as f64 / secs;
        println!("  {name:<14} [{:>2}s..{:>2}s)  {tput:>9.0} writes/s", from / SECS, to / SECS);
        rows.push((name, tput));
    }
    println!(
        "  child leaders: {:?} (distinct nodes = leader-side work split), {refreshes} client table refreshes",
        leaders
    );
    let before = rows[0].1;
    let after = rows[2].1;
    println!("  scale-out factor: {:.2}x", after / before.max(1.0));
    assert!(
        after > before,
        "post-split throughput ({after:.0}/s) must exceed pre-split ({before:.0}/s)"
    );

    let dir = "target/experiments";
    let _ = fs::create_dir_all(dir);
    let path = format!("{dir}/fig17.csv");
    if let Ok(mut f) = fs::File::create(&path) {
        let _ = writeln!(f, "phase,throughput_writes_s");
        for (name, tput) in &rows {
            let _ = writeln!(f, "{name},{tput:.1}");
        }
    }
    println!("(csv written to {path})");
}
