//! Pinned client statistics, one small cluster run per workload shape.
//!
//! Every figure is built from `ClientStats`, so a refactor of the client
//! actor must leave them bit-identical for the same seed: completions,
//! retries, ring refreshes, conditional-put mismatches and the summed
//! latency of every completion. A change here is a behaviour change —
//! re-pin only in a change that means to alter client behaviour, and say
//! so in its CHANGES.md entry.

use std::rc::Rc;

use bytes::Bytes;
use spinnaker_common::{Consistency, RangeId};
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::messages::ColumnSelect;
use spinnaker_core::partition::u64_to_key;
use spinnaker_core::session::SessionCall;
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

/// A fault injected into the run, to drive the retry paths.
#[derive(Clone, Copy)]
enum Fault {
    None,
    /// Split range 0 at 3 s: clients holding the boot table re-route.
    Split,
    /// Crash range 0's leader at 3 s without expiring its session.
    CrashLeader,
    /// A blind writer on the same 16 keys as a conditional-put chain,
    /// so the chain meets `VersionMismatch` and redoes.
    Contend,
}

/// `(completed, total_completed, retries, ring_refreshes,
/// cond_mismatches, latency_sum_ns)`.
type Pin = (u64, u64, u64, u64, u64, u128);

fn run(workload: Workload, pipeline: usize, fault: Fault) -> Pin {
    let mut cfg =
        ClusterConfig { nodes: 3, seed: 17, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    let mut cluster = SimCluster::new(cfg);
    let stats = match workload {
        Workload::Script(calls) => cluster.add_session((*calls).clone(), 2 * SECS),
        w => cluster.add_client_pipelined(w, pipeline, 2 * SECS, 2 * SECS, 5 * SECS),
    };
    stats.borrow_mut().trace = Some(Vec::new());
    if let Fault::Contend = fault {
        let blind = Workload::Writes { keys: 16, value_size: 8 };
        cluster.add_client(blind, 2 * SECS, 2 * SECS, 5 * SECS);
    }
    cluster.run_until(3 * SECS);
    match fault {
        Fault::None | Fault::Contend => {}
        Fault::Split => cluster.split_range(3 * SECS, RangeId(0), u64_to_key(2048)),
        Fault::CrashLeader => {
            let leader = cluster.leader_of(RangeId(0)).expect("range 0 led");
            cluster.crash_node(3 * SECS, leader, false);
        }
    }
    cluster.run_until(6 * SECS);
    let s = stats.borrow();
    let latency_sum: u128 = s.trace.as_ref().expect("traced").iter().map(|&(_, l)| l as u128).sum();
    assert_eq!(s.latency.count(), s.completed);
    (s.completed, s.total_completed, s.retries, s.ring_refreshes, s.cond_mismatches, latency_sum)
}

fn script() -> Workload {
    let key = |i: u64| u64_to_key(i.wrapping_mul(u64::MAX / 64));
    let mut calls = Vec::new();
    for i in 0..24 {
        calls.push(SessionCall::Put {
            key: key(i),
            cells: vec![(Bytes::from_static(b"c"), Bytes::from(vec![i as u8; 32]))],
        });
        calls.push(SessionCall::Get {
            key: key(i),
            columns: ColumnSelect::One(Bytes::from_static(b"c")),
            consistency: Consistency::Strong,
        });
    }
    calls.push(SessionCall::Scan {
        start: key(0),
        end: None,
        page: 5,
        consistency: Consistency::Timeline,
    });
    Workload::Script(Rc::new(calls))
}

#[test]
fn client_stats_are_pinned_per_workload() {
    let (keys, value_size) = (500, 64);
    let cases: Vec<(&str, Workload, usize, Fault, Pin)> = vec![
        (
            "reads-strong",
            Workload::Reads { keys, consistency: Consistency::Strong },
            1,
            Fault::CrashLeader,
            (665, 665, 4, 0, 0, 999414326),
        ),
        (
            "reads-timeline",
            Workload::Reads { keys, consistency: Consistency::Timeline },
            1,
            Fault::None,
            (1997, 2664, 0, 0, 0, 3999715118),
        ),
        (
            "writes",
            Workload::Writes { keys, value_size },
            1,
            Fault::Split,
            (2004, 2673, 2, 1, 0, 3999710788),
        ),
        (
            "mixed",
            Workload::Mixed { keys, value_size, write_pct: 30, consistency: Consistency::Strong },
            1,
            Fault::CrashLeader,
            (670, 670, 4, 0, 0, 1006264252),
        ),
        (
            "conditional-puts",
            Workload::ConditionalPuts { keys: 16, value_size },
            1,
            Fault::Contend,
            (1419, 1892, 1930, 0, 1930, 3999516557),
        ),
        (
            "single-range-writes",
            Workload::SingleRangeWrites { value_size },
            1,
            Fault::Split,
            (2001, 2669, 2, 1, 0, 3999721725),
        ),
        (
            "span-writes",
            Workload::SpanWrites { value_size, lo: 0, hi: 4096 },
            1,
            Fault::Split,
            (2000, 2669, 2, 1, 0, 3999712892),
        ),
        (
            "scans",
            Workload::Scans { keys, rows: 40, page: 8, consistency: Consistency::Timeline },
            1,
            Fault::Split,
            (1722, 2296, 1, 1, 0, 3999713480),
        ),
        ("script", script(), 1, Fault::None, (49, 49, 0, 0, 0, 76510385)),
        (
            "writes-pipeline-8",
            Workload::Writes { keys, value_size },
            8,
            Fault::CrashLeader,
            (4927, 4927, 29, 0, 0, 8524545537),
        ),
    ];
    let mut diverged = Vec::new();
    for (name, workload, pipeline, fault, want) in cases {
        let got = run(workload, pipeline, fault);
        if got != want {
            diverged.push(format!("{name}: got {got:?}, pinned {want:?}"));
        }
    }
    assert!(diverged.is_empty(), "client stats changed:\n{}", diverged.join("\n"));
}
