//! Client retry timers in a running cluster: a call's timers are
//! cancelled once it is answered, so the event queue stays proportional
//! to clients and nodes rather than to the operation rate, while a real
//! timeout (a leader that dies mid-call) still fires and retries.

use bytes::Bytes;
use spinnaker_common::Consistency;
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::messages::ColumnSelect;
use spinnaker_core::partition::u64_to_key;
use spinnaker_core::session::{CallOutcome, SessionCall};
use spinnaker_sim::{DiskProfile, MICROS, MILLIS, SECS};

const NODES: usize = 5;

fn quick_cluster(seed: u64) -> SimCluster {
    let mut cfg =
        ClusterConfig { nodes: NODES, seed, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    SimCluster::new(cfg)
}

#[test]
fn event_queue_stays_bounded_under_closed_loop_load() {
    let mut cluster = quick_cluster(21);
    let mut clients = 0;
    for consistency in [Consistency::Strong, Consistency::Timeline] {
        for _ in 0..6 {
            cluster.add_client(Workload::Reads { keys: 2_000, consistency }, SECS, SECS, 5 * SECS);
            clients += 1;
        }
    }
    let writers: Vec<_> = (0..2)
        .map(|_| {
            clients += 1;
            cluster.add_client(
                Workload::Writes { keys: 2_000, value_size: 128 },
                SECS,
                SECS,
                5 * SECS,
            )
        })
        .collect();
    let bound = 64 + 8 * (clients + NODES);
    let mut peak = 0;
    let mut t = SECS;
    while t < 5 * SECS {
        t += 10 * MILLIS;
        cluster.run_until(t);
        peak = peak.max(cluster.sim.pending_events());
    }
    assert!(peak < bound, "{peak} events pending at peak, bound {bound}");
    // The bound is not met by idling: the fleet completed real work,
    // thousands of calls' worth of retry timers.
    let writes: u64 = writers.iter().map(|s| s.borrow().completed).sum();
    assert!(writes > 500, "writers made progress: {writes}");
    assert!(cluster.sim.events_processed() > 20 * bound as u64);
}

fn put(key: u64) -> SessionCall {
    SessionCall::Put {
        key: u64_to_key(key),
        cells: vec![(Bytes::from_static(b"c"), Bytes::from_static(b"v"))],
    }
}

#[test]
fn a_real_timeout_still_fires_and_retries() {
    let mut cluster = quick_cluster(22);
    cluster.run_until(3 * SECS);
    assert!(cluster.all_ranges_led());
    let range = cluster.ring.range_of(&u64_to_key(7));
    let leader = cluster.leader_of(range).expect("range led");

    // The call leaves at 3 s; its leader dies (session kept, so no
    // takeover until it expires) before the request can arrive.
    let stats = cluster.add_session(vec![put(7)], 3 * SECS);
    stats.borrow_mut().trace = Some(Vec::new());
    cluster.crash_node(3 * SECS + 10 * MICROS, leader, false);
    cluster.run_until(12 * SECS);

    let s = stats.borrow();
    assert!(matches!(s.outcomes.as_slice(), [CallOutcome::Written { .. }]), "{:?}", s.outcomes);
    let (_, latency) = s.trace.as_ref().expect("traced")[0];
    assert!(latency >= SECS, "completed only after the retry timer: {latency} ns");
    assert!(s.retries >= 1, "the timeout retried the call");
}

#[test]
fn a_call_answered_before_its_timer_counts_no_retry() {
    let mut cluster = quick_cluster(23);
    let get = |key| SessionCall::Get {
        key: u64_to_key(key),
        columns: ColumnSelect::One(Bytes::from_static(b"c")),
        consistency: Consistency::Timeline,
    };
    let stats = cluster.add_session(vec![get(7), get(8), get(9)], 3 * SECS);
    stats.borrow_mut().trace = Some(Vec::new());
    // Long past every cancelled timer's deadline.
    cluster.run_until(8 * SECS);
    let s = stats.borrow();
    assert_eq!(s.outcomes.len(), 3, "{:?}", s.outcomes);
    assert!(s.trace.as_ref().expect("traced").iter().all(|&(_, latency)| latency < SECS));
    assert_eq!(s.retries, 0);
}
