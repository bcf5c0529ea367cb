//! Cluster workloads: five simulated nodes under closed-loop client
//! fleets, measured from outside.
//!
//! Every actor is wrapped in a decorator through the public
//! `Sim::remove_actor`/`replace_actor`: nodes (traced runs only) to time
//! each event by class, clients (always) to classify every reply they
//! receive. Everything else is read from public getters.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use spinnaker_common::{Consistency, Key, RangeId};
use spinnaker_core::client::{ClientEv, ClientStats, Workload};
use spinnaker_core::cluster::{ClusterConfig, Ev, SimCluster};
use spinnaker_core::messages::{
    ClientError, ClientOp, ClientReply, ClientRequest, NodeInput, PeerMsg, TimerKind,
};
use spinnaker_core::node::NodeConfig;
use spinnaker_core::partition::{u64_to_key, REPLICATION};
use spinnaker_core::session::{CallOutcome, SessionCall};
use spinnaker_sim::{Actor, Ctx, ProcId, Time, MILLIS, SECS};
use spinnaker_storage::StoreStats;

use crate::stats::{host_seconds, median, peak_rss_mb, percentile, ratio};
use crate::trace::{codec_layers, storage_layers, write_artifact, Values, END_TO_END, PER_LAYER};
use crate::{Report, SETUPS};

const NODES: usize = 5;
/// Rows preloaded before the window opens; every read targets one.
const KEYS: u64 = 16_384;
/// Value bytes per row (preload and writers alike).
const VALUE_SIZE: usize = 128;
/// Node-wide block cache. With ~3 replicas of 1/5 of the rows per node,
/// each node holds about six times this much table data.
const CACHE_BYTES: u64 = 256 << 10;
/// Concurrent preload scripts (each puts its share of the keys in order).
const PRELOAD_SCRIPTS: u64 = 64;
/// Warm-up between fleet start and the window opening.
const WARM: Time = SECS;
/// An op outstanding this long at window end counts as stalled (failed).
const STALL: Time = 2 * SECS;
/// Slices the window is cut into (follower-lag samples, per-slice write gaps).
const SLICES: u64 = 20;
/// Polling step while a failover is in progress.
const POLL: Time = MILLIS;
/// Failover: one leader crash per this much virtual time.
const CYCLE: Time = 15 * SECS;
/// Failover: a crashed leader restarts this long after its crash.
const RESTART_AFTER: Time = 3 * SECS;
/// Failover: the dense range-0 writer's script holds one put per this
/// much virtual time, several times more than a forced write can complete.
const DENSE_PACE: Time = 5 * MILLIS;

/// Op kind and consistency level a fleet runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    GetStrong,
    GetTimeline,
    Put,
    Scan,
}

struct Fleet {
    kind: Kind,
    workload: Workload,
    clients: usize,
    /// Calls each client keeps outstanding.
    window: usize,
}

struct Shape {
    fleets: Vec<Fleet>,
    /// Virtual seconds measured per requested host second: sizes the
    /// window so a run takes about `--seconds` of host time on a 2-core
    /// x86-64 box while staying a fixed, seed-exact amount of virtual work.
    virt_per_host_s: f64,
    failover: bool,
}

fn fleet(kind: Kind, clients: usize, window: usize) -> Fleet {
    let workload = match kind {
        Kind::GetStrong => Workload::Reads { keys: KEYS, consistency: Consistency::Strong },
        Kind::GetTimeline => Workload::Reads { keys: KEYS, consistency: Consistency::Timeline },
        // Uniform random keys over the whole space: each write lands on
        // any range, so no writer sticks to one cohort for the window.
        Kind::Put => Workload::SpanWrites { value_size: VALUE_SIZE, lo: 0, hi: u64::MAX },
        Kind::Scan => {
            Workload::Scans { keys: KEYS, rows: 16, page: 8, consistency: Consistency::Strong }
        }
    };
    Fleet { kind, workload, clients, window }
}

fn shape(name: &str) -> Option<Shape> {
    Some(match name {
        // Point reads at both levels dominate; about 1 client in 6 writes.
        "kv-mixed" => Shape {
            fleets: vec![
                fleet(Kind::GetStrong, 12, 1),
                fleet(Kind::GetTimeline, 12, 1),
                fleet(Kind::Put, 5, 1),
                fleet(Kind::Scan, 2, 1),
            ],
            virt_per_host_s: 1.8,
            failover: false,
        },
        // Pipelined writers fill group proposes; pinned snapshot scans
        // page through MVCC while a light reader pair keeps gets measured.
        "kv-write-batch" => Shape {
            fleets: vec![
                fleet(Kind::Put, 8, 8),
                Fleet {
                    kind: Kind::Scan,
                    workload: Workload::Scans {
                        keys: KEYS,
                        rows: 64,
                        page: 16,
                        consistency: Consistency::SNAPSHOT_PIN,
                    },
                    clients: 4,
                    window: 1,
                },
                fleet(Kind::GetStrong, 1, 1),
                fleet(Kind::GetTimeline, 1, 1),
            ],
            virt_per_host_s: 6.0,
            failover: false,
        },
        // Beside these fleets, one dense writer puts fresh range-0 keys
        // (see `dense_script`), so every acknowledged write is checkable
        // after the leader of range 0 crashes and restarts.
        "failover" => Shape {
            fleets: vec![
                fleet(Kind::Put, 5, 1),
                fleet(Kind::GetStrong, 4, 1),
                fleet(Kind::GetTimeline, 4, 1),
                fleet(Kind::Scan, 1, 1),
            ],
            virt_per_host_s: 8.0,
            failover: true,
        },
        _ => return None,
    })
}

fn node_config() -> NodeConfig {
    NodeConfig {
        memtable_flush_bytes: 64 << 10,
        level_base_bytes: 256 << 10,
        block_cache_bytes: CACHE_BYTES,
        ..NodeConfig::default()
    }
}

/// The key the workload generators use for key index `i` (the preload
/// writes exactly this set, so every generated read finds a row).
fn preload_key(i: u64) -> Key {
    u64_to_key((i % KEYS).wrapping_mul(u64::MAX / KEYS))
}

fn value() -> Bytes {
    Bytes::from(vec![0x5au8; VALUE_SIZE])
}

/// The failover writer's calls: puts of keys 1, 2, 3, ... (all inside
/// range 0 and none a preloaded key), one key each, in order. Its
/// acknowledged calls are exactly the keys that must read back.
fn dense_script(span: Time) -> Vec<SessionCall> {
    let cells = vec![(Bytes::from_static(b"c"), value())];
    (1..=span / DENSE_PACE)
        .map(|i| SessionCall::Put { key: u64_to_key(i), cells: cells.clone() })
        .collect()
}

/// Node event classes timed in traced runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    ClientRead,
    ClientScan,
    ClientWrite,
    Propose,
    Ack,
    Commit,
    OtherPeer,
    SyncDone,
    Maintenance,
    OtherTimer,
    Restart,
    Other,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::ClientRead => "node.client_read",
            Class::ClientScan => "node.client_scan",
            Class::ClientWrite => "node.client_write",
            Class::Propose => "node.propose",
            Class::Ack => "node.ack",
            Class::Commit => "node.commit",
            Class::OtherPeer => "node.other_peer",
            Class::SyncDone => "node.sync_done",
            Class::Maintenance => "node.maintenance",
            Class::OtherTimer => "node.other_timer",
            Class::Restart => "node.restart",
            Class::Other => "node.other",
        }
    }
}

fn classify(ev: &Ev) -> Class {
    match ev {
        Ev::Exec(NodeInput::Client { req, .. }) => match req.op {
            ClientOp::Scan { .. } => Class::ClientScan,
            ref op if op.is_write() => Class::ClientWrite,
            _ => Class::ClientRead,
        },
        Ev::Exec(NodeInput::Peer { msg, .. }) => match msg {
            PeerMsg::Propose { .. } => Class::Propose,
            PeerMsg::Ack { .. } => Class::Ack,
            PeerMsg::Commit { .. } => Class::Commit,
            _ => Class::OtherPeer,
        },
        Ev::SyncDone => Class::SyncDone,
        Ev::TimerFire { kind: TimerKind::Maintenance, .. } => Class::Maintenance,
        Ev::TimerFire { .. } => Class::OtherTimer,
        Ev::Restart => Class::Restart,
        _ => Class::Other,
    }
}

/// What the decorators observed.
#[derive(Default)]
struct Rec {
    /// Time actors and count window events (set while the window is open).
    window_open: bool,
    /// Time node and client events (traced runs).
    timing: bool,
    node: BTreeMap<Class, (u64, f64)>,
    client_us: f64,
    not_leader: u64,
    unavailable: u64,
    wrong_range: u64,
    timeouts: u64,
    /// Per client, the `ClientStats::trace` indices of completions that
    /// failed: a terminal error reply, or a read of a preloaded key that
    /// came back without the row.
    bad: BTreeMap<ProcId, BTreeSet<usize>>,
    /// Completed reads of preloaded keys that came back without the row.
    missing_reads: u64,
    /// Client requests seen by nodes (codec and crc inputs).
    samples: Vec<ClientRequest>,
}

type SharedRec = Rc<RefCell<Rec>>;

/// Times every event a node (or the coordination ticker) handles.
struct NodeTap {
    inner: Box<dyn Actor<Ev>>,
    rec: SharedRec,
}

impl Actor<Ev> for NodeTap {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let class = classify(&ev);
        {
            let mut rec = self.rec.borrow_mut();
            if let Ev::Exec(NodeInput::Client { req, .. }) = &ev {
                if rec.window_open && rec.samples.len() < 512 {
                    rec.samples.push(req.clone());
                }
            }
        }
        let t0 = Instant::now();
        self.inner.on_event(now, ev, ctx);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let mut rec = self.rec.borrow_mut();
        if rec.window_open {
            let slot = rec.node.entry(class).or_default();
            slot.0 += 1;
            slot.1 += us;
        }
    }
}

/// Classifies every reply a client receives; times the client in traced runs.
struct ClientTap {
    inner: Box<dyn Actor<Ev>>,
    proc: ProcId,
    rec: SharedRec,
    stats: Rc<RefCell<ClientStats>>,
    reads_preloaded: bool,
}

impl Actor<Ev> for ClientTap {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let (mut is_timeout, mut terminal, mut missing) = (false, false, false);
        {
            let mut rec = self.rec.borrow_mut();
            match &ev {
                Ev::Client(ClientEv::Reply(ClientReply::Err { error, .. })) => {
                    if !error.is_retryable() {
                        terminal = true;
                    } else if rec.window_open {
                        match error {
                            ClientError::NotLeader { .. } => rec.not_leader += 1,
                            ClientError::Unavailable => rec.unavailable += 1,
                            _ => rec.wrong_range += 1,
                        }
                    }
                }
                Ev::Client(ClientEv::Reply(ClientReply::Row { cells, .. })) => {
                    missing = self.reads_preloaded && !cells.iter().any(|c| c.value.is_some());
                }
                Ev::Client(ClientEv::Timeout(_)) => is_timeout = true,
                _ => {}
            }
        }
        let completions = |s: &ClientStats| s.trace.as_ref().map_or(0, Vec::len);
        let (retries, done) = {
            let s = self.stats.borrow();
            (s.retries, completions(&s))
        };
        let t0 = self.rec.borrow().timing.then(Instant::now);
        self.inner.on_event(now, ev, ctx);
        let mut rec = self.rec.borrow_mut();
        if let Some(t0) = t0 {
            if rec.window_open {
                rec.client_us += t0.elapsed().as_secs_f64() * 1e6;
            }
        }
        let s = self.stats.borrow();
        if is_timeout && rec.window_open && s.retries > retries {
            rec.timeouts += 1;
        }
        // A reply completes at most one call. Only a reply that completed
        // one marks it failed: a stale duplicate of an answered request
        // completes nothing.
        if (terminal || missing) && completions(&s) > done {
            rec.bad.entry(self.proc).or_default().insert(done);
            rec.missing_reads += u64::from(missing);
        }
    }
}

/// A booted, preloaded cluster plus the bookkeeping to address its actors.
struct Bench {
    c: SimCluster,
    rec: SharedRec,
    /// Proc id the next added client receives (registration order).
    next_proc: ProcId,
}

impl Bench {
    fn add_client(
        &mut self,
        workload: Workload,
        window: usize,
        reads_preloaded: bool,
        measure: (Time, Time),
    ) -> (ProcId, Rc<RefCell<ClientStats>>) {
        let now = self.c.sim.now();
        let stats = match workload {
            Workload::Script(calls) => self.c.add_session((*calls).clone(), now),
            w => self.c.add_client_pipelined(w, window, now, measure.0, measure.1),
        };
        let proc = self.next_proc;
        self.next_proc += 1;
        let inner = self.c.sim.remove_actor(proc).expect("client actor registered");
        let rec = self.rec.clone();
        let tap = ClientTap { inner, proc, rec, stats: stats.clone(), reads_preloaded };
        self.c.sim.replace_actor(proc, Box::new(tap));
        (proc, stats)
    }

    fn script(&mut self, calls: Vec<SessionCall>) -> Rc<RefCell<ClientStats>> {
        self.add_client(Workload::Script(Rc::new(calls)), 1, false, (0, u64::MAX)).1
    }

    /// Run until every script has an outcome for each of its calls.
    fn run_scripts(&mut self, scripts: &[(usize, Rc<RefCell<ClientStats>>)], limit: Time) -> bool {
        let deadline = self.c.sim.now() + limit;
        while scripts.iter().any(|(n, s)| s.borrow().outcomes.len() < *n) {
            if self.c.sim.now() >= deadline {
                return false;
            }
            let t = self.c.sim.now() + 100 * MILLIS;
            self.c.run_until(t);
        }
        true
    }

    fn store_totals(&self) -> StoreStats {
        let mut sum = StoreStats::default();
        for n in 0..NODES as u32 {
            self.c.with_node(n, |node| {
                for r in node.served_ranges() {
                    if let Some(s) = node.store_stats(r) {
                        sum.point_gets += s.point_gets;
                        sum.span_skips += s.span_skips;
                        sum.bloom_negatives += s.bloom_negatives;
                        sum.bloom_true_positives += s.bloom_true_positives;
                        sum.bloom_false_positives += s.bloom_false_positives;
                        sum.compactions += s.compactions;
                        sum.bytes_compacted += s.bytes_compacted;
                        sum.cache_hits += s.cache_hits;
                        sum.cache_misses += s.cache_misses;
                        sum.block_reads += s.block_reads;
                        // Level shape does not add up across replicas:
                        // keep one entry per replica, its live tables.
                        sum.tables_per_level.push(s.tables_per_level.iter().sum());
                    }
                }
            });
        }
        sum
    }

    /// The smallest node's stored bytes over its block cache.
    fn data_to_cache(&self) -> f64 {
        let per_node = (0..NODES as u32).filter_map(|n| {
            self.c.with_node(n, |node| {
                let bytes: u64 = node
                    .served_ranges()
                    .into_iter()
                    .filter_map(|r| node.store(r).map(|s| s.approx_total_bytes()))
                    .sum();
                bytes as f64 / CACHE_BYTES as f64
            })
        });
        per_node.fold(f64::INFINITY, f64::min)
    }

    fn install_node_taps(&mut self) {
        for proc in 0..=NODES as ProcId {
            let inner = self.c.sim.remove_actor(proc).expect("node actor registered");
            self.c.sim.replace_actor(proc, Box::new(NodeTap { inner, rec: self.rec.clone() }));
        }
    }
}

/// Boot five nodes, preload every key, and drain compaction debt.
fn setup(seed: u64) -> Result<Bench, String> {
    let cfg = ClusterConfig { nodes: NODES, seed, node: node_config(), ..ClusterConfig::default() };
    let c = SimCluster::new(cfg);
    let mut b = Bench { c, rec: SharedRec::default(), next_proc: NODES as ProcId + 1 };
    b.c.run_until(2 * SECS);
    if !b.c.all_ranges_led() {
        return Err("ranges not led after boot".into());
    }
    let mut scripts = Vec::new();
    for s in 0..PRELOAD_SCRIPTS {
        let calls: Vec<SessionCall> = (s..KEYS)
            .step_by(PRELOAD_SCRIPTS as usize)
            .map(|i| SessionCall::Put {
                key: preload_key(i),
                cells: vec![(Bytes::from_static(b"c"), value())],
            })
            .collect();
        let n = calls.len();
        scripts.push((n, b.script(calls)));
    }
    if !b.run_scripts(&scripts, 300 * SECS) {
        return Err("preload did not finish".into());
    }
    let all_written = scripts
        .iter()
        .all(|(_, s)| s.borrow().outcomes.iter().all(|o| matches!(o, CallOutcome::Written { .. })));
    if !all_written {
        return Err("a preload put failed".into());
    }
    // Drain: run until a whole second passes without a compaction.
    let mut last = b.store_totals().compactions;
    for _ in 0..120 {
        let t = b.c.sim.now() + SECS;
        b.c.run_until(t);
        let now = b.store_totals().compactions;
        if now == last {
            return Ok(b);
        }
        last = now;
    }
    Err("compaction did not drain within 120 s".into())
}

/// Everything one measurement window produced.
#[derive(Default)]
struct Window {
    virt_s: f64,
    /// Host seconds the window took to simulate.
    host_s: f64,
    /// Wall seconds spent inside `run_until` during the window: the same
    /// clock the node and client decorators time actors with.
    run_wall_s: f64,
    /// Ops completed successfully in the window.
    ops: u64,
    lat_ms: BTreeMap<Kind, Vec<f64>>,
    attempted: u64,
    /// Ops that completed failed in the window, plus the stalled ones.
    failed: u64,
    stalled: u64,
    unavailable_ms: f64,
    events: u64,
    net_msgs: u64,
    syncs: u64,
    puts: u64,
    retries: u64,
    store: (StoreStats, StoreStats),
    tables: u64,
    leader_gap_ms: f64,
    catchup_ms: f64,
    follower_lag: Vec<f64>,
    checks: Vec<(String, bool)>,
    rec: Rec,
}

/// One crash of range 0's leader and its restart `RESTART_AFTER` later.
struct Cycle {
    crash_at: Time,
    restart_at: Time,
    victim: Option<u32>,
    led_at: Option<Time>,
    target: Option<spinnaker_common::Lsn>,
    caught_at: Option<Time>,
}

impl Cycle {
    fn new(crash_at: Time) -> Cycle {
        Cycle {
            crash_at,
            restart_at: crash_at + RESTART_AFTER,
            victim: None,
            led_at: None,
            target: None,
            caught_at: None,
        }
    }

    /// The next instant the run must stop at for this cycle, if any.
    fn next_stop(&self, now: Time) -> Option<Time> {
        let busy = (now >= self.crash_at && self.led_at.is_none())
            || (now >= self.restart_at && self.caught_at.is_none());
        if busy {
            Some(now + POLL)
        } else if self.victim.is_none() {
            Some(self.crash_at)
        } else if self.caught_at.is_none() {
            Some(self.restart_at)
        } else {
            None
        }
    }

    /// Act on and observe the failover at the current instant.
    fn step(&mut self, b: &mut Bench) {
        let now = b.c.sim.now();
        let range = RangeId(0);
        if now >= self.crash_at && self.victim.is_none() {
            let leader = b.c.leader_of(range).expect("range led before the crash");
            b.c.crash_node(now, leader, true);
            b.c.restart_node(self.restart_at, leader);
            self.victim = Some(leader);
            return;
        }
        let Some(victim) = self.victim else { return };
        if self.led_at.is_none() && b.c.leader_of(range).is_some_and(|l| l != victim) {
            self.led_at = Some(now);
        }
        if now >= self.restart_at && self.caught_at.is_none() {
            let Some(leader) = b.c.leader_of(range) else { return };
            let target = *self.target.get_or_insert_with(|| {
                b.c.with_node(leader, |n| n.last_committed(range)).unwrap_or_default()
            });
            let lsn = b.c.with_node(victim, |n| n.last_lsn(range));
            if lsn.is_some_and(|l| l >= target) {
                self.caught_at = Some(now);
            }
        }
    }
}

/// Mean over ranges of the leader's log end minus each follower's.
fn follower_lag(b: &Bench) -> Option<f64> {
    let ring = b.c.current_ring();
    let mut lags = Vec::new();
    for r in ring.ranges() {
        let Some(leader) = b.c.leader_of(r) else { continue };
        let Some(head) = b.c.with_node(leader, |n| n.last_lsn(r)) else { continue };
        for m in ring.cohort(r) {
            if m == leader {
                continue;
            }
            if let Some(l) = b.c.with_node(m, |n| n.last_lsn(r)) {
                if l.epoch() == head.epoch() {
                    lags.push(head.seq().saturating_sub(l.seq()) as f64);
                }
            }
        }
    }
    (!lags.is_empty()).then(|| lags.iter().sum::<f64>() / lags.len() as f64)
}

/// Calls outstanding at `end` that started before `end - STALL`:
/// every completion starts the client's next call at the same instant,
/// so the outstanding starts are all starts minus the completed ones.
fn stalled(stats: &ClientStats, window: usize, started: Time, end: Time) -> u64 {
    let trace = stats.trace.as_deref().unwrap_or_default();
    let mut starts: Vec<Time> = std::iter::repeat_n(started, window).collect();
    starts.extend(trace.iter().map(|&(t, _)| t));
    let mut done: Vec<Time> = trace.iter().map(|&(t, l)| t - l).collect();
    starts.sort_unstable();
    done.sort_unstable();
    let mut open = Vec::new();
    let mut j = 0;
    for s in starts {
        if j < done.len() && done[j] == s {
            j += 1;
        } else {
            open.push(s);
        }
    }
    open.iter().filter(|&&s| s + STALL < end).count() as u64
}

/// Longest gap (ms) between consecutive `times` that ends in `(after, until]`.
fn max_gap_ms(times: &[Time], after: Time, until: Time) -> f64 {
    times
        .windows(2)
        .filter(|w| w[1] > after && w[1] <= until)
        .map(|w| (w[1] - w[0]) as f64 / 1e6)
        .fold(0.0, f64::max)
}

/// One workload client and what its results are filed under.
struct Client {
    proc: ProcId,
    stats: Rc<RefCell<ClientStats>>,
    kind: Kind,
    window: usize,
    /// The failover writer of `dense_script` keys.
    dense: bool,
}

/// Run the workload's fleets over one window of `virt` virtual time.
fn measure(mut b: Bench, shape: &Shape, virt: Time, traced: bool) -> Window {
    if traced {
        b.install_node_taps();
        b.rec.borrow_mut().timing = true;
    }
    let start = b.c.sim.now();
    let (from, to) = (start + WARM, start + WARM + virt);
    let mut clients = Vec::new();
    for f in &shape.fleets {
        for _ in 0..f.clients {
            let reads = matches!(f.kind, Kind::GetStrong | Kind::GetTimeline);
            let (proc, stats) = b.add_client(f.workload.clone(), f.window, reads, (from, to));
            stats.borrow_mut().trace = Some(Vec::new());
            clients.push(Client { proc, stats, kind: f.kind, window: f.window, dense: false });
        }
    }
    let dense = if shape.failover { dense_script(to - start) } else { Vec::new() };
    if !dense.is_empty() {
        let script = Workload::Script(Rc::new(dense.clone()));
        let (proc, stats) = b.add_client(script, 1, false, (from, to));
        stats.borrow_mut().trace = Some(Vec::new());
        clients.push(Client { proc, stats, kind: Kind::Put, window: 1, dense: true });
    }
    b.c.run_until(from);
    let retries = |cl: &[Client]| cl.iter().map(|c| c.stats.borrow().retries).sum::<u64>();
    let mut w = Window { virt_s: virt as f64 / 1e9, ..Window::default() };
    let (events0, net0, disk0, retries0) = (
        b.c.sim.events_processed(),
        b.c.world.net.borrow().counters().0,
        b.c.disk_counters().0,
        retries(&clients),
    );
    w.store.0 = b.store_totals();
    // Crash just before a whole second, when the periodic commit is
    // about to fire: the most uncommitted work sits at the followers.
    let mut cycles: Vec<Cycle> = if shape.failover {
        let n = (virt / CYCLE).max(1);
        (0..n)
            .map(|k| Cycle::new((from + k * CYCLE) / SECS * SECS + 2 * SECS - 50 * MILLIS))
            .collect()
    } else {
        Vec::new()
    };
    b.rec.borrow_mut().window_open = true;
    let mut bounds = vec![from];
    for k in 1..=SLICES {
        let end = from + virt * k / SLICES;
        let t0 = host_seconds();
        loop {
            let now = b.c.sim.now();
            if now >= end {
                break;
            }
            let mut next = end;
            for c in &mut cycles {
                c.step(&mut b);
                next = c.next_stop(now).map_or(next, |t| t.min(next));
            }
            let wall = Instant::now();
            b.c.run_until(next.min(end));
            w.run_wall_s += wall.elapsed().as_secs_f64();
        }
        w.host_s += host_seconds() - t0;
        bounds.push(end);
        if let Some(lag) = follower_lag(&b) {
            w.follower_lag.push(lag);
        }
    }
    b.rec.borrow_mut().window_open = false;
    w.events = b.c.sim.events_processed() - events0;
    w.net_msgs = b.c.world.net.borrow().counters().0 - net0;
    w.syncs = b.c.disk_counters().0.saturating_sub(disk0);
    w.retries = retries(&clients) - retries0;
    w.store.1 = b.store_totals();
    w.tables = w.store.1.tables_per_level.iter().sum::<usize>() as u64;

    // Acknowledged completions only: failed ones count as failed ops and
    // stay out of the latency samples and the write-gap times.
    let mut put_times = Vec::new();
    let mut dense_times = Vec::new();
    let mut failed_ops = 0;
    for Client { proc, stats, kind, window, dense, .. } in &clients {
        let s = stats.borrow();
        let rec = b.rec.borrow();
        let bad = rec.bad.get(proc);
        for (i, &(t, lat)) in s.trace.as_deref().unwrap_or_default().iter().enumerate() {
            let acked = !bad.is_some_and(|bad| bad.contains(&i));
            if acked && *kind == Kind::Put {
                if *dense {
                    dense_times.push(t);
                } else {
                    put_times.push(t);
                }
            }
            if t < from || t > to {
                continue;
            }
            if !acked {
                failed_ops += 1;
                continue;
            }
            w.ops += 1;
            w.lat_ms.entry(*kind).or_default().push(lat as f64 / 1e6);
            if *kind == Kind::Put {
                w.puts += 1;
            }
        }
        w.stalled += stalled(&s, *window, start, to);
    }
    w.failed = failed_ops + w.stalled;
    w.attempted = w.ops + w.failed;
    put_times.sort_unstable();
    dense_times.sort_unstable();
    // Longest gap between acknowledged writes: after each crash (to the
    // crashed range), else per slice of the window; median of those.
    let spans: Vec<(Time, Time)> = if cycles.is_empty() {
        bounds.windows(2).map(|b| (b[0], b[1])).collect()
    } else {
        cycles.iter().map(|c| (c.crash_at, c.crash_at + CYCLE)).collect()
    };
    let times = if cycles.is_empty() { &put_times } else { &dense_times };
    let gaps: Vec<f64> = spans.iter().map(|&(a, z)| max_gap_ms(times, a, z)).collect();
    w.unavailable_ms = median(&gaps).unwrap_or(0.0);
    if !cycles.is_empty() {
        let ms = |a: Option<Time>, since: Time| a.map(|t| (t - since) as f64 / 1e6);
        let led: Vec<f64> = cycles.iter().filter_map(|c| ms(c.led_at, c.crash_at)).collect();
        let caught: Vec<f64> =
            cycles.iter().filter_map(|c| ms(c.caught_at, c.restart_at)).collect();
        w.checks.push((
            format!("failover: a new leader took over, {} times", cycles.len()),
            led.len() == cycles.len(),
        ));
        w.checks.push((
            "failover: every restarted leader caught up".into(),
            caught.len() == cycles.len(),
        ));
        w.leader_gap_ms = median(&led).unwrap_or(0.0);
        w.catchup_ms = median(&caught).unwrap_or(0.0);
    }

    // Stop the fleets, then read every row back at strong consistency.
    for c in &clients {
        b.c.sim.remove_actor(c.proc);
    }
    let scan = SessionCall::Scan {
        start: u64_to_key(0),
        end: None,
        page: 512,
        consistency: Consistency::Strong,
    };
    let verifier = b.script(vec![scan]);
    let finished = b.run_scripts(&[(1, verifier.clone())], 60 * SECS);
    w.checks.push(("read-back scan completed".into(), finished));
    let outcome = verifier.borrow().outcomes.first().cloned();
    let mut expected: Vec<Key> = (0..KEYS).map(preload_key).collect();
    // The dense writer's calls each put their own key, so its acknowledged
    // calls name exactly the keys it added. Random-key writers add rows
    // that only the value check covers.
    if let Some(c) = clients.iter().find(|c| c.dense) {
        let outcomes = &c.stats.borrow().outcomes;
        w.checks.push((
            format!("failover: the dense writer never ran out of keys ({} puts)", outcomes.len()),
            outcomes.len() < dense.len(),
        ));
        for (call, outcome) in dense.iter().zip(outcomes) {
            if let (SessionCall::Put { key, .. }, CallOutcome::Written { .. }) = (call, outcome) {
                expected.push(key.clone());
            }
        }
    }
    expected.sort();
    expected.dedup();
    let (rows_ok, values_ok) = match outcome {
        Some(CallOutcome::Rows { rows, .. }) => {
            let got: Vec<&Key> = rows.iter().map(|r| &r.key).collect();
            let present = expected.iter().all(|k| got.binary_search(&k).is_ok());
            let values_ok = rows.iter().all(|r| {
                r.cells
                    .iter()
                    .any(|c| c.col.as_ref() == b"c" && c.value.as_deref() == Some(&value()[..]))
            });
            (present, values_ok)
        }
        _ => (false, false),
    };
    w.checks.push((
        format!("every preloaded and every acknowledged key reads back ({} rows)", expected.len()),
        rows_ok,
    ));
    w.checks.push(("every row holds the written value".into(), values_ok));
    let rec = std::mem::take(&mut *b.rec.borrow_mut());
    w.checks.push(("reads of preloaded keys found their row".into(), rec.missing_reads == 0));
    w.rec = rec;
    w
}

/// Counts that must repeat exactly for the same seed and window.
fn fingerprint(w: &Window) -> (u64, u64, u64, u64, Vec<u64>) {
    let lat_sum = w.lat_ms.values().map(|v| v.iter().map(|x| (x * 1e6) as u64).sum()).collect();
    (w.events, w.ops, w.net_msgs, w.retries, lat_sum)
}

fn end_to_end(w: &Window, setup_s: f64) -> Values {
    let mut v = Values::default();
    v.set("setup_s", setup_s);
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("host_ops_per_s", w.ops as f64 / w.host_s);
    v.set("ops_per_s", w.ops as f64 / w.virt_s);
    let mut lat = |kind, p50, p99| {
        let mut samples = w.lat_ms.get(&kind).cloned().unwrap_or_default();
        v.set(p50, percentile(&mut samples, 0.50).unwrap_or(0.0));
        v.set(p99, percentile(&mut samples, 0.99).unwrap_or(0.0));
    };
    lat(Kind::GetStrong, "get_strong_p50_ms", "get_strong_p99_ms");
    lat(Kind::GetTimeline, "get_timeline_p50_ms", "get_timeline_p99_ms");
    lat(Kind::Put, "put_p50_ms", "put_p99_ms");
    lat(Kind::Scan, "scan_p50_ms", "scan_p99_ms");
    v.set("unavailable_ms", w.unavailable_ms);
    v
}

fn per_layer(w: &Window, untraced: &Window) -> Values {
    let mut v = Values::default();
    let ops = w.ops.max(1) as f64;
    v.set("error_rate", ratio(w.failed as f64, w.attempted as f64));
    v.set("trace.host_ops_per_s", w.ops as f64 / w.host_s);
    v.set("trace.overhead_ratio", w.host_s / untraced.host_s);
    let node_us: f64 = w.rec.node.values().map(|s| s.1).sum();
    let kernel_us = w.run_wall_s * 1e6 - node_us - w.rec.client_us;
    v.set("sim.kernel_self_us_per_op", kernel_us / ops);
    v.set("sim.events_per_op", w.events as f64 / ops);
    v.set("sim.net_msgs_per_op", w.net_msgs as f64 / ops);
    v.set("wal.writes_per_force", ratio((w.puts * REPLICATION as u64) as f64, w.syncs as f64));
    v.set("session.host_us_per_op", w.rec.client_us / ops);
    v.set("session.retries_per_op", w.retries as f64 / ops);
    v.set("session.redirects.not_leader", w.rec.not_leader as f64);
    v.set("session.redirects.unavailable", w.rec.unavailable as f64);
    v.set("session.redirects.wrong_range", w.rec.wrong_range as f64);
    v.set("session.timeouts", w.rec.timeouts as f64);
    let mean = |c: Class| w.rec.node.get(&c).map_or(0.0, |&(n, us)| us / n.max(1) as f64);
    v.set("node.client_read_us", mean(Class::ClientRead));
    v.set("node.client_scan_us", mean(Class::ClientScan));
    v.set("node.client_write_us", mean(Class::ClientWrite));
    v.set("node.propose_us", mean(Class::Propose));
    v.set("node.ack_us", mean(Class::Ack));
    v.set("node.commit_us", mean(Class::Commit));
    v.set("node.sync_done_us", mean(Class::SyncDone));
    v.set("node.maintenance_ms", mean(Class::Maintenance) / 1e3);
    v.set("node.restart_ms", mean(Class::Restart) / 1e3);
    v.set("election.leader_gap_ms", w.leader_gap_ms);
    v.set("replica.catchup_ms", w.catchup_ms);
    let lag = &w.follower_lag;
    v.set("replica.follower_lag_lsn", ratio(lag.iter().sum(), lag.len() as f64));
    let user_bytes = (w.puts * REPLICATION as u64 * VALUE_SIZE as u64) as f64;
    storage_layers(&mut v, &w.store, user_bytes, w.tables as usize);
    codec_layers(&mut v, &w.rec.samples);
    v
}

/// Run a cluster workload by name.
pub fn run(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let shape = shape(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let min_virt = if shape.failover { CYCLE } else { SECS };
    let virt = |secs: f64| (((secs * shape.virt_per_host_s * 1e3) as Time) * MILLIS).max(min_virt);
    let mut checks = Vec::new();
    let (window, values) = if traced {
        // The same virtual work twice, untraced then traced, so the
        // overhead ratio compares identical event streams.
        let half = virt(seconds as f64 / 2.0);
        let plain = measure(setup(seed)?, &shape, half, false);
        let traced_w = measure(setup(seed)?, &shape, half, true);
        checks.push((
            "same seed, same events, ops and latencies (untraced vs traced)".into(),
            fingerprint(&plain) == fingerprint(&traced_w),
        ));
        let values = per_layer(&traced_w, &plain);
        let mut totals: Vec<_> =
            traced_w.rec.node.iter().map(|(class, &(n, us))| (class.name(), n, us)).collect();
        totals.push(("session.client", traced_w.ops, traced_w.rec.client_us));
        write_artifact(name, seed, &totals, &values);
        (traced_w, values.list(PER_LAYER))
    } else {
        // Set up several times: set-up time is the median, and every
        // set-up must reach the identical state.
        let mut times = Vec::new();
        let mut states = Vec::new();
        let mut bench = None;
        for _ in 0..SETUPS {
            drop(bench.take()); // free the previous set-up first
            let t0 = host_seconds();
            let b = setup(seed)?;
            times.push(host_seconds() - t0);
            states.push((b.c.sim.events_processed(), b.c.sim.now(), b.store_totals()));
            bench = Some(b);
        }
        checks.push(("set-up is deterministic".into(), states.windows(2).all(|s| s[0] == s[1])));
        let b = bench.expect("set-up ran");
        let ratio = b.data_to_cache();
        checks.push((
            format!("each node stores at least 3x its block cache ({ratio:.1}x)"),
            ratio >= 3.0,
        ));
        let w = measure(b, &shape, virt(seconds as f64), false);
        let values = end_to_end(&w, median(&times).unwrap_or(0.0));
        (w, values.list(END_TO_END))
    };
    checks.extend(window.checks.iter().cloned());
    Ok(Report {
        attempted: window.attempted.max(1),
        failed: window.failed,
        checks,
        metrics: values,
    })
}
