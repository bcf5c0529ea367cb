//! Closed-loop workload clients (Appendix C: load is generated by client
//! threads that issue the next operation as soon as the previous one
//! completes; sweeping the thread count sweeps the offered load).
//!
//! A [`ClientHost`] is the one in-sim session client. It drives a typed
//! [`Session`] (routing, redirects, scan continuation, the outstanding-op
//! window) and owns the transport: it sends each request over the
//! simulated network, arms its retry timer, backs off after an
//! `Unavailable`, and rotates and re-sends on a timeout. What to run and
//! what to record is its [`Driver`]'s business. The figures' driver
//! generates operations from a [`Workload`] and fills [`ClientStats`];
//! the chaos client records a checkable history. With `pipeline > 1`
//! the host keeps that many calls in flight at once — cheaper to sweep
//! at high offered load, and the leader sees real batches to
//! group-commit.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use spinnaker_common::{Consistency, Key, Version};
use spinnaker_sim::{Actor, Ctx, EventId, LatencyStats, Time, MILLIS, SECS};

use crate::cluster::{read_table, Ev, World};
use crate::messages::{ClientError, ClientReply, ColumnSelect, NodeInput, RequestId};
use crate::partition::{u64_to_key, Ring};
use crate::session::{CallId, CallOutcome, Session, SessionCall, SessionStep};

/// Client-side events.
#[derive(Debug)]
pub enum ClientEv {
    /// Begin the closed loop.
    Start,
    /// A reply from a node.
    Reply(ClientReply),
    /// Retry trigger: the request timed out or was backed off.
    Timeout(RequestId),
}

/// Measured results of one client.
#[derive(Default)]
pub struct ClientStats {
    /// Latency of operations completing inside the measurement window.
    pub latency: LatencyStats,
    /// Operations completed inside the window (throughput numerator).
    pub completed: u64,
    /// Operations completed overall.
    pub total_completed: u64,
    /// Resends due to redirects, retries, or timeouts.
    pub retries: u64,
    /// Range-table refreshes triggered by `WrongRange` replies (dynamic
    /// splits/merges/moves re-routing this client).
    pub ring_refreshes: u64,
    /// Conditional puts rejected with `VersionMismatch`. With one writer
    /// per key this counts protocol anomalies: a lost committed write or a
    /// duplicated apply both surface as an unexpected stored version.
    pub cond_mismatches: u64,
    /// When enabled, every completion as `(completion_time, latency)` —
    /// used by the availability experiment to find the outage window.
    pub trace: Option<Vec<(Time, Time)>>,
    /// Scripted sessions only: each call's outcome, in submission order.
    pub outcomes: Vec<CallOutcome>,
}

/// Shared handle to client statistics.
pub type SharedStats = Rc<RefCell<ClientStats>>;

/// What the client does in its loop.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Read random rows (Fig. 8): `get(key, "c", consistency)`.
    Reads {
        /// Number of distinct keys.
        keys: u64,
        /// Strong (leader) or timeline (any replica).
        consistency: Consistency,
    },
    /// Write rows with consecutive per-client key indexes (Fig. 9).
    Writes {
        /// Number of distinct keys.
        keys: u64,
        /// Value size (the paper uses 4 KB).
        value_size: usize,
    },
    /// Mixed reads and writes (Fig. 12).
    Mixed {
        /// Number of distinct keys.
        keys: u64,
        /// Value size.
        value_size: usize,
        /// Percentage of operations that are writes (0-100).
        write_pct: u8,
        /// Read consistency.
        consistency: Consistency,
    },
    /// Conditional put cycle (Fig. 14): replace values using the version
    /// returned by the previous write.
    ConditionalPuts {
        /// Number of distinct keys.
        keys: u64,
        /// Value size.
        value_size: usize,
    },
    /// Writes confined to range 0's key span, so every write hits one
    /// cohort leader (Table 1's workload). Keys advance sequentially, so
    /// after `n` acked writes keys `0..n` are guaranteed present
    /// (durability tests rely on this).
    SingleRangeWrites {
        /// Value size.
        value_size: usize,
    },
    /// Uniformly random writes over key indexes `[lo, hi)` — traffic
    /// confined to one slice of the space, so per-range throughput can
    /// be measured across splits, merges, and replica movements (fig18).
    SpanWrites {
        /// Value size.
        value_size: usize,
        /// First key index of the span (inclusive).
        lo: u64,
        /// Last key index of the span (exclusive).
        hi: u64,
    },
    /// Range scans (fig19): each operation scans a random window of
    /// `rows` consecutive key indexes, paged `page` rows per request and
    /// transparently fanned across every range the window crosses.
    Scans {
        /// Number of distinct key indexes in the space.
        keys: u64,
        /// Key indexes per scan window.
        rows: u64,
        /// Rows per page request.
        page: u32,
        /// Strong (leader) or timeline (any replica).
        consistency: Consistency,
    },
    /// A fixed list of typed calls, run strictly one at a time in order,
    /// with every outcome recorded in [`ClientStats::outcomes`]. The
    /// harness for cluster tests exercising the full §3 surface.
    Script(Rc<Vec<SessionCall>>),
}

/// How long a request may go unanswered before it is re-sent to the
/// next replica.
const RETRY_TIMEOUT: Time = SECS;

/// Pause before re-sending a request its cohort answered `Unavailable`.
const BACKOFF: Time = 20 * MILLIS;

/// Why a [`ClientHost`] re-sent a request.
#[derive(Clone, Copy, Debug)]
pub enum Resend {
    /// A `NotLeader` or `WrongRange` reply rejected the attempt and named
    /// a better target.
    Redirect {
        /// Whether a newer range table was adopted on the way.
        refreshed_ring: bool,
    },
    /// The cohort answered `Unavailable`; the request rotates and goes
    /// out again after a short pause.
    Backoff,
    /// A backoff pause ended: the request was rotated and re-sent.
    Rotate,
    /// No answer within the timeout: the request was rotated and
    /// re-sent. The lost attempt may still have applied.
    Timeout,
}

/// What a [`ClientHost`] runs and what it records: the host owns the
/// transport and the retries, its driver owns the calls.
pub trait Driver {
    /// Per-call bookkeeping, carried from submission to completion.
    type Call;

    /// The next call to submit, or `None` when there is nothing to issue.
    fn next_call(&mut self, now: Time, rng: &mut SmallRng) -> Option<(SessionCall, Self::Call)>;

    /// A call submitted at `started` finished with `outcome`. A returned
    /// redo is submitted in its place at once and keeps `started`.
    fn done(
        &mut self,
        now: Time,
        started: Time,
        call: Self::Call,
        outcome: CallOutcome,
    ) -> Option<(SessionCall, Self::Call)>;

    /// The host re-sent a request of `call`, or will after a
    /// [`Resend::Backoff`] pause.
    fn resend(&mut self, now: Time, call: Option<&Self::Call>, why: Resend);

    /// Mean think time between issues. `None` runs the closed loop: the
    /// window is filled at start and refilled on every completion.
    /// `Some` paces issues instead — each start event issues at most one
    /// call and re-arms itself after a jittered think time.
    fn think(&self) -> Option<Time> {
        None
    }

    /// True once a paced driver has issued its whole budget; its start
    /// events stop re-arming.
    fn exhausted(&self) -> bool {
        false
    }
}

/// The one simulated session client: a [`Session`] plus its transport,
/// driven by `D`. Register one with
/// [`SimCluster::add_driver`](crate::cluster::SimCluster::add_driver).
pub struct ClientHost<D: Driver> {
    session: Session,
    world: World,
    driver: D,
    /// Target number of calls in flight (1 = classic closed loop).
    pipeline: usize,
    /// Each in-flight call's start time (a redo inherits it) and its
    /// driver bookkeeping.
    calls: BTreeMap<CallId, (Time, D::Call)>,
    /// Retry and backoff timers of the outstanding requests. Once the
    /// session retires an id its timers could only fire into a no-op
    /// [`Session::on_timeout`], so they are cancelled instead.
    timers: BTreeMap<RequestId, Vec<EventId>>,
    /// Requests whose next timeout is a backoff rotation, not a lost
    /// attempt.
    backoff: BTreeSet<RequestId>,
}

impl<D: Driver> ClientHost<D> {
    /// A client starting from `ring` (it converges through `WrongRange`
    /// refreshes) keeping up to `pipeline` calls in flight. It sends
    /// from its own proc id and starts on [`ClientEv::Start`].
    pub(crate) fn new(ring: Ring, world: World, pipeline: usize, driver: D) -> ClientHost<D> {
        let pipeline = pipeline.max(1);
        ClientHost {
            session: Session::new(ring, pipeline),
            world,
            driver,
            pipeline,
            calls: BTreeMap::new(),
            timers: BTreeMap::new(),
            backoff: BTreeSet::new(),
        }
    }

    fn submit(&mut self, started: Time, (call, meta): (SessionCall, D::Call)) {
        let id = self.session.submit(call);
        self.calls.insert(id, (started, meta));
    }

    /// Transmit everything the session launches.
    fn launch(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        for req in self.session.launch() {
            self.transmit(now, req, ctx);
        }
    }

    /// Closed loop: submit new calls until `pipeline` are in flight.
    fn fill(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        while self.session.occupancy() < self.pipeline {
            let Some(next) = self.driver.next_call(now, ctx.rng()) else { break };
            self.submit(now, next);
        }
        self.launch(now, ctx);
    }

    fn start(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        let Some(think) = self.driver.think() else { return self.fill(now, ctx) };
        // Paced: at most one issue per tick, and no tick once the budget
        // is spent (each tick draws from the shared RNG).
        if self.driver.exhausted() {
            return;
        }
        if self.session.occupancy() < self.pipeline {
            if let Some(next) = self.driver.next_call(now, ctx.rng()) {
                self.submit(now, next);
            }
            self.launch(now, ctx);
        }
        if !self.driver.exhausted() {
            let delay = ctx.rng().gen_range(think / 2..=think + think / 2);
            ctx.timer(delay.max(1), Ev::Client(ClientEv::Start));
        }
    }

    /// Send (or re-send) the outstanding request `req` and arm its retry
    /// timer.
    fn transmit(&mut self, now: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        let Some((to, wire)) = self.session.wire(req, ctx.rng()) else { return };
        let from = ctx.self_id();
        let at =
            self.world.net.borrow_mut().delivery_time(now, from, to, wire.wire_size(), ctx.rng());
        if let Some(at) = at {
            ctx.schedule_at(at, to, Ev::Input(NodeInput::Client { from, req: wire }));
        }
        self.arm(RETRY_TIMEOUT, req, ctx);
    }

    /// Deliver [`ClientEv::Timeout`]`(req)` to this client after `delay`.
    fn arm(&mut self, delay: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        let timer = ctx.timer(delay, Ev::Client(ClientEv::Timeout(req)));
        self.timers.entry(req).or_default().push(timer);
    }

    /// Tell the driver that `req`'s call is being re-sent.
    fn resend(&mut self, now: Time, req: RequestId, why: Resend) {
        let call = self.session.call_of(req).and_then(|c| self.calls.get(&c));
        self.driver.resend(now, call.map(|(_, meta)| meta), why);
    }

    fn complete(&mut self, now: Time, call: CallId, outcome: CallOutcome, ctx: &mut Ctx<'_, Ev>) {
        let Some((started, meta)) = self.calls.remove(&call) else { return };
        match self.driver.done(now, started, meta, outcome) {
            Some(redo) => {
                self.submit(started, redo);
                self.launch(now, ctx);
            }
            None if self.driver.think().is_none() => self.fill(now, ctx),
            None => {}
        }
    }

    fn on_reply(&mut self, now: Time, reply: ClientReply, ctx: &mut Ctx<'_, Ev>) {
        match self.session.on_reply(reply, || read_table(&self.world)) {
            SessionStep::None => {}
            SessionStep::Retransmit { req, refreshed_ring } => {
                self.resend(now, req, Resend::Redirect { refreshed_ring });
                self.transmit(now, req, ctx);
            }
            SessionStep::Continue { req } => self.transmit(now, req, ctx),
            SessionStep::Backoff { req } => {
                // The timer's Timeout rotates and re-sends.
                self.resend(now, req, Resend::Backoff);
                self.backoff.insert(req);
                self.arm(BACKOFF, req, ctx);
            }
            SessionStep::Done { call, outcome } => self.complete(now, call, outcome, ctx),
        }
    }

    fn on_timeout(&mut self, now: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        // The target may be dead: rotate the leader guess and re-send
        // under a fresh id. Timers of retired ids are cancelled, so a
        // stale id does not reach here; `None` is only a guard.
        let why = if self.backoff.remove(&req) { Resend::Rotate } else { Resend::Timeout };
        if let Some(next) = self.session.on_timeout(req) {
            self.resend(now, next, why);
            self.transmit(now, next, ctx);
        }
    }
}

impl<D: Driver> Actor<Ev> for ClientHost<D> {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let Ev::Client(cev) = ev else { return };
        match cev {
            ClientEv::Start => self.start(now, ctx),
            ClientEv::Reply(reply) => self.on_reply(now, reply, ctx),
            ClientEv::Timeout(req) => self.on_timeout(now, req, ctx),
        }
        // Request ids are never reused: drop exactly the timers (and
        // backoff markers) of the ids the session retired.
        let (session, backoff) = (&self.session, &mut self.backoff);
        self.timers.retain(|req, timers| {
            if session.is_pending(*req) {
                return true;
            }
            for &timer in timers.iter() {
                ctx.cancel(timer);
            }
            backoff.remove(req);
            false
        });
    }
}

/// The figures' driver: generates operations from a [`Workload`] in a
/// closed loop and accounts them in [`ClientStats`].
pub(crate) struct WorkloadDriver {
    workload: Workload,
    stats: SharedStats,
    /// `(measure_from, measure_to)`.
    window: (Time, Time),
    value: Bytes,
    write_index: u64,
    start_index: Option<u64>,
    /// Conditional puts: the last version seen per key index.
    versions: BTreeMap<u64, Version>,
    /// Scripted workloads: next call to run.
    script_pos: usize,
}

impl WorkloadDriver {
    pub(crate) fn new(workload: Workload, stats: SharedStats, window: (Time, Time)) -> Self {
        let value_size = match &workload {
            Workload::Writes { value_size, .. }
            | Workload::Mixed { value_size, .. }
            | Workload::ConditionalPuts { value_size, .. }
            | Workload::SingleRangeWrites { value_size }
            | Workload::SpanWrites { value_size, .. } => *value_size,
            Workload::Reads { .. } | Workload::Scans { .. } | Workload::Script(_) => 0,
        };
        WorkloadDriver {
            workload,
            stats,
            window,
            value: Bytes::from(vec![0x5au8; value_size.max(1)]),
            write_index: 0,
            start_index: None,
            versions: BTreeMap::new(),
            script_pos: 0,
        }
    }

    fn key_for_index(keys: u64, index: u64) -> Key {
        // Spread key indexes across the whole space (and therefore across
        // all cohorts) while keeping per-client sequences deterministic.
        u64_to_key((index % keys.max(1)).wrapping_mul(u64::MAX / keys.max(1)))
    }

    fn put_call(&self, key: Key) -> SessionCall {
        SessionCall::Put { key, cells: vec![(Bytes::from_static(b"c"), self.value.clone())] }
    }

    fn get_call(key: Key, consistency: Consistency) -> SessionCall {
        SessionCall::Get { key, columns: ColumnSelect::One(Bytes::from_static(b"c")), consistency }
    }

    /// A conditional put of `key_index`, with the call's bookkeeping.
    fn cond_put(&self, keys: u64, key_index: u64, expected: Version) -> (SessionCall, Option<u64>) {
        let call = SessionCall::ConditionalPut {
            key: WorkloadDriver::key_for_index(keys, key_index),
            col: Bytes::from_static(b"c"),
            value: self.value.clone(),
            expected,
        };
        (call, Some(key_index))
    }

    fn finish(&mut self, now: Time, started: Time) {
        let latency = now - started;
        let mut stats = self.stats.borrow_mut();
        stats.total_completed += 1;
        if now >= self.window.0 && now <= self.window.1 {
            stats.latency.record(latency);
            stats.completed += 1;
        }
        if let Some(trace) = stats.trace.as_mut() {
            trace.push((now, latency));
        }
    }
}

impl Driver for WorkloadDriver {
    /// A conditional put's key index (version adoption on reply).
    type Call = Option<u64>;

    fn next_call(&mut self, _now: Time, rng: &mut SmallRng) -> Option<(SessionCall, Option<u64>)> {
        let start = *self.start_index.get_or_insert_with(|| rng.gen());
        Some(match self.workload.clone() {
            Workload::Reads { keys, consistency } => {
                let key = WorkloadDriver::key_for_index(keys, rng.gen_range(0..keys));
                (WorkloadDriver::get_call(key, consistency), None)
            }
            Workload::Writes { keys, .. } => {
                let index = start.wrapping_add(self.write_index);
                self.write_index += 1;
                (self.put_call(WorkloadDriver::key_for_index(keys, index)), None)
            }
            Workload::Mixed { keys, write_pct, consistency, .. } => {
                if rng.gen_range(0..100u8) < write_pct {
                    let index = start.wrapping_add(self.write_index);
                    self.write_index += 1;
                    (self.put_call(WorkloadDriver::key_for_index(keys, index)), None)
                } else {
                    let key = WorkloadDriver::key_for_index(keys, rng.gen_range(0..keys));
                    (WorkloadDriver::get_call(key, consistency), None)
                }
            }
            Workload::ConditionalPuts { keys, .. } => {
                let key_index = (start.wrapping_add(self.write_index)) % keys.max(1);
                self.write_index += 1;
                let expected = self.versions.get(&key_index).copied().unwrap_or(0);
                self.cond_put(keys, key_index, expected)
            }
            Workload::SingleRangeWrites { .. } => {
                // Keys strictly inside range 0: low end of the space.
                let index = self.write_index % 4096;
                self.write_index += 1;
                (self.put_call(u64_to_key(index)), None)
            }
            Workload::SpanWrites { lo, hi, .. } => {
                (self.put_call(u64_to_key(rng.gen_range(lo..hi.max(lo + 1)))), None)
            }
            Workload::Scans { keys, rows, page, consistency } => {
                let lo = rng.gen_range(0..keys.max(1));
                let hi = lo.saturating_add(rows);
                let step = u64::MAX / keys.max(1);
                let end = if hi >= keys { None } else { Some(u64_to_key(hi.wrapping_mul(step))) };
                (
                    SessionCall::Scan {
                        start: u64_to_key(lo.wrapping_mul(step)),
                        end,
                        page: page.max(1),
                        consistency,
                    },
                    None,
                )
            }
            Workload::Script(calls) => {
                let call = calls.get(self.script_pos)?.clone();
                self.script_pos += 1;
                (call, None)
            }
        })
    }

    fn done(
        &mut self,
        now: Time,
        started: Time,
        key_index: Option<u64>,
        outcome: CallOutcome,
    ) -> Option<(SessionCall, Option<u64>)> {
        match (key_index, outcome) {
            (Some(key_index), CallOutcome::Written { version, .. }) => {
                self.versions.insert(key_index, version);
            }
            // A conditional-put workload treats a mismatch as §3
            // prescribes: adopt the observed version and retry the
            // increment — the call is not complete yet.
            (Some(key_index), CallOutcome::Failed(ClientError::VersionMismatch { actual })) => {
                self.versions.insert(key_index, actual);
                let mut stats = self.stats.borrow_mut();
                stats.retries += 1;
                stats.cond_mismatches += 1;
                drop(stats);
                let Workload::ConditionalPuts { keys, .. } = self.workload else { return None };
                return Some(self.cond_put(keys, key_index, actual));
            }
            (None, outcome) if matches!(self.workload, Workload::Script(_)) => {
                self.stats.borrow_mut().outcomes.push(outcome);
            }
            _ => {}
        }
        self.finish(now, started);
        None
    }

    fn resend(&mut self, _now: Time, _call: Option<&Option<u64>>, why: Resend) {
        let mut stats = self.stats.borrow_mut();
        stats.retries += 1;
        if let Resend::Redirect { refreshed_ring: true } = why {
            stats.ring_refreshes += 1;
        }
    }
}
