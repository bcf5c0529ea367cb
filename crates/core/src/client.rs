//! Closed-loop workload clients (Appendix C: load is generated by client
//! threads that issue the next operation as soon as the previous one
//! completes; sweeping the thread count sweeps the offered load).
//!
//! A [`ClientHost`] drives a typed [`Session`] inside the simulator: the
//! session owns routing, redirects, scan continuation, and the
//! outstanding-op window; the host generates operations from its
//! [`Workload`], times completions, and records statistics. With
//! `pipeline > 1` the host keeps that many calls in flight at once —
//! cheaper to sweep at high offered load, and the leader sees real
//! batches to group-commit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;

use spinnaker_common::{Consistency, Key, Version};
use spinnaker_sim::{Actor, Ctx, EventId, LatencyStats, ProcId, Time, MILLIS, SECS};

use crate::cluster::{Ev, World};
use crate::messages::{ClientReply, NodeInput, RequestId};
use crate::partition::u64_to_key;
use crate::partition::Ring;
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
    /// Uniformly random writes over the first `span` key indexes — a hot
    /// range under contention. Used by the scale-out experiment (fig17):
    /// after the hot range splits, each operation independently lands on
    /// one of the children.
    HotSpotWrites {
        /// Value size.
        value_size: usize,
        /// Number of distinct hot keys (all inside range 0's span).
        span: u64,
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

struct CondMeta {
    key_index: u64,
}

/// The retry and backoff timers a session-driving client actor has armed,
/// per request id. Once the session retires an id its timers can only
/// fire into a no-op [`Session::on_timeout`], so they are cancelled
/// instead of left in the event queue.
#[derive(Default)]
pub struct RetryTimers(BTreeMap<RequestId, Vec<EventId>>);

impl RetryTimers {
    /// Deliver [`ClientEv::Timeout`]`(req)` to the current actor after
    /// `delay`.
    pub fn arm(&mut self, delay: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        let timer = ctx.timer(delay, Ev::Client(ClientEv::Timeout(req)));
        self.0.entry(req).or_default().push(timer);
    }

    /// Cancel the timers of every request `session` no longer has
    /// pending, calling `retired` with each such id. Request ids are
    /// never reused, so this drops exactly the timers that would fire
    /// for nothing.
    pub fn cancel_retired(
        &mut self,
        session: &Session,
        ctx: &mut Ctx<'_, Ev>,
        mut retired: impl FnMut(RequestId),
    ) {
        self.0.retain(|&req, timers| {
            if session.is_pending(req) {
                return true;
            }
            for &timer in timers.iter() {
                ctx.cancel(timer);
            }
            retired(req);
            false
        });
    }
}

/// A simulated closed-loop client.
pub struct ClientHost {
    proc: ProcId,
    session: Session,
    workload: Workload,
    world: World,
    stats: SharedStats,
    window: (Time, Time),
    /// Target number of calls in flight (1 = classic closed loop).
    pipeline: usize,
    value: Bytes,
    timeout: Time,
    write_index: u64,
    start_index: Option<u64>,
    versions: BTreeMap<u64, Version>,
    /// When each in-flight call was started (for latency accounting; a
    /// conditional-put redo inherits the original start time).
    started: BTreeMap<CallId, Time>,
    /// Conditional-put calls' key indexes (version adoption on reply).
    cond_meta: BTreeMap<CallId, CondMeta>,
    /// Retry and backoff timers of the outstanding requests.
    timers: RetryTimers,
    /// Scripted workloads: next call to run.
    script_pos: usize,
    record_outcomes: bool,
}

impl ClientHost {
    /// Build a single-outstanding-op client (the classic closed loop).
    /// `window` is `(measure_from, measure_to)`.
    pub fn new(
        proc: ProcId,
        ring: Ring,
        workload: Workload,
        world: World,
        stats: SharedStats,
        window: (Time, Time),
    ) -> ClientHost {
        ClientHost::with_pipeline(proc, ring, workload, world, stats, window, 1)
    }

    /// Build a client keeping up to `pipeline` calls outstanding.
    pub fn with_pipeline(
        proc: ProcId,
        ring: Ring,
        workload: Workload,
        world: World,
        stats: SharedStats,
        window: (Time, Time),
        pipeline: usize,
    ) -> ClientHost {
        let value_size = match &workload {
            Workload::Writes { value_size, .. }
            | Workload::Mixed { value_size, .. }
            | Workload::ConditionalPuts { value_size, .. }
            | Workload::SingleRangeWrites { value_size }
            | Workload::HotSpotWrites { value_size, .. }
            | Workload::SpanWrites { value_size, .. } => *value_size,
            Workload::Reads { .. } | Workload::Scans { .. } | Workload::Script(_) => 0,
        };
        let record_outcomes = matches!(workload, Workload::Script(_));
        // Scripts run strictly sequentially regardless of the pipeline
        // knob: their calls often depend on earlier effects.
        let pipeline = if record_outcomes { 1 } else { pipeline.max(1) };
        ClientHost {
            proc,
            session: Session::new(ring, pipeline),
            workload,
            world,
            stats,
            window,
            pipeline,
            value: Bytes::from(vec![0x5au8; value_size.max(1)]),
            timeout: SECS,
            write_index: 0,
            start_index: None,
            versions: BTreeMap::new(),
            started: BTreeMap::new(),
            cond_meta: BTreeMap::new(),
            timers: RetryTimers::default(),
            script_pos: 0,
            record_outcomes,
        }
    }

    fn key_for_index(&self, keys: u64, index: u64) -> Key {
        // Spread key indexes across the whole space (and therefore across
        // all cohorts) while keeping per-client sequences deterministic.
        u64_to_key((index % keys.max(1)).wrapping_mul(u64::MAX / keys.max(1)))
    }

    fn put_call(&self, key: Key) -> SessionCall {
        SessionCall::Put { key, cells: vec![(Bytes::from_static(b"c"), self.value.clone())] }
    }

    /// Generate the next operation, or `None` when the workload is
    /// exhausted (scripts) .
    fn next_call(
        &mut self,
        rng: &mut rand::rngs::SmallRng,
    ) -> Option<(SessionCall, Option<CondMeta>)> {
        let start = *self.start_index.get_or_insert_with(|| rng.gen());
        Some(match self.workload.clone() {
            Workload::Reads { keys, consistency } => (
                SessionCall::Get {
                    key: self.key_for_index(keys, rng.gen_range(0..keys)),
                    columns: crate::messages::ColumnSelect::One(Bytes::from_static(b"c")),
                    consistency,
                },
                None,
            ),
            Workload::Writes { keys, .. } => {
                let index = start.wrapping_add(self.write_index);
                self.write_index += 1;
                (self.put_call(self.key_for_index(keys, index)), None)
            }
            Workload::Mixed { keys, write_pct, consistency, .. } => {
                if rng.gen_range(0..100u8) < write_pct {
                    let index = start.wrapping_add(self.write_index);
                    self.write_index += 1;
                    (self.put_call(self.key_for_index(keys, index)), None)
                } else {
                    (
                        SessionCall::Get {
                            key: self.key_for_index(keys, rng.gen_range(0..keys)),
                            columns: crate::messages::ColumnSelect::One(Bytes::from_static(b"c")),
                            consistency,
                        },
                        None,
                    )
                }
            }
            Workload::ConditionalPuts { keys, .. } => {
                let key_index = (start.wrapping_add(self.write_index)) % keys.max(1);
                self.write_index += 1;
                let expected = self.versions.get(&key_index).copied().unwrap_or(0);
                (
                    SessionCall::ConditionalPut {
                        key: self.key_for_index(keys, key_index),
                        col: Bytes::from_static(b"c"),
                        value: self.value.clone(),
                        expected,
                    },
                    Some(CondMeta { key_index }),
                )
            }
            Workload::SingleRangeWrites { .. } => {
                // Keys strictly inside range 0: low end of the space.
                let index = self.write_index % 4096;
                self.write_index += 1;
                (self.put_call(u64_to_key(index)), None)
            }
            Workload::HotSpotWrites { span, .. } => {
                // Uniformly random keys within the hot span: every write
                // hits the hot range, and once that range is split the
                // load spreads across its children per-operation instead
                // of marching through them in lockstep.
                (self.put_call(u64_to_key(rng.gen_range(0..span.max(1)))), None)
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

    /// Keep the window full: submit new calls until `pipeline` are in
    /// flight, then transmit everything the session launches.
    fn fill(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        while self.session.occupancy() < self.pipeline {
            let Some((call, meta)) = self.next_call(ctx.rng()) else { break };
            let id = self.session.submit(call);
            self.started.insert(id, now);
            if let Some(meta) = meta {
                self.cond_meta.insert(id, meta);
            }
        }
        for req in self.session.launch() {
            self.transmit(now, req, ctx);
        }
    }

    /// Send (or re-send) the outstanding request `req`.
    fn transmit(&mut self, now: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        let Some((to, wire)) = self.session.wire(req, ctx.rng()) else { return };
        let bytes = wire.wire_size();
        let at = self.world.net.borrow_mut().delivery_time(now, self.proc, to, bytes, ctx.rng());
        if let Some(at) = at {
            ctx.schedule_at(at, to, Ev::Input(NodeInput::Client { from: self.proc, req: wire }));
        }
        self.timers.arm(self.timeout, req, ctx);
    }

    fn complete(&mut self, now: Time, call: CallId, outcome: CallOutcome, ctx: &mut Ctx<'_, Ev>) {
        // A conditional-put workload treats a mismatch as §3 prescribes:
        // adopt the observed version and retry the increment — the call
        // is not complete yet (the redo keeps the original start time).
        if let Some(meta) = self.cond_meta.remove(&call) {
            let started = self.started.remove(&call).unwrap_or(now);
            match outcome {
                CallOutcome::Written { version, .. } => {
                    self.versions.insert(meta.key_index, version);
                    self.finish(now, started);
                }
                CallOutcome::Failed(crate::messages::ClientError::VersionMismatch { actual }) => {
                    self.versions.insert(meta.key_index, actual);
                    let mut stats = self.stats.borrow_mut();
                    stats.retries += 1;
                    stats.cond_mismatches += 1;
                    drop(stats);
                    let keys = match self.workload {
                        Workload::ConditionalPuts { keys, .. } => keys,
                        _ => 1,
                    };
                    let redo = SessionCall::ConditionalPut {
                        key: self.key_for_index(keys, meta.key_index),
                        col: Bytes::from_static(b"c"),
                        value: self.value.clone(),
                        expected: actual,
                    };
                    let id = self.session.submit(redo);
                    self.started.insert(id, started);
                    self.cond_meta.insert(id, CondMeta { key_index: meta.key_index });
                    for req in self.session.launch() {
                        self.transmit(now, req, ctx);
                    }
                    return;
                }
                _ => self.finish(now, started),
            }
        } else {
            let started = self.started.remove(&call).unwrap_or(now);
            if self.record_outcomes {
                self.stats.borrow_mut().outcomes.push(outcome);
            }
            self.finish(now, started);
        }
        self.fill(now, ctx);
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

    fn on_reply(&mut self, now: Time, reply: ClientReply, ctx: &mut Ctx<'_, Ev>) {
        let world = self.world.clone();
        let step = self.session.on_reply(reply, || crate::cluster::read_table(&world));
        match step {
            SessionStep::None => {}
            SessionStep::Retransmit { req, refreshed_ring } => {
                let mut stats = self.stats.borrow_mut();
                stats.retries += 1;
                if refreshed_ring {
                    stats.ring_refreshes += 1;
                }
                drop(stats);
                self.transmit(now, req, ctx);
            }
            SessionStep::Continue { req } => self.transmit(now, req, ctx),
            SessionStep::Backoff { req } => {
                // Back off briefly; the Timeout event rotates and retries.
                self.stats.borrow_mut().retries += 1;
                self.timers.arm(20 * MILLIS, req, ctx);
            }
            SessionStep::Done { call, outcome } => self.complete(now, call, outcome, ctx),
        }
    }

    fn on_timeout(&mut self, now: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        // The target may be dead: rotate our leader guess and resend
        // under a fresh id. Timers of retired ids are cancelled, so a
        // stale id does not reach here; `None` is only a guard.
        if let Some(next) = self.session.on_timeout(req) {
            self.stats.borrow_mut().retries += 1;
            self.transmit(now, next, ctx);
        }
    }
}

impl Actor<Ev> for ClientHost {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        if let Ev::Client(cev) = ev {
            match cev {
                ClientEv::Start => self.fill(now, ctx),
                ClientEv::Reply(reply) => self.on_reply(now, reply, ctx),
                ClientEv::Timeout(req) => self.on_timeout(now, req, ctx),
            }
            self.timers.cancel_retired(&self.session, ctx, |_| {});
        }
    }
}
