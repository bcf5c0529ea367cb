//! Model-based property test: the kernel delivers exactly the events that
//! were scheduled and not cancelled, in `(time, seq)` order, under random
//! interleavings of schedules (with tied times), cancels (of live,
//! delivered, already cancelled, and slot-reused ids), bursts that force
//! the dead-key purge, and `run_until` with random deadlines.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use spinnaker_sim::{Actor, Ctx, EventId, ProcId, Sim, Time};

const ACTORS: u32 = 3;
/// Payloads at or above this are follow-ups and spawn nothing.
const FOLLOW_UP: u32 = 1_000_000;

/// Whether delivering `payload` makes the actor schedule a follow-up, and
/// when: the actor-side push exercises `Ctx::schedule`'s id and seq order.
fn follow_up(payload: u32) -> Option<Time> {
    (payload < FOLLOW_UP && payload % 3 == 0).then_some(Time::from(payload / 3 % 3))
}

#[derive(Default)]
struct Log {
    delivered: Vec<(Time, ProcId, u32)>,
    spawned: Vec<EventId>,
}

struct Recorder {
    log: Rc<RefCell<Log>>,
}

impl Actor<u32> for Recorder {
    fn on_event(&mut self, now: Time, ev: u32, ctx: &mut Ctx<'_, u32>) {
        let mut log = self.log.borrow_mut();
        log.delivered.push((now, ctx.self_id(), ev));
        if let Some(delay) = follow_up(ev) {
            let target = (ctx.self_id() + 1) % ACTORS;
            log.spawned.push(ctx.schedule(delay, target, ev + FOLLOW_UP));
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Schedule one event `back` before or `ahead` after now (clamped).
    Schedule { ahead: u64, back: u64, target: u32 },
    /// Cancel the `pick`-th id ever issued (any state).
    Cancel { pick: usize },
    /// Schedule `count` events, then cancel all but every `keep`-th: more
    /// than 64 dead keys, outnumbering the live ones, forces a purge.
    Burst { count: usize, keep: usize },
    /// Run to `now + ahead`.
    RunUntil { ahead: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..6, 0u64..3, 0u32..ACTORS)
            .prop_map(|(ahead, back, target)| Op::Schedule { ahead, back, target }),
        4 => any::<usize>().prop_map(|pick| Op::Cancel { pick }),
        1 => (65usize..160, 2usize..6).prop_map(|(count, keep)| Op::Burst { count, keep }),
        3 => (0u64..5).prop_map(|ahead| Op::RunUntil { ahead }),
    ]
}

/// The reference: pending events keyed by `(time, seq)`.
struct Model {
    pending: BTreeMap<(Time, u64), (ProcId, u32)>,
    seq: u64,
    now: Time,
    delivered: u64,
}

impl Model {
    fn push(&mut self, at: Time, target: ProcId, payload: u32) -> (Time, u64) {
        let key = (at.max(self.now), self.seq);
        self.seq += 1;
        self.pending.insert(key, (target, payload));
        key
    }

    /// Deliver everything due by `deadline`, follow-ups included; returns
    /// the deliveries and the keys of the follow-ups, in push order.
    #[allow(clippy::type_complexity)]
    fn run_until(&mut self, deadline: Time) -> (Vec<(Time, ProcId, u32)>, Vec<(Time, u64)>) {
        let (mut out, mut spawned) = (Vec::new(), Vec::new());
        while let Some(entry) = self.pending.first_entry() {
            let (time, _) = *entry.key();
            if time > deadline {
                break;
            }
            let (target, payload) = entry.remove();
            self.now = time;
            self.delivered += 1;
            out.push((time, target, payload));
            if let Some(delay) = follow_up(payload) {
                spawned.push(self.push(time + delay, (target + 1) % ACTORS, payload + FOLLOW_UP));
            }
        }
        self.now = self.now.max(deadline);
        (out, spawned)
    }
}

fn new_sim(log: &Rc<RefCell<Log>>) -> Sim<u32> {
    let mut sim = Sim::new(11);
    for _ in 0..ACTORS {
        sim.add_actor(Box::new(Recorder { log: log.clone() }));
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let log = Rc::new(RefCell::new(Log::default()));
        let mut sim = new_sim(&log);
        let mut model = Model { pending: BTreeMap::new(), seq: 0, now: 0, delivered: 0 };
        // Every id ever issued, with the model key it names.
        let mut ids: Vec<(EventId, (Time, u64))> = Vec::new();
        let mut next_payload = 0u32;
        let mut schedule = |sim: &mut Sim<u32>, model: &mut Model, at: Time, target: ProcId| {
            let payload = next_payload;
            next_payload += 1;
            (sim.schedule(at, target, payload), model.push(at, target, payload))
        };

        for op in &ops {
            match *op {
                Op::Schedule { ahead, back, target } => {
                    let at = (sim.now() + ahead).saturating_sub(back);
                    let issued = schedule(&mut sim, &mut model, at, target);
                    ids.push(issued);
                }
                Op::Cancel { pick } => {
                    if !ids.is_empty() {
                        let (id, key) = ids[pick % ids.len()];
                        let live = model.pending.remove(&key).is_some();
                        prop_assert_eq!(sim.cancel(id), live, "cancel of {:?}", key);
                    }
                }
                Op::Burst { count, keep } => {
                    let now = sim.now();
                    let burst: Vec<_> = (0..count)
                        .map(|i| schedule(&mut sim, &mut model, now + (i % 7) as Time, i as u32 % ACTORS))
                        .collect();
                    for (i, &(id, key)) in burst.iter().enumerate() {
                        if i % keep != 0 {
                            model.pending.remove(&key);
                            prop_assert!(sim.cancel(id));
                        }
                    }
                    ids.extend(burst);
                }
                Op::RunUntil { ahead } => {
                    let deadline = sim.now() + ahead;
                    let (want, want_spawned) = model.run_until(deadline);
                    sim.run_until(deadline);
                    let mut got = log.borrow_mut();
                    prop_assert_eq!(&got.delivered, &want);
                    prop_assert_eq!(got.spawned.len(), want_spawned.len());
                    ids.extend(got.spawned.drain(..).zip(want_spawned));
                    got.delivered.clear();
                }
            }
            prop_assert_eq!(sim.events_processed(), model.delivered);
            prop_assert_eq!(sim.now(), model.now);
            prop_assert_eq!(sim.pending_events(), model.pending.len());
        }
    }
}

#[test]
fn run_until_skips_a_dead_head() {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut sim = new_sim(&log);
    let head = sim.schedule(10, 0, 1);
    sim.schedule(30, 1, 2);
    assert!(sim.cancel(head));
    assert!(!sim.cancel(head), "a second cancel is a no-op");
    // Only the dead key is due: nothing is delivered, the clock still
    // advances to the deadline.
    assert_eq!(sim.run_until(20), 0);
    assert_eq!((sim.now(), sim.events_processed(), sim.pending_events()), (20, 0, 1));
    assert_eq!(sim.run_until(40), 1);
    assert_eq!(log.borrow().delivered, vec![(30, 1, 2)]);
}

#[test]
fn a_stale_id_never_cancels_the_event_reusing_its_slot() {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut sim = new_sim(&log);
    let old = sim.schedule(5, 0, 1);
    sim.run_until(5);
    // The delivered event's slot is free; the next schedule reuses it.
    let fresh = sim.schedule(9, 0, 2);
    assert!(!sim.cancel(old));
    assert_eq!(sim.pending_events(), 1);
    sim.run_to_quiescence();
    assert_eq!(log.borrow().delivered, vec![(5, 0, 1), (9, 0, 2)]);
    assert!(!sim.cancel(fresh), "delivered");
}
