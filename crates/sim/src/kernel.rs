//! Discrete-event simulation kernel.
//!
//! A single-threaded scheduler with virtual time: events are `(time, seq)`
//! ordered, ties broken by insertion sequence for full determinism. Actors
//! receive typed events and schedule new ones through [`Ctx`]. A simulated
//! minute of cluster time costs only the event processing itself, which is
//! what makes regenerating every figure of the paper practical on a laptop.
//!
//! # Cancellation
//!
//! Every schedule returns an [`EventId`]; [`Ctx::cancel`] (or
//! [`Sim::cancel`] from outside) withdraws the event before delivery. The
//! typical user is a retry timer whose request was answered: it would
//! otherwise sit in the queue until it fired and was ignored.
//!
//! The queue is a binary heap of small `(time, seq, slot)` keys over a
//! slab of `(seq, target, event)` payloads with a free list. Cancelling
//! drops the payload at once and frees its slot; the key stays in the heap
//! and is skipped when it surfaces, because its slot is empty or holds a
//! payload with another `seq`. The same check makes cancelling a stale id
//! (already delivered, already cancelled, or a reused slot) a no-op. Once
//! more than 64 dead keys outnumber the live ones they are purged in one
//! pass, so the heap stays proportional to the live events.
//!
//! Sequence numbers are assigned in push order whether or not an event is
//! later cancelled, so every delivered event arrives at the same virtual
//! time and in the same `(time, seq)` order as it would with no
//! cancellation at all. [`Sim::events_processed`] counts delivered events
//! only; cancelled ones never reach an actor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Virtual time in nanoseconds since simulation start.
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const MICROS: Time = 1_000;
/// One millisecond in [`Time`] units.
pub const MILLIS: Time = 1_000_000;
/// One second in [`Time`] units.
pub const SECS: Time = 1_000_000_000;

/// Identifies an actor registered with the simulator.
pub type ProcId = u32;

/// Dead heap keys tolerated before a purge is considered at all: below
/// this, skipping them on pop is cheaper than rebuilding the heap.
const PURGE_MIN_DEAD: usize = 64;

/// Handle to a scheduled event, for cancelling it before delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A simulation participant.
pub trait Actor<M> {
    /// Handle an event delivered at virtual time `now`.
    fn on_event(&mut self, now: Time, ev: M, ctx: &mut Ctx<'_, M>);
}

/// Scheduling context handed to actors during event processing.
pub struct Ctx<'a, M> {
    now: Time,
    self_id: ProcId,
    rng: &'a mut SmallRng,
    queue: &'a mut Queue<M>,
    halt: &'a mut bool,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the actor being invoked.
    pub fn self_id(&self) -> ProcId {
        self.self_id
    }

    /// The simulation's deterministic random source.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Deliver `ev` to `target` at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: Time, target: ProcId, ev: M) -> EventId {
        self.queue.push(at.max(self.now), target, ev)
    }

    /// Deliver `ev` to `target` after `delay`.
    pub fn schedule(&mut self, delay: Time, target: ProcId, ev: M) -> EventId {
        self.queue.push(self.now + delay, target, ev)
    }

    /// Deliver `ev` to the current actor after `delay` (a timer).
    pub fn timer(&mut self, delay: Time, ev: M) -> EventId {
        let id = self.self_id;
        self.schedule(delay, id, ev)
    }

    /// Withdraw a scheduled event. Returns whether it was still pending;
    /// a delivered, already cancelled, or otherwise stale id is a no-op.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Stop the simulation after this event completes.
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// A scheduled event's body, parked in the slab until delivery.
struct Payload<M> {
    seq: u64,
    target: ProcId,
    ev: M,
}

/// The event queue: `(time, seq, slot)` keys in a min-heap over a slab of
/// payloads. A key is live while its slot holds the payload of its `seq`.
struct Queue<M> {
    keys: BinaryHeap<Reverse<(Time, u64, u32)>>,
    slab: Vec<Option<Payload<M>>>,
    free: Vec<u32>,
    seq: u64,
}

impl<M> Queue<M> {
    fn new() -> Queue<M> {
        Queue { keys: BinaryHeap::new(), slab: Vec::new(), free: Vec::new(), seq: 0 }
    }

    /// Events scheduled and neither delivered nor cancelled.
    fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    fn push(&mut self, time: Time, target: ProcId, ev: M) -> EventId {
        let seq = self.seq;
        self.seq += 1;
        let payload = Some(Payload { seq, target, ev });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = payload;
                slot
            }
            None => {
                self.slab.push(payload);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.keys.push(Reverse((time, seq, slot)));
        EventId { seq, slot }
    }

    /// Whether `slot` still holds the payload pushed as `seq`.
    fn holds(slab: &[Option<Payload<M>>], seq: u64, slot: u32) -> bool {
        slab.get(slot as usize).and_then(Option::as_ref).is_some_and(|p| p.seq == seq)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        let Some(cell) = self.slab.get_mut(id.slot as usize) else { return false };
        if cell.take_if(|p| p.seq == id.seq).is_none() {
            return false;
        }
        self.free.push(id.slot);
        let dead = self.keys.len() - self.live();
        if dead > PURGE_MIN_DEAD && dead > self.live() {
            let slab = &self.slab;
            self.keys.retain(|Reverse((_, seq, slot))| Queue::holds(slab, *seq, *slot));
        }
        true
    }

    /// Time of the earliest live event, discarding dead keys on the way.
    fn peek_time(&mut self) -> Option<Time> {
        while let Some(&Reverse((time, seq, slot))) = self.keys.peek() {
            if Queue::holds(&self.slab, seq, slot) {
                return Some(time);
            }
            self.keys.pop();
        }
        None
    }

    /// Remove and return the earliest live event.
    fn pop(&mut self) -> Option<(Time, ProcId, M)> {
        while let Some(Reverse((time, seq, slot))) = self.keys.pop() {
            if let Some(p) = self.slab[slot as usize].take_if(|p| p.seq == seq) {
                self.free.push(slot);
                return Some((time, p.target, p.ev));
            }
        }
        None
    }
}

/// The simulator: actors + event queue + virtual clock.
pub struct Sim<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    queue: Queue<M>,
    time: Time,
    rng: SmallRng,
    halted: bool,
    processed: u64,
}

impl<M> Sim<M> {
    /// A simulator seeded for deterministic runs.
    pub fn new(seed: u64) -> Sim<M> {
        Sim {
            actors: Vec::new(),
            queue: Queue::new(),
            time: 0,
            rng: SmallRng::seed_from_u64(seed),
            halted: false,
            processed: 0,
        }
    }

    /// Register an actor; its [`ProcId`] is its registration order.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ProcId {
        self.actors.push(Some(actor));
        (self.actors.len() - 1) as ProcId
    }

    /// Replace an actor (crash-restart modeling). The id keeps addressing
    /// the same process slot; pending events for it still arrive.
    pub fn replace_actor(&mut self, id: ProcId, actor: Box<dyn Actor<M>>) {
        self.actors[id as usize] = Some(actor);
    }

    /// Remove an actor entirely: events addressed to it are dropped on
    /// delivery (a crashed node that never comes back).
    pub fn remove_actor(&mut self, id: ProcId) -> Option<Box<dyn Actor<M>>> {
        self.actors[id as usize].take()
    }

    /// Run `f` against a registered actor (inspection from tests or
    /// harnesses between events).
    pub fn with_actor<T>(
        &mut self,
        id: ProcId,
        f: impl FnOnce(&mut Box<dyn Actor<M>>) -> T,
    ) -> Option<T> {
        self.actors[id as usize].as_mut().map(f)
    }

    /// Inject an event from outside the simulation.
    pub fn schedule(&mut self, at: Time, target: ProcId, ev: M) -> EventId {
        self.queue.push(at.max(self.time), target, ev)
    }

    /// Withdraw a scheduled event from outside the simulation; see
    /// [`Ctx::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Total events delivered so far (cancelled events are not counted).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Events scheduled and neither delivered nor cancelled yet.
    pub fn pending_events(&self) -> usize {
        self.queue.live()
    }

    /// Process a single event. Returns `false` when the queue is empty or
    /// the simulation was halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some((time, target, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.time, "time must be monotonic");
        self.time = time;
        self.processed += 1;
        if target as usize >= self.actors.len() {
            // Addressed to a process that was never registered (e.g. a
            // test injecting a fake client address): swallow silently,
            // like a datagram to a closed port.
            return true;
        }
        let mut halt = false;
        if let Some(actor) = self.actors[target as usize].as_deref_mut() {
            let mut ctx = Ctx {
                now: time,
                self_id: target,
                rng: &mut self.rng,
                queue: &mut self.queue,
                halt: &mut halt,
            };
            actor.on_event(time, ev, &mut ctx);
        }
        if halt {
            self.halted = true;
        }
        true
    }

    /// Run until the queue drains, `deadline` passes, or an actor halts.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let start = self.processed;
        while let Some(time) = self.queue.peek_time() {
            if time > deadline || self.halted {
                break;
            }
            self.step();
        }
        if self.time < deadline {
            self.time = deadline;
        }
        self.processed - start
    }

    /// Run until the event queue is completely empty (or halted).
    pub fn run_to_quiescence(&mut self) -> u64 {
        let start = self.processed;
        while self.step() {}
        self.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Tick,
    }

    struct Echo {
        peer: ProcId,
        log: Vec<(Time, u32)>,
    }

    impl Actor<Ev> for Echo {
        fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Ping(n) => {
                    self.log.push((now, n));
                    if n < 5 {
                        ctx.schedule(10 * MILLIS, self.peer, Ev::Ping(n + 1));
                    } else {
                        ctx.halt();
                    }
                }
                Ev::Tick => {}
            }
        }
    }

    #[test]
    fn ping_pong_advances_virtual_time() {
        let mut sim: Sim<Ev> = Sim::new(7);
        let a = sim.add_actor(Box::new(Echo { peer: 1, log: vec![] }));
        let b = sim.add_actor(Box::new(Echo { peer: 0, log: vec![] }));
        assert_eq!((a, b), (0, 1));
        sim.schedule(0, a, Ev::Ping(0));
        sim.run_to_quiescence();
        assert_eq!(sim.now(), 50 * MILLIS);
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Actor<Ev> for Recorder {
            fn on_event(&mut self, _now: Time, ev: Ev, _ctx: &mut Ctx<'_, Ev>) {
                if let Ev::Ping(n) = ev {
                    self.seen.push(n);
                }
            }
        }
        let mut sim: Sim<Ev> = Sim::new(1);
        let r = sim.add_actor(Box::new(Recorder { seen: vec![] }));
        for n in 0..10 {
            sim.schedule(100, r, Ev::Ping(n));
        }
        sim.run_to_quiescence();
        // Determinism is observable through two identical runs.
        let run = |seed| {
            let mut sim: Sim<Ev> = Sim::new(seed);
            let r = sim.add_actor(Box::new(Recorder { seen: vec![] }));
            for n in 0..10 {
                sim.schedule(100, r, Ev::Ping(n));
            }
            sim.run_to_quiescence();
            sim.events_processed()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim: Sim<Ev> = Sim::new(2);
        let a = sim.add_actor(Box::new(Echo { peer: 0, log: vec![] }));
        sim.schedule(90 * MILLIS, a, Ev::Tick);
        let n = sim.run_until(50 * MILLIS);
        assert_eq!(n, 0, "event is beyond the deadline");
        assert_eq!(sim.now(), 50 * MILLIS);
        sim.run_until(200 * MILLIS);
        assert_eq!(sim.now(), 200 * MILLIS);
    }

    #[test]
    fn removed_actor_swallows_events() {
        let mut sim: Sim<Ev> = Sim::new(2);
        let a = sim.add_actor(Box::new(Echo { peer: 0, log: vec![] }));
        sim.schedule(10, a, Ev::Ping(0));
        sim.remove_actor(a);
        sim.run_to_quiescence();
        assert_eq!(sim.events_processed(), 1, "event consumed without effect");
    }
}
