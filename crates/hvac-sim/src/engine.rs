//! The event-heap simulation engine.
//!
//! [`Engine<W>`] owns a priority queue of timestamped one-shot events.
//! Each event is a closure receiving the user's world state and the engine
//! (to schedule follow-up events). Ties break by insertion order, so the
//! simulation is deterministic.
//!
//! Resources (queues, pipes) deliberately live *outside* the engine — they
//! compute completion times arithmetically (see [`crate::resource`]) and the
//! caller schedules a continuation at that time. This keeps the hot path
//! allocation-light: one boxed closure per process step, not per resource
//! visit.

use hvac_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: a boxed continuation over the world.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

struct HeapEntry<W> {
    time: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for HeapEntry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for HeapEntry<W> {}
impl<W> PartialOrd for HeapEntry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for HeapEntry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event simulator over world type `W`.
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    executed: u64,
    heap: BinaryHeap<HeapEntry<W>>,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// An empty engine at time zero.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `f` at absolute time `t`. Scheduling in the past (t < now)
    /// is clamped to `now` — the event runs next.
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut W, &mut Engine<W>) + 'static) {
        let time = if t < self.now { self.now } else { t };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq,
            f: Box::new(f),
        });
    }

    /// Schedule `f` after a delay.
    pub fn after(&mut self, delay: SimTime, f: impl FnOnce(&mut W, &mut Engine<W>) + 'static) {
        self.at(self.now.saturating_add(delay), f);
    }

    /// Run until the event queue drains. Returns the final time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Run until the queue drains or the next event would be after
    /// `deadline`. Returns the time of the last executed event.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        loop {
            match self.heap.peek() {
                Some(entry) if entry.time <= deadline => {}
                _ => break,
            }
            let Some(entry) = self.heap.pop() else { break };
            debug_assert!(entry.time >= self.now, "time went backwards");
            self.now = entry.time;
            self.executed += 1;
            (entry.f)(world, self);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        eng.at(SimTime::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
        eng.at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        eng.at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        let end = eng.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_secs(3));
        assert_eq!(eng.executed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        for i in 0..10u32 {
            eng.at(SimTime::from_secs(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        eng.run(&mut world);
        assert_eq!(world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        // A self-perpetuating process: count to 5 with 1 s spacing.
        struct World {
            ticks: u32,
        }
        fn tick(w: &mut World, eng: &mut Engine<World>) {
            w.ticks += 1;
            if w.ticks < 5 {
                eng.after(SimTime::from_secs(1), tick);
            }
        }
        let mut eng = Engine::new();
        let mut world = World { ticks: 0 };
        eng.at(SimTime::ZERO, tick);
        let end = eng.run(&mut world);
        assert_eq!(world.ticks, 5);
        assert_eq!(end, SimTime::from_secs(4));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut eng: Engine<Vec<SimTime>> = Engine::new();
        let mut world = Vec::new();
        eng.at(
            SimTime::from_secs(10),
            |w: &mut Vec<SimTime>, e: &mut Engine<Vec<SimTime>>| {
                // "Yesterday" is not allowed; this must run at t=10, not t=1.
                e.at(
                    SimTime::from_secs(1),
                    |w2: &mut Vec<SimTime>, e2: &mut Engine<Vec<SimTime>>| {
                        w2.push(e2.now());
                    },
                );
                w.push(e.now());
            },
        );
        eng.run(&mut world);
        assert_eq!(world, vec![SimTime::from_secs(10), SimTime::from_secs(10)]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        let mut world = 0u32;
        for s in 1..=10 {
            eng.at(SimTime::from_secs(s), |w: &mut u32, _| *w += 1);
        }
        eng.run_until(&mut world, SimTime::from_secs(4));
        assert_eq!(world, 4);
        eng.run(&mut world);
        assert_eq!(world, 10);
    }

    #[test]
    fn empty_run_is_a_noop() {
        let mut eng: Engine<()> = Engine::new();
        assert_eq!(eng.run(&mut ()), SimTime::ZERO);
        assert_eq!(eng.executed(), 0);
    }
}
