//! Time-ordered event queue and simulation clock.
//!
//! The heart of the discrete-event engine: events carry a firing time and an
//! arbitrary payload. [`EventQueue`] pops events in time order with **stable
//! FIFO tie-breaking** (two events scheduled for the same instant fire in
//! insertion order), which keeps whole simulations deterministic.
//!
//! Simulations push in bursts — a PBFT replica schedules one delivery per
//! peer for every message it handles — so the queue does not sift each key
//! through one big heap. Pushes are *staged* in push order; the next pop
//! *seals* the stage into one run sorted by `(time, seq)`, and pops merge
//! the runs through a small heap that holds one entry per live run.

use std::cmp::Ordering;

use mvcom_types::SimTime;

#[cfg(test)]
mod reference;

/// A pending event's place in the order: `(time, sequence, payload slot)`.
///
/// The payload itself lives in the queue's slab — sorting and merging move
/// only this fixed 24-byte key, not the (potentially much larger) event.
///
/// The earliest time (and, within a time, the lowest sequence number) is
/// popped first.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// The key's position as integers: a [`SimTime`] is never negative or
    /// NaN, so the bit pattern of its seconds orders like its value.
    fn order(&self) -> (u64, u64) {
        (self.time.as_secs().to_bits(), self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order().cmp(&other.order())
    }
}

/// A sealed burst of pushes: its keys ascending, the first `next` of them
/// already popped.
#[derive(Debug, Default)]
struct Run {
    keys: Vec<Key>,
    next: usize,
}

/// A heap entry: the earliest unpopped key of run `run`.
#[derive(Debug, Clone, Copy)]
struct Head {
    key: Key,
    run: u32,
}

/// A 4-ary min-heap of run [`Head`]s, ordered by their keys.
///
/// A pop's sift-down walks the heap's depth with a data-dependent read per
/// level; a 4-ary layout halves the depth vs a binary heap while the four
/// children of a node share at most two cache lines.
///
/// Determinism: keys are totally ordered (`seq` is unique), so the pop
/// sequence is exactly ascending `(time, seq)` regardless of how pushes
/// were grouped into runs or of the heap's arity or layout — no choice
/// made here can reorder any simulation.
#[derive(Debug, Default)]
struct MinHeap {
    heads: Vec<Head>,
}

/// Heap arity.
const D: usize = 4;

impl MinHeap {
    fn peek(&self) -> Option<&Head> {
        self.heads.first()
    }

    fn push(&mut self, head: Head) {
        self.heads.push(head);
        self.sift_up(self.heads.len() - 1);
    }

    /// Puts `head` where the top entry was.
    fn replace_top(&mut self, head: Head) {
        if let Some(top) = self.heads.first_mut() {
            *top = head;
            self.sift_down(0);
        }
    }

    /// Drops the top entry.
    fn remove_top(&mut self) {
        if let Some(last) = self.heads.pop() {
            self.replace_top(last);
        }
    }

    fn clear(&mut self) {
        self.heads.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.heads[i].key < self.heads[parent].key {
                self.heads.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heads.len();
        loop {
            let first_child = i * D + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            for child in (first_child + 1)..(first_child + D).min(len) {
                if self.heads[child].key < self.heads[min].key {
                    min = child;
                }
            }
            if self.heads[min].key < self.heads[i].key {
                self.heads.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

/// A priority queue of timed events with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use mvcom_simnet::EventQueue;
/// use mvcom_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "later");
/// q.push(SimTime::from_secs(1.0), "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "later");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Keys pushed since the last pop, in push — hence `seq` — order, and
    /// the scratch their sort goes through.
    stage: Vec<Key>,
    tags: Vec<u64>,
    /// Sealed runs by id; `free_runs` lists the drained ones, whose key
    /// storage the next seal reuses, so the footprint tracks the peak.
    runs: Vec<Run>,
    free_runs: Vec<u32>,
    /// One head per live (sealed, not yet drained) run.
    heap: MinHeap,
    /// Payload slab: keys index into it, `free` recycles vacated slots so
    /// the slab's footprint tracks the peak pending count.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue whose payload slab is pre-sized for
    /// `capacity` pending events, so a simulation that knows its peak
    /// (PBFT broadcasts schedule O(n²) deliveries) never moves the slab
    /// mid-run. Key storage grows per burst and is recycled.
    pub fn with_capacity(capacity: usize) -> EventQueue<E> {
        EventQueue {
            stage: Vec::new(),
            tags: Vec::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            heap: MinHeap::default(),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .unwrap_or_else(|_| panic!("event queue exceeded {} live events", u32::MAX));
                self.slots.push(Some(payload));
                slot
            }
        };
        self.stage.push(Key { time, seq, slot });
    }

    /// Turns the staged pushes into one more sorted run.
    fn seal(&mut self) {
        let Some(last) = self.stage.len().checked_sub(1) else {
            return;
        };
        let id = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(Run::default());
            // Every live run holds a slab slot, so run ids fit the slab's
            // `u32` index too.
            (self.runs.len() - 1) as u32
        });
        let run = &mut self.runs[id as usize];
        run.next = 0;
        // Plain `u64`s sort several times faster than keys do, so each
        // staged key is stood in for by a tag: the bits of its time with
        // the low `width` bits — enough for any stage index — replaced by
        // its index. Stage order is `seq` order, so tags order exactly like
        // `(time, seq)` unless two times differ only inside those low bits;
        // the rare stage where that matters is put right by sorting its
        // keys, which are unique and therefore have one sorted order.
        let width = usize::BITS - last.leading_zeros();
        let index = (1u64 << width) - 1;
        self.tags.clear();
        self.tags.extend(
            (0u64..)
                .zip(&self.stage)
                .map(|(i, key)| key.order().0 & !index | i),
        );
        self.tags.sort_unstable();
        let sorted = self
            .tags
            .iter()
            .map(|tag| self.stage[(tag & index) as usize]);
        run.keys.extend(sorted);
        self.stage.clear();
        if !run.keys.is_sorted() {
            run.keys.sort_unstable();
        }
        self.heap.push(Head {
            key: run.keys[0],
            run: id,
        });
    }

    /// Removes the earliest sealed key if it satisfies `wanted`.
    fn take_head(&mut self, wanted: impl FnOnce(&Key) -> bool) -> Option<Key> {
        let Head { key, run: id } = *self.heap.peek().filter(|head| wanted(&head.key))?;
        let run = &mut self.runs[id as usize];
        run.next += 1;
        match run.keys.get(run.next) {
            Some(&key) => self.heap.replace_top(Head { key, run: id }),
            None => {
                self.heap.remove_top();
                run.keys.clear();
                self.free_runs.push(id);
            }
        }
        Some(key)
    }

    /// Takes the payload out of `slot`, returning the slot to the free
    /// list. Every key points at an occupied slot.
    fn vacate(&mut self, slot: u32) -> Option<E> {
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties fire in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.seal();
        let key = self.take_head(|_| true)?;
        let payload = self.vacate(key.slot)?;
        Some((key.time, payload))
    }

    /// Returns the firing time of the earliest event without removing it
    /// (a scan of the pushes made since the last pop, plus one lookup).
    pub fn peek_time(&self) -> Option<SimTime> {
        let sealed = self.heap.peek().map(|head| head.key.time);
        let staged = self.stage.iter().map(|key| key.time).min();
        sealed.into_iter().chain(staged).min()
    }

    /// Drains every event scheduled for the earliest pending instant into
    /// `batch` (cleared first), in FIFO order, and returns that instant.
    ///
    /// Popping a batch is equivalent to repeated [`EventQueue::pop`] calls:
    /// events pushed *while processing* a batch — even for the same instant
    /// — carry higher sequence numbers than everything already queued, so
    /// they land in a later batch exactly as they would pop later
    /// one-at-a-time. Batching only saves the per-event peek/round-trip,
    /// it never reorders deliveries.
    pub fn pop_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        batch.clear();
        self.seal();
        let time = self.heap.peek()?.key.time;
        while let Some(key) = self.take_head(|key| key.time == time) {
            batch.extend(self.vacate(key.slot));
        }
        Some(time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.stage.clear();
        self.runs.clear();
        self.free_runs.clear();
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// An [`EventQueue`] paired with the current simulation time.
///
/// `Scheduler` enforces the monotone-clock invariant: events cannot be
/// scheduled in the past, and popping an event advances the clock to its
/// firing time.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at time zero.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Creates a scheduler whose queue is pre-sized for `capacity` pending
    /// events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(capacity: usize) -> Scheduler<E> {
        Scheduler {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        self.queue.push(self.now + delay, payload);
    }

    /// Schedules `payload` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current simulation time — a discrete
    /// event simulator must never rewind.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {now}",
            now = self.now
        );
        self.queue.push(at, payload);
    }

    /// Pops the earliest event and advances the clock to its firing time.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (time, payload) = self.queue.pop()?;
        self.now = time;
        Some((time, payload))
    }

    /// Pops *every* event scheduled for the earliest pending instant into
    /// `batch` (FIFO order), advancing the clock once for the whole batch.
    /// Returns the batch's firing time, or `None` when idle. Equivalent to
    /// repeated [`Scheduler::next_event`] calls at one instant — see
    /// [`EventQueue::pop_batch`] for the ordering argument.
    pub fn next_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        let time = self.queue.pop_batch(batch)?;
        self.now = time;
        Some(time)
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{assert_same_schedule, random_ops, Op};
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_like_the_heap_per_event_queue_on_random_schedules() {
        for seed in 0..4 {
            let ops = random_ops(&mut crate::rng::master(seed), 12_000);
            assert!(assert_same_schedule(&ops) > 10_000, "seed {seed}");
        }
    }

    #[test]
    fn times_the_sort_tags_cannot_tell_apart_still_pop_in_order() {
        // 300 staged keys take nine tag bits; these times differ in the low
        // six only, pushed in descending order.
        let base = 1234.5f64.to_bits();
        let descending = (0..300u64).map(|i| f64::from_bits(base + 63 - i % 64));
        let ops = [Op::Burst(descending.collect())]
            .into_iter()
            .chain((0..300).map(|i| if i % 2 == 0 { Op::Pop } else { Op::PopBatch }))
            .collect::<Vec<_>>();
        assert_eq!(assert_same_schedule(&ops), 300);
    }

    #[test]
    fn a_burst_is_one_run_and_run_storage_is_recycled() {
        // The PBFT shape: 200 broadcasts of 100 deliveries whose windows
        // overlap their neighbours', each delivery handled singly.
        const BURSTS: usize = 200;
        let mut q: EventQueue<usize> = EventQueue::new();
        let wave = |q: &mut EventQueue<usize>| {
            let mut last = SimTime::ZERO;
            for burst in 0..BURSTS {
                for i in 0..100 {
                    q.push(secs(burst as f64 + (i * 37 % 100) as f64 * 0.03), i);
                }
                let (at, _) = q.pop().unwrap();
                assert!(at >= last);
                last = at;
                assert!(q.heap.heads.len() <= burst + 1, "one run per burst");
            }
            while let Some((at, _)) = q.pop() {
                assert!(at >= last);
                last = at;
            }
        };
        let storage = |q: &EventQueue<usize>| {
            let keys: usize = q.runs.iter().map(|run| run.keys.capacity()).sum();
            (q.runs.len(), keys, q.slots.capacity())
        };
        wave(&mut q);
        assert!(q.is_empty() && q.heap.heads.is_empty());
        assert_eq!(
            q.free_runs.len(),
            q.runs.len(),
            "every run is back on the free list"
        );
        let after_one = storage(&q);
        assert!(after_one.0 <= BURSTS);
        wave(&mut q);
        assert_eq!(
            storage(&q),
            after_one,
            "the second wave reuses the first's storage"
        );
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(secs(3.0), 'c');
        q.push(secs(1.0), 'a');
        q.push(secs(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(secs(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(secs(1.0), ());
        assert_eq!(q.peek_time(), Some(secs(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(secs(1.0), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduler_advances_clock() {
        let mut s = Scheduler::new();
        s.schedule_in(secs(2.0), "x");
        s.schedule_in(secs(1.0), "y");
        let (t, e) = s.next_event().unwrap();
        assert_eq!((t, e), (secs(1.0), "y"));
        assert_eq!(s.now(), secs(1.0));
        // Relative scheduling is now relative to the advanced clock.
        s.schedule_in(secs(0.5), "z");
        let (t, e) = s.next_event().unwrap();
        assert_eq!((t, e), (secs(1.5), "z"));
        let (t, e) = s.next_event().unwrap();
        assert_eq!((t, e), (secs(2.0), "x"));
        assert!(s.is_idle());
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_in(secs(5.0), ());
        s.next_event();
        s.schedule_at(secs(1.0), ());
    }

    #[test]
    fn scheduler_pending_counts() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert!(s.is_idle());
        s.schedule_in(secs(1.0), 1);
        s.schedule_in(secs(2.0), 2);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.peek_time(), Some(secs(1.0)));
    }

    #[test]
    fn pop_batch_matches_one_at_a_time_pop() {
        let build = || {
            let mut q = EventQueue::with_capacity(16);
            q.push(secs(1.0), 'a');
            q.push(secs(2.0), 'c');
            q.push(secs(1.0), 'b');
            q.push(secs(2.0), 'd');
            q.push(secs(3.0), 'e');
            q
        };
        let mut serial = Vec::new();
        let mut q = build();
        while let Some((t, e)) = q.pop() {
            serial.push((t, e));
        }
        let mut batched = Vec::new();
        let mut q = build();
        let mut batch = Vec::new();
        while let Some(t) = q.pop_batch(&mut batch) {
            batched.extend(batch.iter().map(|&e| (t, e)));
        }
        assert_eq!(serial, batched);
    }

    #[test]
    fn pushes_during_a_batch_land_in_a_later_batch() {
        let mut s: Scheduler<u32> = Scheduler::with_capacity(8);
        s.schedule_in(secs(1.0), 1);
        s.schedule_in(secs(1.0), 2);
        let mut batch = Vec::new();
        let t = s.next_batch(&mut batch).unwrap();
        assert_eq!((t, batch.as_slice()), (secs(1.0), [1, 2].as_slice()));
        // A same-instant push while "processing" the batch fires next, in
        // its own batch — exactly as one-at-a-time popping would order it.
        s.schedule_at(secs(1.0), 3);
        s.schedule_in(secs(1.0), 4);
        let t = s.next_batch(&mut batch).unwrap();
        assert_eq!((t, batch.as_slice()), (secs(1.0), [3].as_slice()));
        assert_eq!(s.next_batch(&mut batch), Some(secs(2.0)));
        assert_eq!(batch, vec![4]);
        assert!(s.next_batch(&mut batch).is_none());
        assert!(batch.is_empty());
    }

    #[test]
    fn interleaved_push_pop_maintains_order() {
        let mut q = EventQueue::new();
        q.push(secs(10.0), 10);
        q.push(secs(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(secs(5.0), 5);
        q.push(secs(2.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }
}
