//! Time-ordered event queue and simulation clock.
//!
//! The heart of the discrete-event engine: events carry a firing time and an
//! arbitrary payload. [`EventQueue`] pops events in time order with **stable
//! FIFO tie-breaking** (two events scheduled for the same instant fire in
//! insertion order), which keeps whole simulations deterministic.

use std::cmp::Ordering;

use mvcom_types::SimTime;

/// A heap entry: `(time, sequence, payload slot)`.
///
/// The payload itself lives in the queue's slab — sifting moves only this
/// fixed 24-byte key, not the (potentially much larger) event, which is
/// what makes the heap hot path cheap for simulations whose events carry
/// digests or messages.
///
/// The earliest time (and, within a time, the lowest sequence number) is
/// popped first.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A 4-ary min-heap of [`Key`]s.
///
/// Event-queue pops dominate simulation run time, and a pop's sift-down
/// walks the heap's full depth with a data-dependent (cache-missing) read
/// per level. A 4-ary layout halves the depth vs a binary heap while the
/// four children of a node share at most two cache lines, which in
/// practice roughly halves the per-pop cost at simulation-sized queues.
///
/// Determinism: keys are totally ordered (`seq` is unique), so the pop
/// sequence is exactly ascending `(time, seq)` regardless of the heap's
/// internal arity or layout — swapping the binary heap for this one
/// cannot reorder any simulation.
#[derive(Debug, Default)]
struct MinHeap {
    keys: Vec<Key>,
}

/// Heap arity.
const D: usize = 4;

impl MinHeap {
    fn with_capacity(capacity: usize) -> MinHeap {
        MinHeap {
            keys: Vec::with_capacity(capacity),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn peek(&self) -> Option<&Key> {
        self.keys.first()
    }

    fn push(&mut self, key: Key) {
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1);
    }

    fn pop(&mut self) -> Option<Key> {
        let top = *self.keys.first()?;
        #[expect(
            clippy::expect_used,
            reason = "first() above proves the heap is non-empty"
        )]
        let last = self.keys.pop().expect("non-empty heap");
        if !self.keys.is_empty() {
            self.keys[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn clear(&mut self) {
        self.keys.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.keys[i] < self.keys[parent] {
                self.keys.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.keys.len();
        loop {
            let first_child = i * D + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            for child in (first_child + 1)..(first_child + D).min(len) {
                if self.keys[child] < self.keys[min] {
                    min = child;
                }
            }
            if self.keys[min] < self.keys[i] {
                self.keys.swap(i, min);
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
    heap: MinHeap,
    /// Payload slab: `heap` keys index into it, `free` recycles vacated
    /// slots so the slab's footprint tracks the peak pending count.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: MinHeap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue pre-sized for `capacity` pending events, so
    /// hot simulation loops (PBFT broadcasts schedule O(n²) deliveries)
    /// never reallocate the heap mid-run.
    pub fn with_capacity(capacity: usize) -> EventQueue<E> {
        EventQueue {
            heap: MinHeap::with_capacity(capacity),
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
        self.heap.push(Key { time, seq, slot });
    }

    /// Takes the payload out of `slot`, returning the slot to the free
    /// list.
    fn vacate(&mut self, slot: u32) -> E {
        self.free.push(slot);
        #[expect(
            clippy::expect_used,
            reason = "every heap key points at an occupied slot"
        )]
        self.slots[slot as usize]
            .take()
            .expect("heap key points at an occupied slot")
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties fire in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        let payload = self.vacate(key.slot);
        Some((key.time, payload))
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
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
        let time = self.peek_time()?;
        while self.heap.peek().is_some_and(|e| e.time == time) {
            #[expect(
                clippy::expect_used,
                reason = "the peek above proves the heap is non-empty"
            )]
            let key = self.heap.pop().expect("peeked entry");
            let payload = self.vacate(key.slot);
            batch.push(payload);
        }
        Some(time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
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
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
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
