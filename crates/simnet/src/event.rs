//! Time-ordered event queue and simulation clock.
//!
//! The heart of the discrete-event engine: events carry a firing time and a
//! small `Copy` payload. [`EventQueue`] pops events in time order with
//! **stable FIFO tie-breaking** (two events scheduled for the same instant
//! fire in insertion order), which keeps whole simulations deterministic.
//!
//! Simulations push in bursts — a PBFT replica schedules one delivery per
//! peer for every message it handles — so the queue does not sift each
//! event through one big heap. Pushes are *staged* in push order; the next
//! pop *seals* the stage into one run sorted by `(time, seq)`, and pops
//! merge the runs through a small heap that holds one entry per live run.
//! A payload travels inside its run entry, so a pop copies it straight out
//! of the run it was sorted into.

use std::hint::select_unpredictable;

use mvcom_types::SimTime;

#[cfg(test)]
mod reference;

/// A position in the pop order, packed into one integer: the bits of the
/// time above the sequence number. A [`SimTime`] is never negative or NaN,
/// so the bit pattern of its seconds orders like its value, and `seq` is
/// unique, so no two pending events share an order.
fn order(time: SimTime, seq: u64) -> u128 {
    u128::from(time.as_secs().to_bits()) << 64 | u128::from(seq)
}

/// A pending event: its firing time, its push sequence number and its
/// payload. The earliest time (and, within a time, the lowest sequence
/// number) is popped first.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn order(&self) -> u128 {
        order(self.time, self.seq)
    }
}

/// A sealed burst of pushes: its entries ascending, the first `next` of
/// them already popped.
#[derive(Debug)]
struct Run<E> {
    entries: Vec<Entry<E>>,
    next: usize,
}

/// A heap entry: the order of the earliest unpopped entry of run `run`.
#[derive(Debug, Clone, Copy)]
struct Head {
    time: SimTime,
    seq: u64,
    run: usize,
}

impl Head {
    fn of<E>(entry: &Entry<E>, run: usize) -> Head {
        Head {
            time: entry.time,
            seq: entry.seq,
            run,
        }
    }

    fn order(&self) -> u128 {
        order(self.time, self.seq)
    }
}

/// A 4-ary min-heap of run [`Head`]s, ordered by their packed orders.
///
/// A pop's sift-down walks the heap's depth with a data-dependent read per
/// level; a 4-ary layout halves the depth vs a binary heap, and a node's
/// four children are compared as a branch-free tournament, so which child
/// wins is never a mispredicted jump.
///
/// Determinism: orders are unique, so the pop sequence is exactly
/// ascending `(time, seq)` regardless of how pushes were grouped into runs
/// or of the heap's arity or layout — no choice made here can reorder any
/// simulation.
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
        let mut i = self.heads.len();
        self.heads.push(head);
        while i > 0 {
            let parent = (i - 1) / D;
            if self.heads[parent].order() < head.order() {
                break;
            }
            self.heads[i] = self.heads[parent];
            i = parent;
        }
        self.heads[i] = head;
    }

    /// Puts `head` where the top entry was.
    fn replace_top(&mut self, head: Head) {
        if !self.heads.is_empty() {
            self.sift_down(head);
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

    /// The earlier of the heads at `a` and `b`.
    fn earlier(&self, a: usize, b: usize) -> usize {
        select_unpredictable(self.heads[b].order() < self.heads[a].order(), b, a)
    }

    /// Moves `head` down from the root (whose entry it replaces) until no
    /// child precedes it.
    fn sift_down(&mut self, head: Head) {
        let len = self.heads.len();
        let mut i = 0;
        loop {
            let first = i * D + 1;
            let min = if first + D <= len {
                let left = self.earlier(first, first + 1);
                let right = self.earlier(first + 2, first + 3);
                self.earlier(left, right)
            } else if first < len {
                (first + 1..len).fold(first, |min, child| self.earlier(min, child))
            } else {
                break;
            };
            if head.order() < self.heads[min].order() {
                break;
            }
            self.heads[i] = self.heads[min];
            i = min;
        }
        self.heads[i] = head;
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
    /// Entries pushed since the last pop, in push — hence `seq` — order,
    /// and the scratch their sort goes through.
    stage: Vec<Entry<E>>,
    tags: Vec<u64>,
    /// Sealed runs by id; `free_runs` lists the drained ones, whose entry
    /// storage the next seal reuses, so the footprint tracks the peak.
    runs: Vec<Run<E>>,
    free_runs: Vec<usize>,
    /// One head per live (sealed, not yet drained) run.
    heap: MinHeap,
    len: usize,
    next_seq: u64,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            stage: Vec::new(),
            tags: Vec::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            heap: MinHeap::default(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Creates an empty queue whose stage holds `capacity` pushes before
    /// it first grows. Run storage grows per burst and is recycled.
    pub fn with_capacity(capacity: usize) -> EventQueue<E> {
        EventQueue {
            stage: Vec::with_capacity(capacity),
            ..EventQueue::new()
        }
    }

    /// Schedules `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.stage.push(Entry { time, seq, payload });
    }

    /// Turns the staged pushes into one more sorted run.
    fn seal(&mut self) {
        let Some(last) = self.stage.len().checked_sub(1) else {
            return;
        };
        let id = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(Run {
                entries: Vec::new(),
                next: 0,
            });
            self.runs.len() - 1
        });
        let run = &mut self.runs[id];
        run.next = 0;
        // Plain `u64`s sort several times faster than entries do, so each
        // staged entry is stood in for by a tag: the bits of its time with
        // the low `width` bits — enough for any stage index — replaced by
        // its index. Stage order is `seq` order, so tags order exactly like
        // `(time, seq)` unless two times differ only inside those low bits;
        // the rare stage where that matters is put right by sorting its
        // entries, whose orders are unique and therefore have one sorting.
        let width = usize::BITS - last.leading_zeros();
        let index = (1u64 << width) - 1;
        self.tags.clear();
        self.tags.extend(
            (0u64..)
                .zip(&self.stage)
                .map(|(i, entry)| entry.time.as_secs().to_bits() & !index | i),
        );
        self.tags.sort_unstable();
        let sorted = self
            .tags
            .iter()
            .map(|tag| self.stage[(tag & index) as usize]);
        run.entries.extend(sorted);
        self.stage.clear();
        if !run.entries.is_sorted_by_key(Entry::order) {
            run.entries.sort_unstable_by_key(Entry::order);
        }
        self.heap.push(Head::of(&run.entries[0], id));
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties fire in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.seal();
        let id = self.heap.peek()?.run;
        let run = &mut self.runs[id];
        let Entry { time, payload, .. } = run.entries[run.next];
        run.next += 1;
        match run.entries.get(run.next) {
            Some(entry) => self.heap.replace_top(Head::of(entry, id)),
            None => {
                self.heap.remove_top();
                run.entries.clear();
                self.free_runs.push(id);
            }
        }
        self.len -= 1;
        Some((time, payload))
    }

    /// Returns the firing time of the earliest event without removing it
    /// (a scan of the pushes made since the last pop, plus one lookup).
    pub fn peek_time(&self) -> Option<SimTime> {
        let sealed = self.heap.peek().map(|head| head.time);
        let staged = self.stage.iter().map(|entry| entry.time).min();
        sealed.into_iter().chain(staged).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.stage.clear();
        self.runs.clear();
        self.free_runs.clear();
        self.heap.clear();
        self.len = 0;
    }
}

impl<E: Copy> Default for EventQueue<E> {
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

impl<E: Copy> Scheduler<E> {
    /// Creates a scheduler with the clock at time zero.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            queue: EventQueue::new(),
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

impl<E: Copy> Default for Scheduler<E> {
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
            let ops = random_ops(&mut crate::rng::master(seed), 24_000);
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
            .chain((0..300).map(|_| Op::Pop))
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
            let entries: usize = q.runs.iter().map(|run| run.entries.capacity()).sum();
            (q.runs.len(), entries)
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
