//! The heap-per-event queue [`EventQueue`](super::EventQueue) replaced,
//! kept as the oracle of the schedule differentials: one 4-ary heap key
//! per pending event beside the payload slab. Test-only — the library's
//! unit tests and `tests/properties.rs` both include this file.

use std::cmp::Ordering;

use mvcom_types::SimTime;
use rand::Rng;

use super::EventQueue;

#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    fn precedes(&self, other: &Key) -> bool {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
            == Ordering::Less
    }
}

/// Heap arity.
const D: usize = 4;

/// One heap key per pending event; pops are ascending `(time, seq)`.
#[derive(Debug)]
pub struct HeapQueue<E> {
    keys: Vec<Key>,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> HeapQueue<E> {
    pub fn new() -> HeapQueue<E> {
        HeapQueue {
            keys: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.keys.push(Key { time, seq, slot });
        let mut i = self.keys.len() - 1;
        while i > 0 {
            let parent = (i - 1) / D;
            if !self.keys[i].precedes(&self.keys[parent]) {
                break;
            }
            self.keys.swap(i, parent);
            i = parent;
        }
    }

    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.keys.pop()?;
        let top = match self.keys.first_mut() {
            Some(first) => std::mem::replace(first, last),
            None => last,
        };
        let len = self.keys.len();
        let mut i = 0;
        loop {
            let first_child = i * D + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            for child in (first_child + 1)..(first_child + D).min(len) {
                if self.keys[child].precedes(&self.keys[min]) {
                    min = child;
                }
            }
            if !self.keys[min].precedes(&self.keys[i]) {
                break;
            }
            self.keys.swap(i, min);
            i = min;
        }
        self.free.push(top.slot);
        let payload = self.slots[top.slot as usize].take()?;
        Some((top.time, payload))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|key| key.time)
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.free.clear();
    }
}

/// One step of a schedule driven through both queues.
#[derive(Debug, Clone)]
pub enum Op {
    /// Push one event per time, in order.
    Burst(Vec<f64>),
    /// Push one event per offset from the instant the last pop returned —
    /// offset `0.0` is a push at the current instant, as a handler makes
    /// while its batch is being processed.
    AtNow(Vec<f64>),
    Pop,
    Clear,
}

/// Draws `count` operations: bursts of 1..200 pushes whose times mix a
/// coarse grid (ties inside and across bursts), a continuum, and neighbours
/// a few ulps apart (closer than the queue's sort tags can tell apart).
pub fn random_ops(rng: &mut impl Rng, count: usize) -> Vec<Op> {
    fn time(rng: &mut impl Rng) -> f64 {
        match rng.gen_range(0..3u32) {
            0 => f64::from(rng.gen_range(0..40u32)) * 2.5,
            1 => rng.gen_range(0.0..100.0),
            _ => f64::from_bits(50.0f64.to_bits() + rng.gen_range(0..64u64)),
        }
    }
    (0..count)
        .map(|_| {
            let pushes = if rng.gen_bool(0.3) {
                rng.gen_range(1..200usize)
            } else {
                rng.gen_range(1..4usize)
            };
            match rng.gen_range(0..100u32) {
                0..=29 => Op::Burst((0..pushes).map(|_| time(rng)).collect()),
                30..=44 => Op::AtNow(
                    (0..pushes)
                        .map(|_| f64::from(rng.gen_range(0..3u32)) * rng.gen_range(0.0..2.0))
                        .collect(),
                ),
                45..=98 => Op::Pop,
                _ => Op::Clear,
            }
        })
        .collect()
}

/// Drives [`EventQueue`] and [`HeapQueue`] through `ops`, asserting after
/// every step that they agree on `len`, `is_empty`, `peek_time` (stage
/// non-empty or not) and on every `(time, payload)` popped. Returns how
/// many events were popped.
pub fn assert_same_schedule(ops: &[Op]) -> usize {
    let mut new: EventQueue<u64> = EventQueue::new();
    let mut old: HeapQueue<u64> = HeapQueue::new();
    let mut now = SimTime::ZERO;
    let mut payload = 0u64;
    let mut popped = 0;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Burst(times) | Op::AtNow(times) => {
                for &secs in times {
                    let at = match op {
                        Op::AtNow(_) => now + SimTime::from_secs(secs),
                        _ => SimTime::from_secs(secs),
                    };
                    new.push(at, payload);
                    old.push(at, payload);
                    payload += 1;
                }
            }
            Op::Pop => {
                let event = new.pop();
                assert_eq!(event, old.pop(), "step {step}: pop");
                if let Some((at, _)) = event {
                    now = at;
                    popped += 1;
                }
            }
            Op::Clear => {
                new.clear();
                old.clear();
            }
        }
        assert_eq!(new.len(), old.len(), "step {step}: len");
        assert_eq!(new.is_empty(), old.is_empty(), "step {step}: is_empty");
        assert_eq!(new.peek_time(), old.peek_time(), "step {step}: peek_time");
    }
    popped
}
