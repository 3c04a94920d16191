//! The host's speed at the moment of an observation.
//!
//! The benchmark host (a shared 2-vCPU VM) alternates between a fast state
//! and one ~28 % slower, in spells of 2–40 s, about half the time each —
//! measured with a fixed kernel, pinned, and nothing else running; thread
//! CPU time stretches exactly as wall time does, so it is contention for
//! the core, not stolen time. A run sits wholly in one state about as
//! often as not, so no statistic of its own times can be steadier than
//! the host: as measured, the timings' quartile spreads over ten runs are
//! several times the third of a bound that the driver's contract asks a
//! spread to stay under (the `iqr measured` column of
//! `baseline/spread-*.txt`).
//!
//! So the tracer times a small fixed kernel between operations, at most
//! every [`PROBE_EVERY_NS`], and every time the benchmark reports is the
//! time it measured multiplied by [`NOMINAL_KERNEL_NS`] ÷ the kernel's
//! time around that observation: *nominal* time, what the operation takes
//! on a host that runs the kernel in [`NOMINAL_KERNEL_NS`]. The rule is
//! the same for every observation of every run — nothing is classified,
//! selected or remembered between runs — and each result carries the times
//! as measured and the kernel's own beside the nominal ones.

use std::time::Instant;

/// A probe is due once this much time has passed since the last one.
pub const PROBE_EVERY_NS: u64 = 200_000_000;

/// The kernel's time on this class of host (Xeon @ 2.1 GHz) in its fast
/// state: nominal and measured times agree there.
pub const NOMINAL_KERNEL_NS: f64 = 115_000.0;

/// Fixed branchy integer + float work over a 4 KB table: the instruction
/// mix of the SE and PBFT loops. Independent of the program under test by
/// construction.
#[inline(never)]
fn kernel() -> u64 {
    let mut table = [0u32; 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let mut logs = 0.0f64;
    for i in 0..20_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & 1023;
        let v = table[slot].wrapping_add(i);
        table[slot] = v;
        if v & 1 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else {
            acc ^= x.rotate_left(7);
            logs += ((x >> 40) as f64 + 1.0).ln();
        }
    }
    std::hint::black_box(acc ^ logs.to_bits())
}

/// One probe: the fastest of three kernel runs, in nanoseconds (the first
/// runs on caches the program left cold, and an interrupt lengthens one
/// run, not three).
pub fn probe_ns() -> u64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three runs")
}

/// What a time measured while the kernel took `kernel_ns` is multiplied by
/// to give nominal time.
pub fn to_nominal(kernel_ns: f64) -> f64 {
    NOMINAL_KERNEL_NS / kernel_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_work() {
        assert_eq!(kernel(), kernel());
        assert!(probe_ns() > 0);
        assert_eq!(to_nominal(NOMINAL_KERNEL_NS), 1.0);
        assert_eq!(to_nominal(2.0 * NOMINAL_KERNEL_NS), 0.5);
    }
}
