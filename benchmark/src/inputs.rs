//! Inputs, all derived from `--seed` by the benchmark's own generator: the
//! program sees only what is rendered here (plus a derived integer seed
//! where its API takes one), so a change to the program's generators
//! cannot change what a workload feeds it without showing as a count
//! mismatch.

/// SplitMix64 — small, well-mixed, and independent of the program's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller, one draw kept).
    pub fn normal(&mut self) -> f64 {
        let (u, v) = (self.unit(), self.unit());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// The seed of instance `world` of `workload` under run seed `seed`.
pub fn world_seed(seed: u64, workload: &str, world: u64) -> u64 {
    let tag = workload.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    let mut mix =
        SplitMix::new(seed ^ tag.rotate_left(17) ^ world.wrapping_mul(0xD1B5_4A32_D192_ED03));
    // Seeds travel through JSON and CLIs elsewhere in the workspace; keep
    // them within 2^53 so no reader can round them.
    mix.next_u64() >> 11
}

/// Renders a JSONL report feed for `JsonlSource`: `reports` lines cycling
/// through `population` committee ids (so an epoch no larger than the
/// population never repeats an id), transaction counts log-normal around
/// the Jan-2016 block mean (1089, CV 0.45) and two-phase latencies of an
/// Exp(600 s) formation plus a log-normal(54.5 s, 15 s) consensus — the
/// paper's §VI-A shapes, drawn here rather than by the program.
pub fn render_feed(seed: u64, population: u32, reports: u64) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    let tx_sigma2 = (1.0f64 + 0.45 * 0.45).ln();
    let tx_mu = (1_500_000.0f64 / 1378.0).ln() - tx_sigma2 / 2.0;
    let lat_sigma2 = (1.0f64 + (15.0 / 54.5) * (15.0 / 54.5)).ln();
    let lat_mu = 54.5f64.ln() - lat_sigma2 / 2.0;
    let mut out = String::with_capacity(reports as usize * 64);
    for i in 0..reports {
        let committee = i % u64::from(population);
        let txs = ((tx_mu + tx_sigma2.sqrt() * rng.normal()).exp().round() as u64).max(1);
        let formation = -600.0 * rng.unit().ln();
        let consensus = (lat_mu + lat_sigma2.sqrt() * rng.normal()).exp();
        let latency = formation + consensus;
        out.push_str(&format!(
            "{{\"committee\":{committee},\"txs\":{txs},\"latency_s\":{latency}}}\n"
        ));
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_feed_other_seed_other_feed() {
        let a = render_feed(11, 16, 200);
        assert_eq!(a, render_feed(11, 16, 200));
        assert_ne!(a, render_feed(12, 16, 200));
        let text = String::from_utf8(a).unwrap();
        assert_eq!(text.lines().count(), 200);
        assert!(text.starts_with("{\"committee\":0,\"txs\":"));
        assert!(text
            .lines()
            .nth(17)
            .unwrap()
            .starts_with("{\"committee\":1,"));
    }

    #[test]
    fn world_seeds_are_distinct_and_json_safe() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4 {
            for workload in ["daemon-steady", "solve-scale"] {
                for world in 0..4 {
                    let s = world_seed(seed, workload, world);
                    assert!(s < (1 << 53));
                    assert!(seen.insert(s));
                }
            }
        }
        assert_eq!(world_seed(7, "epoch-sim", 1), world_seed(7, "epoch-sim", 1));
    }
}
