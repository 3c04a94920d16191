//! A committee far above anything the paper forms still runs to its
//! deadline instead of killing the process.
//!
//! The runner used to pre-size its event queue for `n² + n` pending events,
//! computed in `u32`: at 70,000 replicas a debug build panicked on the
//! multiplication and a release build wrapped it into a 34 GB allocation
//! that aborted. The queue now grows only with what is pushed.

use mvcom_pbft::{PbftConfig, PbftRunner};
use mvcom_simnet::{rng, Network, NetworkConfig};
use mvcom_types::{Hash32, SimTime};

#[test]
fn seventy_thousand_replicas_reach_the_deadline() {
    let n = 70_000;
    let mut config = PbftConfig::new(n).unwrap();
    config.deadline = SimTime::from_secs(0.001);
    config.view_timeout = SimTime::from_secs(1.0);
    let mut master = rng::master(1);
    let network = Network::new(NetworkConfig::lan(n), rng::fork(&mut master, "net")).unwrap();
    let result = PbftRunner::new(config, network, rng::fork(&mut master, "pbft"))
        .run(Hash32::digest(b"large"))
        .unwrap();
    assert!(!result.committed);
    assert_eq!(result.latency, SimTime::from_secs(0.001));
}
