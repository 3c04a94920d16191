//! An epoch record's SE checkpoint, restored, reproduces the epoch's
//! decision. A short undefended seeded run is read back; each solved
//! epoch is posed again through `FinalCommittee::decide` over the same
//! reports, its engine is replaced by one rebuilt from the record's `se`
//! (`Admission::restore`, which calls `SeEngine::from_checkpoint`), and
//! `finish()` must give the record's `schedule_crc` and its `utility`.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_core::admission::{Capacity, EpochPolicy, FinalCommittee};
use mvcom_core::se::SeConfig;
use mvcom_daemon::{
    crc32, read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, HistoryRecord,
    IngestSource, SeededSource,
};
use mvcom_obs::Obs;
use mvcom_types::ShardInfo;

const EPOCHS: u64 = 6;

fn config() -> DaemonConfig {
    DaemonConfig {
        seed: 13,
        population: 40,
        batch_size: 7,
        reports_per_epoch: 24,
        se_iterations: 120,
        max_epochs: EPOCHS,
        ..DaemonConfig::default()
    }
}

/// The reports of each epoch, drawn in the daemon's batch sizes.
fn epochs_of_reports(config: &DaemonConfig) -> Vec<Vec<ShardInfo>> {
    let mut source = SeededSource::new(config.seed, config.population).unwrap();
    let per_epoch = config.reports_per_epoch as usize;
    (0..EPOCHS)
        .map(|_| {
            let mut reports = Vec::with_capacity(per_epoch);
            let mut batch = Vec::new();
            while reports.len() < per_epoch {
                let want = (per_epoch - reports.len()).min(config.batch_size as usize);
                assert!(source.next_batch(&mut batch, want).unwrap() > 0);
                reports.append(&mut batch);
            }
            reports
        })
        .collect()
}

#[test]
fn a_restored_epoch_checkpoint_finishes_to_the_recorded_decision() {
    let dir = std::env::temp_dir().join(format!("mvcom-daemon-se-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("history.log");
    let config = config();
    let source = SeededSource::new(config.seed, config.population).unwrap();
    let mut daemon = Daemon::open(
        config.clone(),
        Box::new(source),
        &path,
        false,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .unwrap();
    assert_eq!(daemon.run(|_| {}).unwrap(), EPOCHS);
    drop(daemon);
    let records = read_history(&path).unwrap().records;
    std::fs::remove_dir_all(&dir).unwrap();

    let mut committee = FinalCommittee {
        policy: EpochPolicy {
            alpha: config.alpha,
            capacity: Capacity::PerCommittee(config.capacity_per_committee),
            n_min_fraction: config.n_min_fraction,
            ..EpochPolicy::paper()
        },
        defense: None,
        obs: Obs::off(),
    };
    let mut solved = 0;
    for (epoch, reports) in epochs_of_reports(&config).iter().enumerate() {
        let HistoryRecord::Epoch(record) = &records[epoch + 1] else {
            panic!("record {} is not an epoch", epoch + 1)
        };
        let Some(se) = &record.checkpoint.se else {
            continue;
        };
        let epoch = epoch as u64;
        let se_config = SeConfig::paper(config.seed)
            .for_epoch(epoch)
            .with_max_iterations(config.se_iterations);
        let mut admission = committee
            .decide(epoch, reports, None, None, se_config)
            .unwrap();
        assert_eq!(admission.restore(se).unwrap(), se.chain_count());
        let decision = admission.finish();
        let mut admitted = decision.admitted;
        admitted.sort_unstable();
        let ids: Vec<u8> = admitted
            .iter()
            .flat_map(|c| c.value().to_le_bytes())
            .collect();
        let summary = &record.summary;
        // The restore keeps the recorded best verbatim, so the finished
        // epoch carries the recorded utility bit for bit.
        assert_eq!(
            decision.utility.to_bits(),
            summary.utility.to_bits(),
            "epoch {epoch}: utility {} vs recorded {}",
            decision.utility,
            summary.utility
        );
        assert_eq!(crc32(&ids), summary.schedule_crc, "epoch {epoch}");
        solved += 1;
    }
    assert_eq!(solved, EPOCHS, "every epoch of this run is solved by SE");
}
