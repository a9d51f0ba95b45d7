//! Bench: the crash-tolerance tax and the recovery path.
//!
//! Run: `cargo bench -p tsn-bench --bench service_recovery`
//! Emits `BENCH_service_recovery.json`; `BENCH_CHECK=1` gates against
//! the committed baseline.
//!
//! Four lanes:
//!
//! * `journal/append` — per-op cost of the write-ahead journal (frame +
//!   CRC + copy): the tax every acknowledged operation pays when a
//!   [`ServiceHost`] runs with journaling on.
//! * `journal/scan` — records/second of the recovery-side scan
//!   (framing walk + CRC verify + decode), the first half of replay.
//! * `recovery/restore_checkpoint` — decoding a warm service's
//!   checkpoint (per-section CRC verify included).
//! * `recovery/crash_restart` — the whole outage: drop the volatile
//!   service, restore the newest checkpoint, replay the journal
//!   suffix. This is the number a "recovery time objective" budget
//!   would be written against.

use tsn_bench::harness::{Bench, BenchSuite};
use tsn_service::{
    DriverConfig, EventJournal, HostConfig, JournalRecord, ServiceConfig, ServiceDriver,
    ServiceHost, ServiceOp, TrustService,
};
use tsn_simnet::{SimDuration, SimTime};

const NODES: usize = 5_000;
const EPOCHS: u64 = 6;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        nodes: NODES,
        epoch: SimDuration::from_secs(60),
        ..ServiceConfig::default()
    }
}

fn main() {
    let mut suite = BenchSuite::new(
        "service_recovery",
        "nodes=5000 epoch=60s arrivals=4.0 seed=77 epochs=6 samples=5",
    );
    let driver = ServiceDriver::new(DriverConfig {
        nodes: NODES,
        arrival_rate: 4.0,
        disclosure_rate: 0.1,
        query_rate: 0.2,
        malicious_fraction: 0.1,
        seed: 77,
        membership: None,
    })
    .expect("valid workload");

    // Warm a journaling host: every acknowledged op is in the journal,
    // checkpoints land at each epoch boundary.
    let mut host = ServiceHost::new(HostConfig {
        service: service_config(),
        ..HostConfig::default()
    })
    .expect("valid host");
    driver.drive_host(&mut host, EPOCHS).expect("clean warm-up");
    let bench = Bench::new("journal").samples(5).warmup(1);

    // ── Lane 1: journal append tax per acknowledged op ──────────────
    let probe = TrustService::new(service_config()).expect("valid config");
    let ops: Vec<ServiceOp> = driver.ops_for_epoch(&probe, 0);
    let result = bench.run_items("append", ops.len() as u64, || {
        let mut journal = EventJournal::new();
        for op in &ops {
            journal.append(&JournalRecord::Op(*op));
        }
        journal.byte_len()
    });
    println!("journal append: {:.0} ops/s", result.throughput_per_sec());
    suite.record(result);

    // ── Lane 2: recovery-side scan throughput ───────────────────────
    // Only live segments scan (GC already collected what no retained
    // checkpoint needs), so the throughput is per live record.
    let journal_bytes = host.journal().flattened_body();
    let live_records = host.journal().records() - host.journal().gc_records();
    let result = bench.run_items("scan", live_records, || {
        EventJournal::scan(&journal_bytes).records.len()
    });
    println!(
        "journal scan over {live_records} live records: {:.0} records/s",
        result.throughput_per_sec()
    );
    suite.record(result);

    // ── Lane 3: checkpoint restore (section CRCs + decode) ──────────
    let checkpoint = host
        .service()
        .expect("warm host is up")
        .checkpoint()
        .expect("snapshot-capable mechanism");
    let result = Bench::new("recovery")
        .samples(5)
        .warmup(1)
        .run("restore_checkpoint", || {
            TrustService::restore(&checkpoint)
                .expect("clean restore")
                .epoch_index()
        });
    println!("checkpoint restore: median {:?}", result.median);
    suite.record(result);

    // ── Lane 4: the whole outage, crash to serving ──────────────────
    // Stage a suffix past the newest checkpoint first: real crashes
    // rarely land exactly on a checkpoint, so the restart should pay
    // for a journal-tail replay too.
    let suffix = driver.ops_for_epoch_len(SimDuration::from_secs(60), EPOCHS);
    for op in suffix.iter().take(2_000) {
        host.apply(op).expect("clean apply");
    }
    let crash_at = host.service().expect("up").now();
    let result = Bench::new("recovery")
        .samples(5)
        .warmup(1)
        .run("crash_restart", || {
            host.crash(crash_at);
            host.restart(crash_at).expect("recovery succeeds");
            host.stats().recoveries
        });
    println!(
        "crash -> serving again: median {:?} (newest checkpoint + {} replayed records)",
        result.median,
        host.last_recovery().map_or(0, |r| r.replayed),
    );
    suite.record(result);

    // The recovered service must be whole — a bench that silently
    // recovers to the wrong state benchmarks nothing.
    assert!(
        host.service().expect("up").now() >= SimTime::from_secs(60 * EPOCHS),
        "recovery must land back at (or past) the driven horizon"
    );

    suite.finish();
}
