//! Online TrustService: streaming ingest, incremental trust updates,
//! bounded-staleness queries, and crash-tolerant checkpoint/restore.
//!
//! The batch layers of this workspace answer "what happens over N
//! rounds"; this crate answers "what does a *deployed* trust service
//! look like". A [`TrustService`] is long-lived: interaction and
//! disclosure events stream in, interleaved with trust and exposure
//! queries on the same simulated clock. Updates are applied as deltas
//! at epoch boundaries (cost proportional to new events, not service
//! age), queries are answered with staleness bounded by one epoch, and
//! the whole service — mid-epoch, mid-partition-window, wherever —
//! snapshots to a versioned binary checkpoint that restores
//! bit-identically.
//!
//! Around the pure service state sit the crash-tolerance layers:
//!
//! - [`EventJournal`] — a segmented, checksummed write-ahead log of
//!   every acknowledged operation: fixed-size sealed segments with
//!   header CRCs and a manifest; a torn or corrupt tail is detected
//!   per segment and only the unacknowledged suffix is lost.
//! - Checkpoints carry a per-section CRC (format v2): a corrupt restore
//!   reports *which* section failed, so recovery can fall back to the
//!   previous checkpoint and replay a longer journal suffix instead of
//!   dying. Each checkpoint embeds its journal cursor, so recovery
//!   opens only post-checkpoint segments and GC keeps disk bounded.
//! - [`ServiceHost`] — the process model: crash (explicit or scheduled
//!   by a [`FaultPlan`](tsn_simnet::FaultPlan)), recover from newest
//!   valid checkpoint + segment-suffix replay, and serve degraded
//!   reads (marked [`Staleness::Degraded`]) during the recovery grace
//!   window.
//! - [`ReplicaSet`] — deterministic state-machine replication: N hosts
//!   fed the same acknowledged op stream through one sequencer, with
//!   per-epoch bit-identical convergence checks and failover that
//!   promotes the healthiest member when the primary dies.
//!
//! [`ServiceDriver`] generates deterministic open-loop workloads
//! against the service, using the same per-`(epoch, node)` RNG-stream
//! discipline as the sharded scenario engine, so a streamed run is
//! bit-identical to the equivalent batch computation. Against a
//! [`ServiceHost`] it adds the client half of fault tolerance: bounded,
//! deterministically jittered retries for operations bounced during an
//! outage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod event;
pub mod host;
pub mod journal;
pub mod replica;
pub mod service;

pub use driver::{DriverConfig, HostDriveReport, ServiceDriver};
pub use event::{ServiceEvent, ServiceOp};
pub use host::{
    ApplyOutcome, HostConfig, HostError, HostState, HostStats, RecoveryReport, ServiceHost,
    StoredCheckpoint,
};
pub use journal::{
    EventJournal, JournalRecord, JournalReplay, JournalScan, JournalSegment, DEFAULT_SEGMENT_BYTES,
};
pub use replica::{FailoverReport, ReplicaConfig, ReplicaSet};
pub use service::{
    checkpoint_cursor, checkpoint_sections, CheckpointSection, EpochSample, ExposureQueryResult,
    IngestOutcome, ServiceConfig, ServiceStats, Staleness, TrustQueryResult, TrustService,
    CHECKPOINT_MAGIC, CHECKPOINT_SECTIONS, CHECKPOINT_VERSION,
};
