//! # tsn — Trust your Social Network
//!
//! Facade crate for the reproduction of *"Trust your Social Network
//! According to Satisfaction, Reputation and Privacy"* (Busnel,
//! Serrano-Alvarado, Lamarre, 2010).
//!
//! The workspace implements the fully decentralized social network the
//! paper argues for, plus the three facets the paper couples together:
//!
//! * [`simnet`] — deterministic P2P network substrate (transport,
//!   churn, dynamics, faults, membership overlay);
//! * [`graph`] — social-graph generators and metrics;
//! * [`reputation`] — EigenTrust, Beta, PowerTrust, TrustMe-style
//!   mechanisms, anonymized variants and adversary models;
//! * [`privacy`] — P3P/PriServ-style privacy policies, enforcement,
//!   OECD audit, disclosure ledger;
//! * [`protocol`] — gossip and DHT-manager protocols realizing the
//!   reputation facet fully decentralized over the simulator;
//! * [`satisfaction`] — the Quiané-Ruiz adequacy/satisfaction model;
//! * [`core`] — the paper's contribution: the three facet scores, the
//!   combined trust metric, the Section-3 interaction dynamics, and the
//!   settings optimizer;
//! * [`service`] — the online mode: a long-lived [`service::TrustService`]
//!   with streaming ingest, incremental (delta) trust updates,
//!   bounded-staleness queries and bit-identical checkpoint/restore.
//!
//! See `examples/quickstart.rs` for a end-to-end tour and DESIGN.md for
//! the full system inventory.

#![forbid(unsafe_code)]

pub use tsn_core as core;
pub use tsn_graph as graph;
pub use tsn_privacy as privacy;
pub use tsn_protocol as protocol;
pub use tsn_reputation as reputation;
pub use tsn_satisfaction as satisfaction;
pub use tsn_service as service;
pub use tsn_simnet as simnet;

/// Commonly used items, for `use tsn::prelude::*`.
pub mod prelude {
    pub use tsn_core::runner::{
        DisclosureLevel, Observer, ProgressPrinter, ScenarioBuilder, SeriesRecorder, SweepGrid,
        SweepReport, SweepRunner, ValidationError,
    };
    pub use tsn_core::{
        FacetScores, FacetWeights, Scenario, ScenarioConfig, ScenarioOutcome, TrustMetric,
    };
    pub use tsn_reputation::MechanismKind;
    pub use tsn_service::{
        DriverConfig, HostConfig, ServiceConfig, ServiceDriver, ServiceEvent, ServiceHost,
        ServiceOp, Staleness, TrustService,
    };
    pub use tsn_simnet::{
        DynamicsPlan, DynamicsRuntime, FaultInjector, FaultPlan, NodeId, PartitionWindow,
        SimDuration, SimRng, SimTime,
    };
}
