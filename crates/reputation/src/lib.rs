//! # tsn-reputation — reputation mechanisms for decentralized networks
//!
//! Implements the *reputation* facet of the `tsn` reproduction, structured
//! after the three basic blocks of Marti & Garcia-Molina's taxonomy
//! (the paper's ref \[15\]):
//!
//! 1. **Information gathering** — [`gathering`]: feedback reports, and the
//!    *disclosure policy* deciding which report fields (rater identity,
//!    outcome detail, context, …) are shared. This is the coupling point
//!    with the privacy facet: Figure 2 of the paper varies exactly this.
//! 2. **Scoring and ranking** — [`mechanism`] defines the common
//!    [`ReputationMechanism`] trait; four mechanisms from the paper's
//!    bibliography are implemented from their original descriptions:
//!    [`eigentrust`] (ref \[13\]), [`beta`] (the classic Bayesian baseline),
//!    [`powertrust`] (ref \[24\]) and [`trustme`] (ref \[20\], anonymous
//!    trust-holders). [`anonymous`] wraps any mechanism with
//!    anonymization (refs \[2\], \[4\]).
//! 3. **Response** — [`response`]: partner-selection policies that act on
//!    scores.
//!
//! [`attack`] provides the adversary vocabulary (malicious, selfish,
//! traitor, colluder) and [`accuracy`] measures mechanism
//! *power* — reliability, efficiency, consistency with reality — which is
//! the paper's "Reputation" axis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod anonymous;
pub mod attack;
pub mod beta;
pub mod eigentrust;
pub mod gathering;
mod local_matrix;
pub mod mechanism;
pub mod powertrust;
pub mod response;
pub mod trustme;
mod walk;

pub use accuracy::{MechanismPower, PowerReport};
pub use anonymous::{AnonymizationConfig, Anonymized};
pub use attack::{Population, PopulationConfig};
pub use beta::BetaReputation;
pub use eigentrust::EigenTrust;
pub use gathering::{DisclosureField, DisclosurePolicy, FeedbackReport, ReportView};
pub use mechanism::{build_mechanism, InteractionOutcome, MechanismKind, ReputationMechanism};
pub use powertrust::PowerTrust;
pub use response::{SelectionPolicy, SelectionScratch};
pub use trustme::TrustMe;
pub use tsn_simnet::NodeId;
