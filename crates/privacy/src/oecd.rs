//! The OECD privacy-guideline audit (paper ref \[16\]).
//!
//! The paper lists the eight OECD principles a system "should consider".
//! [`OecdAudit`] evaluates a [`SystemPrivacyProfile`] — a structural
//! description of how a configuration handles personal data — against
//! each principle, yielding a per-principle score and an overall `\[0, 1\]`
//! audit score that feeds the privacy facet.

use std::fmt;

/// The eight OECD privacy principles (1980 guidelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OecdPrinciple {
    /// Data collection is limited to what is needed.
    CollectionLimitation,
    /// Purposes are specified before collection.
    PurposeSpecification,
    /// Use is limited to the specified purposes.
    UseLimitation,
    /// Data kept accurate, complete, up to date.
    DataQuality,
    /// Reasonable security safeguards exist.
    SecuritySafeguards,
    /// Practices and policies are open/visible.
    Openness,
    /// Individuals can access and correct their data.
    IndividualParticipation,
    /// Someone is accountable for compliance.
    Accountability,
}

impl OecdPrinciple {
    /// All eight principles in the guideline's order.
    pub const ALL: [OecdPrinciple; 8] = [
        OecdPrinciple::CollectionLimitation,
        OecdPrinciple::PurposeSpecification,
        OecdPrinciple::UseLimitation,
        OecdPrinciple::DataQuality,
        OecdPrinciple::SecuritySafeguards,
        OecdPrinciple::Openness,
        OecdPrinciple::IndividualParticipation,
        OecdPrinciple::Accountability,
    ];
}

impl fmt::Display for OecdPrinciple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OecdPrinciple::CollectionLimitation => "collection limitation",
            OecdPrinciple::PurposeSpecification => "purpose specification",
            OecdPrinciple::UseLimitation => "use limitation",
            OecdPrinciple::DataQuality => "data quality",
            OecdPrinciple::SecuritySafeguards => "security safeguards",
            OecdPrinciple::Openness => "openness",
            OecdPrinciple::IndividualParticipation => "individual participation",
            OecdPrinciple::Accountability => "accountability",
        };
        f.write_str(s)
    }
}

/// Structural facts about how a system configuration treats personal
/// data; the audit's input. All fractions/levels are in `\[0, 1\]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPrivacyProfile {
    /// Fraction of *potentially collectable* fields the system actually
    /// collects (lower = better collection limitation). The disclosure
    /// policy's exposure maps directly here.
    pub collection_fraction: f64,
    /// Whether every data flow carries a declared purpose.
    pub purposes_declared: bool,
    /// Measured fraction of flows that honoured their declared purpose
    /// (from the ledger; use limitation).
    pub purpose_respect_rate: f64,
    /// Freshness of reputation inputs (aging / retention applied?).
    pub data_quality_controls: bool,
    /// Whether anonymization / noise safeguards are active.
    pub safeguards_active: bool,
    /// Whether policies are user-visible (always true for published PPs).
    pub policies_published: bool,
    /// Whether users can read and update their own policies and data.
    pub user_controls: bool,
    /// Whether breaches are attributed (ledger with causes = yes).
    pub breaches_attributed: bool,
}

impl SystemPrivacyProfile {
    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.collection_fraction) {
            return Err("collection_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.purpose_respect_rate) {
            return Err("purpose_respect_rate must be in [0,1]".into());
        }
        Ok(())
    }
}

/// The audit result.
#[derive(Debug, Clone, PartialEq)]
pub struct OecdAudit {
    scores: Vec<(OecdPrinciple, f64)>,
}

impl OecdAudit {
    /// Audits a profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid; call
    /// [`SystemPrivacyProfile::validate`] first to handle errors.
    pub fn evaluate(profile: &SystemPrivacyProfile) -> Self {
        if let Err(e) = profile.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: new() panics on a profile that validate() rejects; fallible callers validate first")
            panic!("invalid privacy profile: {e}");
        }
        let b = |x: bool| if x { 1.0 } else { 0.0 };
        let scores = vec![
            (
                OecdPrinciple::CollectionLimitation,
                1.0 - profile.collection_fraction,
            ),
            (
                OecdPrinciple::PurposeSpecification,
                b(profile.purposes_declared),
            ),
            (OecdPrinciple::UseLimitation, profile.purpose_respect_rate),
            (OecdPrinciple::DataQuality, b(profile.data_quality_controls)),
            (
                OecdPrinciple::SecuritySafeguards,
                b(profile.safeguards_active),
            ),
            (OecdPrinciple::Openness, b(profile.policies_published)),
            (
                OecdPrinciple::IndividualParticipation,
                b(profile.user_controls),
            ),
            (
                OecdPrinciple::Accountability,
                b(profile.breaches_attributed),
            ),
        ];
        OecdAudit { scores }
    }

    /// Score of one principle, in `\[0, 1\]`.
    pub fn score(&self, principle: OecdPrinciple) -> f64 {
        self.scores
            .iter()
            .find(|(p, _)| *p == principle)
            .map(|(_, s)| *s)
            // tsn-lint: allow(no-unwrap, "the constructor scores all eight principles in order; the audit table is total")
            .expect("all principles are scored")
    }

    /// The overall audit score: unweighted mean over the eight principles
    /// (the guidelines present them as co-equal).
    pub fn overall(&self) -> f64 {
        self.scores.iter().map(|(_, s)| s).sum::<f64>() / self.scores.len() as f64
    }

    /// Iterates `(principle, score)` in guideline order.
    pub fn iter(&self) -> impl Iterator<Item = (OecdPrinciple, f64)> + '_ {
        self.scores.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully compliant profile.
    fn best_practice() -> SystemPrivacyProfile {
        SystemPrivacyProfile {
            collection_fraction: 0.0,
            purposes_declared: true,
            purpose_respect_rate: 1.0,
            data_quality_controls: true,
            safeguards_active: true,
            policies_published: true,
            user_controls: true,
            breaches_attributed: true,
        }
    }

    #[test]
    fn best_practice_scores_one() {
        let audit = OecdAudit::evaluate(&best_practice());
        assert_eq!(audit.overall(), 1.0);
        for p in OecdPrinciple::ALL {
            assert_eq!(audit.score(p), 1.0, "{p}");
        }
    }

    #[test]
    fn worst_case_scores_zero() {
        let profile = SystemPrivacyProfile {
            collection_fraction: 1.0,
            purposes_declared: false,
            purpose_respect_rate: 0.0,
            data_quality_controls: false,
            safeguards_active: false,
            policies_published: false,
            user_controls: false,
            breaches_attributed: false,
        };
        let audit = OecdAudit::evaluate(&profile);
        assert_eq!(audit.overall(), 0.0);
    }

    #[test]
    fn collection_limitation_tracks_exposure() {
        let mut profile = best_practice();
        profile.collection_fraction = 0.6;
        let audit = OecdAudit::evaluate(&profile);
        assert!((audit.score(OecdPrinciple::CollectionLimitation) - 0.4).abs() < 1e-12);
        assert!(audit.overall() < 1.0);
    }

    #[test]
    fn failing_threshold_filters() {
        let mut profile = best_practice();
        profile.safeguards_active = false;
        profile.purpose_respect_rate = 0.3;
        let audit = OecdAudit::evaluate(&profile);
        let failing: Vec<OecdPrinciple> = audit
            .iter()
            .filter(|&(_, score)| score < 0.5)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(
            failing,
            vec![
                OecdPrinciple::UseLimitation,
                OecdPrinciple::SecuritySafeguards
            ]
        );
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let mut profile = best_practice();
        profile.collection_fraction = 1.2;
        assert!(profile.validate().is_err());
        profile.collection_fraction = 0.5;
        profile.purpose_respect_rate = -0.1;
        assert!(profile.validate().is_err());
    }

    #[test]
    fn iter_covers_all_in_order() {
        let audit = OecdAudit::evaluate(&best_practice());
        let principles: Vec<OecdPrinciple> = audit.iter().map(|(p, _)| p).collect();
        assert_eq!(principles, OecdPrinciple::ALL.to_vec());
    }

    #[test]
    fn display_names() {
        assert_eq!(OecdPrinciple::UseLimitation.to_string(), "use limitation");
    }
}
