//! Runtime health guards and the incident taxonomy for the fault-tolerant
//! compile/run chain.
//!
//! A roster run survives three classes of trouble without losing the whole
//! campaign: a model that fails to *compile* (parse, sema, pipeline verify,
//! or bytecode emission), a kernel whose *optimized* bytecode misbehaves,
//! and a simulation whose *state* goes non-finite mid-run. Each recovery
//! step is recorded as an [`Incident`] so the degradation is visible in the
//! run report rather than silent.
//!
//! The execution [`Tier`] ladder is `Native → Optimized → Reference`:
//! dlopen'd machine code compiled from the kernel's own bytecode at the top
//! (entered only by *promotion*, never by a descent), the configured
//! pipeline's bytecode below it, and the scalar reference pipeline
//! ([`crate::PipelineKind::Baseline`]) at the bottom, for when the
//! configured pipeline fails to compile or its step goes non-finite.

use std::fmt;

/// What a [`crate::Simulation`] does when a per-step health check finds a
/// non-finite value in the cell state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HealthPolicy {
    /// Stop immediately and surface the incident as an error. Default:
    /// silent NaN propagation is the worst outcome for a physiology run.
    #[default]
    Abort,
    /// Roll the whole step back, drop one execution tier down
    /// (native → optimized → reference), and re-run the step there. The
    /// post-fallback trajectory is exactly what the lower tier would have
    /// produced from the rolled-back state.
    FallbackRaw,
}

impl fmt::Display for HealthPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthPolicy::Abort => "abort",
            HealthPolicy::FallbackRaw => "fallback-one-tier-down",
        })
    }
}

/// Which rung of the degradation ladder a kernel is running on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Machine code: the kernel's bytecode re-emitted as serial C,
    /// compiled by the system toolchain, and `dlopen`'d. Entered only by
    /// promotion from [`Tier::Optimized`] after a probation run proves
    /// bit-identity; every failure falls back to `Optimized`.
    Native,
    /// Bytecode of the configured pipeline's module.
    Optimized,
    /// The scalar reference pipeline ([`crate::PipelineKind::Baseline`]),
    /// recompiled from the model source.
    Reference,
}

impl Tier {
    /// The next rung down, or `None` from [`Tier::Reference`].
    pub fn next_down(self) -> Option<Tier> {
        match self {
            Tier::Native => Some(Tier::Optimized),
            Tier::Optimized => Some(Tier::Reference),
            Tier::Reference => None,
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Native => "native",
            Tier::Optimized => "optimized",
            Tier::Reference => "reference",
        })
    }
}

/// The category of a recorded [`Incident`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IncidentKind {
    /// The model source failed to parse or analyze.
    FrontendError,
    /// A per-step health check found a non-finite state value.
    NonFiniteState,
    /// The kernel-cache mutex was found poisoned and recovered.
    CachePoisonRecovered,
    /// Execution dropped one tier on the degradation ladder.
    TierFallback,
    /// A model was served from (or newly placed in) quarantine.
    Quarantined,
    /// An on-disk cache entry failed an integrity check (corruption,
    /// truncation, stale version, unparseable payload) and was discarded;
    /// the lookup degraded to a cold compile.
    DiskCacheRejected,
    /// The disk cache tier itself misbehaved (lock timeout, write
    /// failure); the run continued in-memory only.
    DiskCacheDegraded,
    /// The system C toolchain failed (or was missing) while building a
    /// native shared object; the kernel stays on bytecode.
    NativeCcFail,
    /// A built native shared object could not be loaded (`dlopen` or
    /// symbol resolution failed); the kernel stays on bytecode.
    NativeDlopenFail,
    /// A native kernel's probation run diverged bitwise from the bytecode
    /// tier; the native slot was quarantined and never persisted.
    NativeDivergent,
    /// A kernel was promoted to the native tier (compiled or warm-loaded).
    NativePromoted,
    /// A job's wall-clock budget expired (or it was explicitly
    /// cancelled): the run stopped cooperatively at a step boundary, so
    /// the state is whole up to the last completed step.
    DeadlineExceeded,
    /// The native `cc` compile exceeded its watchdog timeout; the child
    /// process was killed and the kernel quarantined on bytecode.
    NativeCcTimeout,
}

impl IncidentKind {
    /// Stable kebab-case label used in reports and test assertions.
    pub fn as_str(self) -> &'static str {
        match self {
            IncidentKind::FrontendError => "frontend-error",
            IncidentKind::NonFiniteState => "non-finite-state",
            IncidentKind::CachePoisonRecovered => "cache-poison-recovered",
            IncidentKind::TierFallback => "tier-fallback",
            IncidentKind::Quarantined => "quarantined",
            IncidentKind::DiskCacheRejected => "disk-cache-rejected",
            IncidentKind::DiskCacheDegraded => "disk-cache-degraded",
            IncidentKind::NativeCcFail => "cc-fail",
            IncidentKind::NativeDlopenFail => "dlopen-fail",
            IncidentKind::NativeDivergent => "native-divergent",
            IncidentKind::NativePromoted => "native-promoted",
            IncidentKind::DeadlineExceeded => "deadline-exceeded",
            IncidentKind::NativeCcTimeout => "cc-timeout",
        }
    }
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded recovery (or failure) event. Incidents accumulate next to
/// the pass report: [`crate::Simulation::incidents`] for per-run events and
/// [`crate::KernelCache::incidents`] for compile-time events.
#[derive(Clone, Debug)]
pub struct Incident {
    /// What happened.
    pub kind: IncidentKind,
    /// The model involved, when known.
    pub model: String,
    /// Simulation step at which the incident fired (runtime incidents only).
    pub step: Option<usize>,
    /// The tier execution moved *to*, for fallback incidents.
    pub tier: Option<Tier>,
    /// Human-readable description (underlying error text, variable names…).
    pub detail: String,
}

impl Incident {
    /// Builds an incident with no step or tier annotation.
    pub fn new(
        kind: IncidentKind,
        model: impl Into<String>,
        detail: impl Into<String>,
    ) -> Incident {
        Incident {
            kind,
            model: model.into(),
            step: None,
            tier: None,
            detail: detail.into(),
        }
    }

    /// Annotates the simulation step the incident fired at.
    #[must_use]
    pub fn at_step(mut self, step: usize) -> Incident {
        self.step = Some(step);
        self
    }

    /// Annotates the tier execution moved to.
    #[must_use]
    pub fn to_tier(mut self, tier: Tier) -> Incident {
        self.tier = Some(tier);
        self
    }
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] model '{}'", self.kind, self.model)?;
        if let Some(step) = self.step {
            write!(f, " at step {step}")?;
        }
        if let Some(tier) = self.tier {
            write!(f, " -> tier {tier}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Collapses a raw incident list into `(representative, count)` groups
/// for display. Incidents are grouped by kind, model, tier, and detail —
/// the step is ignored, since a per-step incident repeating for hundreds
/// of steps is one story, not hundreds — and sorted by model, then kind,
/// then detail. Multi-occurrence groups drop the (now meaningless)
/// step annotation from the representative.
pub fn summarize_incidents(incidents: &[Incident]) -> Vec<(Incident, usize)> {
    let mut groups: Vec<(Incident, usize)> = Vec::new();
    for incident in incidents {
        match groups.iter_mut().find(|(rep, _)| {
            rep.kind == incident.kind
                && rep.model == incident.model
                && rep.tier == incident.tier
                && rep.detail == incident.detail
        }) {
            Some((_, count)) => *count += 1,
            None => groups.push((incident.clone(), 1)),
        }
    }
    for (rep, count) in &mut groups {
        if *count > 1 {
            rep.step = None;
        }
    }
    groups.sort_by(|(a, _), (b, _)| {
        (a.model.as_str(), a.kind.as_str(), a.detail.as_str()).cmp(&(
            b.model.as_str(),
            b.kind.as_str(),
            b.detail.as_str(),
        ))
    });
    groups
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The machine-readable twin of [`summarize_incidents`]: a JSON array of
/// `(representative, count)` groups, each with the kind's stable
/// kebab-case label, the model, the optional step/tier annotations
/// (`null` when absent), the detail text, and the occurrence count.
/// Served by `figures --cache stat --json` and `limpet-serve`'s `stats`
/// verb so telemetry consumers stop parsing the pretty-printer.
pub fn incidents_json(incidents: &[Incident]) -> String {
    let mut out = String::from("[");
    for (i, (rep, count)) in summarize_incidents(incidents).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let step = rep
            .step
            .map_or_else(|| "null".to_owned(), |s| s.to_string());
        let tier = rep
            .tier
            .map_or_else(|| "null".to_owned(), |t| format!("\"{t}\""));
        out.push_str(&format!(
            "{{\"kind\":\"{}\",\"model\":\"{}\",\"step\":{},\"tier\":{},\"detail\":\"{}\",\"count\":{}}}",
            rep.kind.as_str(),
            json_escape(&rep.model),
            step,
            tier,
            json_escape(&rep.detail),
            count
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ladder_descends_to_reference() {
        assert_eq!(Tier::Native.next_down(), Some(Tier::Optimized));
        assert_eq!(Tier::Optimized.next_down(), Some(Tier::Reference));
        assert_eq!(Tier::Reference.next_down(), None);
    }

    #[test]
    fn incident_display_includes_annotations() {
        let i = Incident::new(IncidentKind::NonFiniteState, "HodgkinHuxley", "Vm went NaN")
            .at_step(17)
            .to_tier(Tier::Reference);
        let s = i.to_string();
        assert!(s.contains("non-finite-state"), "{s}");
        assert!(s.contains("HodgkinHuxley"), "{s}");
        assert!(s.contains("step 17"), "{s}");
        assert!(s.contains("tier reference"), "{s}");
    }

    #[test]
    fn default_policy_is_abort() {
        assert_eq!(HealthPolicy::default(), HealthPolicy::Abort);
    }

    #[test]
    fn summarize_groups_repeats_and_sorts() {
        let mut incidents = Vec::new();
        for step in [3, 4, 5] {
            incidents.push(
                Incident::new(IncidentKind::NonFiniteState, "Zebra", "Vm went NaN").at_step(step),
            );
        }
        incidents.push(Incident::new(
            IncidentKind::Quarantined,
            "Aardvark",
            "verify failed",
        ));
        let summary = summarize_incidents(&incidents);
        assert_eq!(summary.len(), 2);
        // Sorted by model: Aardvark first.
        assert_eq!(summary[0].0.model, "Aardvark");
        assert_eq!(summary[0].1, 1);
        assert_eq!(summary[1].1, 3, "per-step repeats collapse into a count");
        assert_eq!(
            summary[1].0.step, None,
            "a collapsed group has no single step"
        );
        // Different details stay distinct groups.
        let distinct = summarize_incidents(&[
            Incident::new(IncidentKind::Quarantined, "M", "a"),
            Incident::new(IncidentKind::Quarantined, "M", "b"),
        ]);
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn incidents_json_groups_and_escapes() {
        let incidents = [
            Incident::new(IncidentKind::TierFallback, "M", "quote \" and\nnewline")
                .at_step(7)
                .to_tier(Tier::Reference),
            Incident::new(IncidentKind::TierFallback, "M", "quote \" and\nnewline")
                .at_step(8)
                .to_tier(Tier::Reference),
        ];
        let json = incidents_json(&incidents);
        assert_eq!(
            json,
            "[{\"kind\":\"tier-fallback\",\"model\":\"M\",\"step\":null,\
             \"tier\":\"reference\",\"detail\":\"quote \\\" and\\nnewline\",\"count\":2}]"
        );
        assert_eq!(incidents_json(&[]), "[]");
    }
}
