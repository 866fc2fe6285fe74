//! Serializable refinement-job specifications.
//!
//! A [`JobSpec`] is the complete wire form of one refinement job as
//! submitted to the job server: which tenant owns it, which design to
//! build ([`DesignSpec`] resolved through the server's builder
//! registry), which scenarios to sweep, and how to drive the flow
//! ([`FlowSpec`]: backend, cache, shard count, budgets, retry
//! attempts). The spec is plain data — the same spec always
//! reconstructs the same [`RefinementFlow`] configuration, which is
//! what makes crash recovery bit-identical: a recovered job re-runs
//! from its journaled spec, not from in-memory state.

use std::time::Duration;

use fixref_obs::json::JsonError;
use fixref_sim::{DesignSpec, ScenarioSet, SpecError};

use crate::flow::{RefinementFlow, RunBudget, SimBackend};

/// How to drive the refinement flow for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Evaluation backend name: `"interpreted"` or `"compiled"`.
    pub backend: String,
    /// Whether to enable the cross-iteration evaluation cache.
    pub cache: bool,
    /// Shard count for swept runs; `0` runs the sequential flow over
    /// the first scenario only.
    pub shards: usize,
    /// Simulation budget (`None` = unbounded).
    pub max_simulations: Option<u64>,
    /// Wall-clock budget in milliseconds (`None` = unbounded).
    pub wall_ms: Option<u64>,
    /// Worker attempts per shard before the job's fault policy gives
    /// up (1 = no retries).
    pub max_attempts: usize,
    /// Signals to force onto the saturation path before the flow runs
    /// (the paper's knowledge-based hints, e.g. the timing loop's
    /// feedback signals). Unknown names are rejected at job start.
    pub force_saturate: Vec<String>,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            backend: "interpreted".into(),
            cache: false,
            shards: 0,
            max_simulations: None,
            wall_ms: None,
            max_attempts: 1,
            force_saturate: Vec::new(),
        }
    }
}

impl FlowSpec {
    /// The parsed [`SimBackend`] this spec names.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unknown backend name.
    pub fn sim_backend(&self) -> Result<SimBackend, SpecError> {
        match self.backend.as_str() {
            "interpreted" => Ok(SimBackend::Interpreted),
            "compiled" => Ok(SimBackend::Compiled),
            other => Err(SpecError::new(format!(
                "flow spec: unknown backend {other:?} (expected interpreted or compiled)"
            ))),
        }
    }

    /// Applies the spec to a freshly constructed flow: backend and run
    /// budget. The `cache` flag is left to the caller (sequential runs
    /// enable it on the flow, swept runs on the sweep driver), as are
    /// shard count and retry attempts.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unknown backend name.
    pub fn configure(&self, flow: &mut RefinementFlow) -> Result<(), SpecError> {
        flow.set_backend(self.sim_backend()?);
        let mut budget = RunBudget::default();
        if let Some(max) = self.max_simulations {
            budget = RunBudget::simulations(max);
        }
        if let Some(ms) = self.wall_ms {
            budget.wall = Some(Duration::from_millis(ms));
        }
        if budget.wall.is_some() || budget.max_simulations.is_some() {
            flow.set_budget(budget);
        }
        Ok(())
    }

    /// The checks run after decoding: the backend name is validated
    /// eagerly (a bad spec is rejected at admission, not mid-run) and
    /// `max_attempts` is clamped to at least one.
    fn validated(mut self) -> Result<Self, JsonError> {
        self.sim_backend()
            .map_err(|e| JsonError::decode(e.message).at("backend"))?;
        self.max_attempts = self.max_attempts.max(1);
        Ok(self)
    }
}

fixref_obs::json_struct! {
    FlowSpec {
        backend = FlowSpec::default().backend,
        cache = false,
        shards = 0,
        max_simulations,
        wall_ms,
        max_attempts = 1,
        force_saturate = Vec::new(),
    } then FlowSpec::validated
}

/// One refinement job, in serializable form.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (fair-share scheduling key).
    pub tenant: String,
    /// Which design to build.
    pub design: DesignSpec,
    /// Scenario set to sweep (or whose first scenario to run
    /// sequentially when `flow.shards == 0`).
    pub scenarios: ScenarioSet,
    /// Flow configuration.
    pub flow: FlowSpec,
}

impl JobSpec {
    /// A job for `tenant` over `design` and `scenarios` with default
    /// flow settings.
    pub fn new(tenant: impl Into<String>, design: DesignSpec, scenarios: ScenarioSet) -> Self {
        JobSpec {
            tenant: tenant.into(),
            design,
            scenarios,
            flow: FlowSpec::default(),
        }
    }

    /// Replaces the flow configuration.
    pub fn with_flow(mut self, flow: FlowSpec) -> Self {
        self.flow = flow;
        self
    }

    /// The checks run after decoding: a job names its tenant and
    /// sweeps at least one scenario.
    fn validated(self) -> Result<Self, JsonError> {
        if self.tenant.is_empty() {
            return Err(JsonError::decode("must be non-empty").at("tenant"));
        }
        if self.scenarios.is_empty() {
            return Err(JsonError::decode("must be non-empty").at("scenarios"));
        }
        Ok(self)
    }
}

fixref_obs::json_struct! {
    JobSpec: SpecError { tenant, design, scenarios, flow = FlowSpec::default() }
    then JobSpec::validated
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec::new(
            "acme",
            DesignSpec::new("lms")
                .with_input_dtype("<7,5,tc,st,rd>")
                .with_param("mu", 0.05),
            ScenarioSet::grid(&[1, 2], &[28.0], &[], &[400]),
        )
        .with_flow(FlowSpec {
            backend: "compiled".into(),
            cache: true,
            shards: 2,
            max_simulations: Some(12),
            wall_ms: Some(60_000),
            max_attempts: 3,
            force_saturate: vec!["terr".into(), "lp".into()],
        })
    }

    #[test]
    fn malformed_job_specs_are_rejected_at_parse_time() {
        assert!(JobSpec::from_json("[]").is_err());
        assert!(
            JobSpec::from_json(r#"{"tenant":"","design":{"kind":"lms"},"scenarios":[]}"#).is_err()
        );
        let no_scenarios = r#"{"tenant":"t","design":{"kind":"lms"},"scenarios":[]}"#;
        assert!(JobSpec::from_json(no_scenarios).is_err());
        for backend in ["gpu", "batched"] {
            let bad_backend = format!(
                r#"{{"tenant":"t","design":{{"kind":"lms"}},
                "scenarios":[{{"seed":1,"snr_db":28,"channel_taps":[],"samples":4}}],
                "flow":{{"backend":"{backend}"}}}}"#
            );
            let err = JobSpec::from_json(&bad_backend).expect_err("unknown backend");
            assert!(
                err.to_string().contains("expected interpreted or compiled"),
                "{err}"
            );
        }
    }

    #[test]
    fn flow_spec_configures_a_flow() {
        use crate::policy::RefinePolicy;
        use fixref_sim::Design;

        let spec = sample();
        let d = Design::new();
        d.sig("x");
        let mut flow = RefinementFlow::new(d, RefinePolicy::default());
        spec.flow.configure(&mut flow).expect("valid backend");
        assert_eq!(flow.backend(), SimBackend::Compiled);

        let bad = FlowSpec {
            backend: "quantum".into(),
            ..FlowSpec::default()
        };
        assert!(bad.sim_backend().is_err());
    }

    #[test]
    fn max_attempts_is_clamped_to_at_least_one() {
        let text = r#"{"tenant":"t","design":{"kind":"lms"},
            "scenarios":[{"seed":1,"snr_db":28,"channel_taps":[],"samples":4}],
            "flow":{"max_attempts":0}}"#;
        let spec = JobSpec::from_json(text).expect("parses");
        assert_eq!(spec.flow.max_attempts, 1);
    }

    #[test]
    fn an_absent_flow_takes_the_defaults() {
        let text = r#"{"tenant":"t","design":{"kind":"timing"},
            "scenarios":[{"seed":7,"snr_db":20,"channel_taps":[],"samples":100}]}"#;
        let spec = JobSpec::from_json(text).expect("parses");
        assert_eq!(spec.flow, FlowSpec::default());
        assert_eq!(spec.scenarios, ScenarioSet::single(7, 20.0, 100));
    }
}
