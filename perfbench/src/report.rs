//! The metric catalogue and the one-line JSON result.
//!
//! Every workload reports every end-to-end metric (untraced run) or every
//! per-layer metric (traced run). A per-layer metric whose layer a
//! workload never calls reads 0: that layer did no work there.
//!
//! The failed share of ops is not a metric: it is 0 on a correct run, so
//! it is carried by the result line's `attempted` and `failed` counts.

use crate::measure::Tally;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s_mean", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lu.factor_ms", "ms"),
    ("lu.refactor_ms", "ms"),
    ("lu.solve_ms", "ms"),
    ("lu.factor_calls", "count"),
    ("lu.refactor_calls", "count"),
    ("lu.cached_solves", "count"),
    ("lu.fill_ratio", "ratio"),
    ("lu.full_fallbacks", "count"),
    ("sparse.scatter_ms", "ms"),
    ("mpde.residual_ms", "ms"),
    ("mpde.residual_calls", "count"),
    ("mpde.jacobian_ms", "ms"),
    ("mpde.jacobian_calls", "count"),
    ("circuit.device_eval_ms", "ms"),
    ("newton.iters", "count"),
    ("newton.chord_share", "ratio"),
    ("newton.self_ms", "ms"),
    ("newton.coverage", "ratio"),
    ("dcop.seed_ms", "ms"),
    ("shooting.outer_iters", "count"),
    ("shooting.inner_iters", "count"),
    ("shooting.step_us", "us"),
    ("engine.mpde_batch_ms", "ms"),
    ("engine.hb2_batch_ms", "ms"),
    ("engine.workspace_hit_rate", "ratio"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.solve_ms_p50", "ms"),
    ("service.builder_calls_per_fresh", "count"),
    ("service.fp_cache_hit_rate", "ratio"),
    ("store.hit_rate", "ratio"),
    ("wire.hit_overhead_ms", "ms"),
    ("wire.fresh_overhead_ms", "ms"),
    ("wire.request_ms.submit", "ms"),
    ("wire.request_ms.poll", "ms"),
    ("netlist.parse_ms", "ms"),
    ("serve.fresh_ms_p90", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p90", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Named metric values over one catalogue.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// The end-to-end set: every value must be set before reporting.
    pub fn end_to_end() -> Self {
        Metrics {
            catalogue: END_TO_END,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// The per-layer set: layers a workload does not call read 0.
    pub fn per_layer() -> Self {
        Metrics {
            catalogue: PER_LAYER,
            values: vec![Some(0.0); PER_LAYER.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// `(name, unit, value)` in catalogue order.
    ///
    /// # Panics
    ///
    /// Panics if some end-to-end metric was never set.
    pub fn entries(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.catalogue
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                (
                    *name,
                    *unit,
                    v.unwrap_or_else(|| panic!("metric {name} was not measured")),
                )
            })
            .collect()
    }
}

/// One run's result: the op tally and the metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted and failed (output checks included).
    pub tally: Tally,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A non-finite value (a measurement bug) is written as 0 and makes the
    /// run incorrect, so the line always stays valid JSON.
    pub fn json_line(&self) -> String {
        let entries = self.metrics.entries();
        let finite = entries.iter().all(|(_, _, v)| v.is_finite());
        let metrics: Vec<String> = entries
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0 && finite,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
    }

    #[test]
    fn json_line_marks_failures_incorrect() {
        let mut metrics = Metrics::end_to_end();
        for (name, _) in END_TO_END {
            metrics.set(name, 1.5);
        }
        let ok = Report {
            tally: Tally {
                attempted: 3,
                failed: 0,
            },
            metrics: metrics.clone(),
        };
        assert!(ok
            .json_line()
            .starts_with("{\"correct\": true, \"attempted\": 3"));
        let bad = Report {
            tally: Tally {
                attempted: 3,
                failed: 1,
            },
            metrics,
        };
        assert!(bad.json_line().starts_with("{\"correct\": false"));
    }
}
