//! Prometheus-style text exposition of a [`ServeStats`] snapshot.
//!
//! The `metrics` wire verb serves this text (plus the front-end series
//! the TCP server appends — see `wire.rs`); `docs/observability.md`
//! documents every series emitted here, and a contract test in
//! `tests/sharding.rs` keeps the two in sync.
//!
//! The format is the subset of the Prometheus text exposition that any
//! scraper understands: `# TYPE` lines followed by
//! `name{label="value",…} value` samples, one per line. Latency
//! histograms are exposed summary-style — `quantile` labels plus
//! `_sum`/`_count` — in **milliseconds**, per shard (`shard="0"`, …)
//! and aggregated (`shard="all"`).

use std::fmt::Write;

use rfsim_numerics::telemetry::LatencyHistogram;

use crate::service::{LatencySnapshot, QueueCounters, ServeStats};
use crate::spec::BackendKind;

/// The quantiles every latency summary exposes.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Appends one `name{labels} value` sample line. Integral values print
/// without a fraction so counters stay exact to the eye.
pub(crate) fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (key, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{key}=\"{val}\"");
        }
        out.push('}');
    }
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        let _ = writeln!(out, " {}", value as i64);
    } else {
        let _ = writeln!(out, " {value:.6}");
    }
}

/// Appends one `# TYPE` metadata line.
pub(crate) fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one summary block (quantiles + `_sum` + `_count`) carrying
/// one `key="val"` label, converting nanoseconds to milliseconds. Also
/// used by the front-end for its per-verb request summaries.
pub(crate) fn summary_labelled(
    out: &mut String,
    name: &str,
    key: &str,
    val: &str,
    histogram: &LatencyHistogram,
) {
    for (q, label) in QUANTILES {
        sample(
            out,
            name,
            &[(key, val), ("quantile", label)],
            histogram.quantile(q) / 1e6,
        );
    }
    sample(
        out,
        &format!("{name}_sum"),
        &[(key, val)],
        histogram.sum_ns() as f64 / 1e6,
    );
    sample(
        out,
        &format!("{name}_count"),
        &[(key, val)],
        histogram.count() as f64,
    );
}

/// Appends one summary block for one shard label.
fn summary_block(out: &mut String, name: &str, shard: &str, histogram: &LatencyHistogram) {
    summary_labelled(out, name, "shard", shard, histogram);
}

/// Renders `stats` as Prometheus-style exposition text.
///
/// Served by the `metrics` wire verb; the TCP front-end appends its own
/// `rfsim_frontend_*` series after this block.
pub fn exposition(stats: &ServeStats) -> String {
    let mut out = String::new();

    type_line(&mut out, "rfsim_uptime_ms", "gauge");
    sample(&mut out, "rfsim_uptime_ms", &[], stats.uptime_ms as f64);
    type_line(&mut out, "rfsim_stats_generation", "counter");
    sample(
        &mut out,
        "rfsim_stats_generation",
        &[],
        stats.stats_generation as f64,
    );

    // Latency summaries: aggregate first, then per shard.
    type LatencyPick = fn(&LatencySnapshot) -> &LatencyHistogram;
    let latency: [(&str, LatencyPick); 3] = [
        ("rfsim_queue_wait_ms", |l| &l.queue_wait),
        ("rfsim_solve_ms", |l| &l.solve),
        ("rfsim_e2e_ms", |l| &l.e2e),
    ];
    for (name, pick) in latency {
        type_line(&mut out, name, "summary");
        summary_block(&mut out, name, "all", pick(&stats.latency));
        for shard in &stats.shards {
            summary_block(
                &mut out,
                name,
                &shard.shard.to_string(),
                pick(&shard.latency),
            );
        }
    }

    type_line(&mut out, "rfsim_queue_depth", "gauge");
    for shard in &stats.shards {
        let label = shard.shard.to_string();
        sample(
            &mut out,
            "rfsim_queue_depth",
            &[("shard", &label)],
            shard.queue_depth as f64,
        );
    }
    type_line(&mut out, "rfsim_queue_capacity", "gauge");
    for shard in &stats.shards {
        let label = shard.shard.to_string();
        sample(
            &mut out,
            "rfsim_queue_capacity",
            &[("shard", &label)],
            shard.queue_capacity as f64,
        );
    }

    // Per-backend job counters, aggregated across shards.
    type CounterPick = fn(&QueueCounters) -> usize;
    let jobs: [(&str, CounterPick); 8] = [
        ("rfsim_jobs_submitted_total", |q| q.submitted),
        ("rfsim_jobs_memo_hits_total", |q| q.memo_hits),
        ("rfsim_jobs_coalesced_total", |q| q.coalesced),
        ("rfsim_solves_total", |q| q.solves),
        ("rfsim_jobs_completed_total", |q| q.completed),
        ("rfsim_jobs_failed_total", |q| q.failed),
        ("rfsim_jobs_cancelled_total", |q| q.cancelled),
        ("rfsim_jobs_rejected_total", |q| q.rejected),
    ];
    for (name, pick) in jobs {
        type_line(&mut out, name, "counter");
        for kind in BackendKind::ALL {
            let queue = stats.counters.queue(kind);
            sample(
                &mut out,
                name,
                &[("backend", kind.label())],
                pick(&queue) as f64,
            );
        }
    }

    // Solution store.
    for (name, kind, value) in [
        ("rfsim_store_hits_total", "counter", stats.store.hits),
        ("rfsim_store_misses_total", "counter", stats.store.misses),
        (
            "rfsim_store_insertions_total",
            "counter",
            stats.store.insertions,
        ),
        (
            "rfsim_store_evictions_total",
            "counter",
            stats.store.evictions,
        ),
        ("rfsim_store_len", "gauge", stats.store_len),
        ("rfsim_store_capacity", "gauge", stats.store_capacity),
    ] {
        type_line(&mut out, name, kind);
        sample(&mut out, name, &[], value as f64);
    }

    // Engine workspace/factorisation counters.
    for (name, value) in [
        ("rfsim_engine_workspace_hits_total", stats.engine_cache.hits),
        (
            "rfsim_engine_workspace_misses_total",
            stats.engine_cache.misses,
        ),
        (
            "rfsim_engine_full_factorizations_total",
            stats.solver.full_factorizations,
        ),
        (
            "rfsim_engine_refactorizations_total",
            stats.solver.refactorizations,
        ),
    ] {
        type_line(&mut out, name, "counter");
        sample(&mut out, name, &[], value as f64);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, SimService};
    use crate::spec::JobSpec;

    #[test]
    fn every_sample_line_parses() {
        let service = SimService::start(ServeConfig {
            threads: 1,
            ..Default::default()
        });
        let spec = JobSpec {
            n1: 8,
            n2: 4,
            ..JobSpec::mpde("diode_clipper", 1e6, vec![0.1], vec![10e3])
        };
        let id = service.submit(&spec).expect("submit");
        service
            .wait(id, std::time::Duration::from_secs(30))
            .expect("settle");
        let text = exposition(&service.stats());
        let mut samples = 0usize;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "metadata line: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "numeric value: {line}");
            let name = series.split('{').next().expect("series name");
            assert!(
                name.starts_with("rfsim_")
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "well-formed name: {line}"
            );
            samples += 1;
        }
        assert!(samples > 40, "rich exposition, got {samples} samples");
        // A completed solve leaves non-zero latency counts.
        assert!(
            text.contains("rfsim_e2e_ms_count{shard=\"all\"} 1"),
            "{text}"
        );
    }
}
