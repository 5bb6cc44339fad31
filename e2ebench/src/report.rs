//! Turning one run's measurements into named metrics.

use crate::stats::{self, beyond, max, mean, median, percentile};
use crate::timeline::{Consumer, EpochMark};
use crate::trace::{ms, Trace};
use crate::workload::{Workload, EPOCH_TAIL_PCT};
use std::collections::BTreeMap;
use std::time::Instant;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What the end-to-end metrics are computed from.
pub struct Measured<'a> {
    pub workload: &'a Workload,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub marks: &'a BTreeMap<u64, EpochMark>,
    pub study_ms: Vec<f64>,
    /// Latency of every correct read, ms.
    pub reads: Vec<f64>,
    /// From the start of the measurement to the last correct read.
    pub read_seconds: f64,
}

/// Sample counts behind each percentile, for the run envelope.
#[derive(Default)]
pub struct Samples {
    pub counts: BTreeMap<&'static str, usize>,
}

/// Latency from due time to `consumer` holding the epoch, for every
/// epoch due inside the measurement.
fn arrivals(marks: &BTreeMap<u64, EpochMark>, consumer: Consumer) -> Vec<f64> {
    marks
        .values()
        .filter_map(|m| Some(ms(m.held(consumer)?.saturating_duration_since(m.due?))))
        .collect()
}

impl Measured<'_> {
    pub fn end_to_end(&self, samples: &mut Samples) -> Vec<Metric> {
        let w = self.workload;
        let rtr = arrivals(self.marks, Consumer::Rtr);
        let http = arrivals(self.marks, Consumer::Http);
        let view = arrivals(self.marks, Consumer::View);
        samples.counts.insert("event_to_rtr", rtr.len());
        samples.counts.insert("event_to_http", http.len());
        samples.counts.insert("event_to_view", view.len());
        samples.counts.insert("study_epoch", self.study_ms.len());
        let reads = &self.reads;
        samples.counts.insert("query", reads.len());
        let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let epoch_tail = |v: &[f64]| percentile(v, EPOCH_TAIL_PCT).unwrap_or(f64::NAN);
        vec![
            metric("setup_s", p50(&self.setup_s), "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("event_to_rtr_p50_ms", p50(&rtr), "ms"),
            metric("event_to_rtr_tail_ms", epoch_tail(&rtr), "ms"),
            metric("event_to_http_p50_ms", p50(&http), "ms"),
            metric("event_to_http_tail_ms", epoch_tail(&http), "ms"),
            metric("study_epoch_p50_ms", p50(&self.study_ms), "ms"),
            metric("study_epoch_tail_ms", epoch_tail(&self.study_ms), "ms"),
            metric("query_p50_ms", p50(reads), "ms"),
            metric(
                "query_tail_ms",
                percentile(reads, w.read_tail_pct).unwrap_or(f64::NAN),
                "ms",
            ),
            metric(
                "query_goodput_rps",
                reads.len() as f64 / self.read_seconds,
                "1/s",
            ),
            metric("event_to_view_p50_ms", p50(&view), "ms"),
        ]
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Whether every tail percentile had at least ten samples beyond it.
pub fn tails_supported(w: &Workload, samples: &Samples) -> BTreeMap<&'static str, bool> {
    samples
        .counts
        .iter()
        .map(|(&name, &n)| {
            let pct = match name {
                "query" => w.read_tail_pct,
                _ => EPOCH_TAIL_PCT,
            };
            (name, beyond(n, pct) >= 10.0)
        })
        .collect()
}

/// Scraped from the query plane's `/metrics` and `/status`.
#[derive(Default)]
pub struct Scraped {
    pub shed_total: f64,
    pub timeouts_total: f64,
    pub admission_window: f64,
}

impl Scraped {
    pub fn parse(metrics: &str, status: &str) -> Scraped {
        let counter = |name: &str| -> f64 {
            metrics
                .lines()
                .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .filter_map(|v| v.trim().parse::<f64>().ok())
                .sum()
        };
        let admission = status
            .split("\"admission_window\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0);
        Scraped {
            shed_total: counter("ripki_http_requests_shed_total")
                + counter("ripki_http_connections_shed_total"),
            timeouts_total: counter("ripki_http_read_timeouts_total")
                + counter("ripki_http_write_stall_timeouts_total"),
            admission_window: admission,
        }
    }
}

/// The per-layer metrics of a traced run. `seconds` is the length of
/// the measurement; `rtr_windows` the `[due, router holds]` interval of
/// each epoch, for the span-coverage check.
pub fn per_layer(
    trace: &Trace,
    scraped: &Scraped,
    seconds: f64,
    rtr_windows: &[(Instant, Instant)],
) -> Vec<Metric> {
    // A layer a workload never reached reports 0, not a missing value.
    let d = |name: &str| trace.durations(name);
    let p50 = |name: &str| median(&d(name)).unwrap_or(0.0);
    let avg = |name: &str| mean(trace.count(name)).unwrap_or(0.0);
    let sum = |name: &str| trace.count(name).iter().sum::<f64>();
    let apply = d("engine.apply_events");
    let polls = d("http_target.poll").len() as f64;
    let fetches = d("http_target.fetch").len() as f64;
    let syncs = trace.count("rtr.epochs_per_sync").len() as f64;
    let rtr_path: Vec<&str> = RTR_CALLS.iter().chain(RTR_WAITS).copied().collect();
    let coverage =
        |names: &[&str]| stats::median(&trace.coverage(rtr_windows, names)).unwrap_or(0.0);
    vec![
        metric(
            "engine.apply_events_p50_ms",
            p50("engine.apply_events"),
            "ms",
        ),
        metric(
            "engine.apply_events_tail_ms",
            percentile(&apply, EPOCH_TAIL_PCT).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "engine.domains_remeasured",
            avg("engine.domains_remeasured"),
            "count/epoch",
        ),
        metric(
            "engine.busy_share",
            apply.iter().sum::<f64>() / (seconds * 1e3),
            "ratio",
        ),
        metric(
            "rpki.objects_validated",
            sum("rpki.objects_validated") / apply.len().max(1) as f64,
            "count/epoch",
        ),
        metric(
            "rpki.points_reused_ratio",
            sum("rpki.points_reused") / sum("rpki.points_total").max(1.0),
            "ratio",
        ),
        metric("exposure.curve_ms", p50("exposure.curve"), "ms"),
        metric(
            "exposure.propagations",
            avg("exposure.propagations"),
            "count/epoch",
        ),
        metric("serve.domain_cold_ms", p50("serve.domain_cold"), "ms"),
        metric("serve.domain_warm_ms", p50("serve.domain_warm"), "ms"),
        metric("slurm.ingest_ms", p50("slurm.ingest"), "ms"),
        metric("slurm.incremental_ratio", avg("slurm.incremental"), "ratio"),
        metric("payload.build_ms", p50("payload.build"), "ms"),
        metric("payload.vrps", avg("payload.vrps"), "count"),
        metric("gossip.publish_ms", p50("gossip.publish"), "ms"),
        metric("rtr.notify_wait_ms", p50("rtr.notify_wait"), "ms"),
        metric("rtr.sync_ms", p50("rtr.sync"), "ms"),
        metric(
            "rtr.coalesced_share",
            1.0 - syncs / sum("rtr.epochs_per_sync").max(1.0),
            "ratio",
        ),
        metric("http_target.poll_ms", p50("http_target.poll"), "ms"),
        metric("http_target.fetch_ms", p50("http_target.fetch"), "ms"),
        metric(
            "http_target.body_bytes",
            avg("http_target.body_bytes"),
            "bytes",
        ),
        metric(
            "http_target.not_modified_ratio",
            polls / (polls + fetches).max(1.0),
            "ratio",
        ),
        metric("serve.view_build_ms", p50("serve.view_build"), "ms"),
        metric("serve.publish_ms", p50("serve.publish"), "ms"),
        metric(
            "serve.epoch_lag_max",
            max(trace.count("serve.epoch_lag")).unwrap_or(0.0),
            "count",
        ),
        metric("serve.validity_ms", p50("serve.validity"), "ms"),
        metric("serve.vrps_json_ms", p50("serve.vrps_json"), "ms"),
        metric("serve.shed_total", scraped.shed_total, "count"),
        metric("serve.timeouts_total", scraped.timeouts_total, "count"),
        metric("serve.admission_window", scraped.admission_window, "count"),
        metric(
            "gen.late_p50_ms",
            median(trace.count("gen.late_ms")).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "gen.late_max_ms",
            max(trace.count("gen.late_ms")).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "gen.epoch_late_max_ms",
            max(trace.count("gen.epoch_late_ms")).unwrap_or(0.0),
            "ms",
        ),
        metric("trace.rtr_coverage", coverage(&rtr_path), "ratio"),
        metric("trace.rtr_call_share", coverage(RTR_CALLS), "ratio"),
        metric("trace.rtr_wait_share", coverage(RTR_WAITS), "ratio"),
    ]
}

/// The spans that time a call into a layer on the blocking path from an
/// epoch's due time to the router holding it.
pub const RTR_CALLS: &[&str] = &[
    "engine.apply_events",
    "payload.build",
    "slurm.ingest",
    "gossip.publish",
    "rtr.sync",
];

/// The waits on that path: the writer behind its previous epoch, and the
/// RTR target's connection thread until it sends the Serial Notify.
/// With [`RTR_CALLS`] they meet end to end, so the union covers the
/// whole interval once every stage of an epoch is stamped; the share of
/// the calls alone is what layer work explains.
pub const RTR_WAITS: &[&str] = &["writer.wait", "rtr.notify_wait"];
