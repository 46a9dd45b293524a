//! What all five workloads share: the metric tables, the set-up / warm-up
//! / timed-loop driver, the sample recorder, the per-layer figures that
//! come straight from spans, and the printed result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::stats::{self, Pass};
use crate::trace::{Span, Tracer};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the earlier value by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` declares them.  The share
/// of failed ops is not among them because a metric may never read 0: it
/// is the `failed` / `attempted` pair of the result, and any failure
/// makes the run incorrect.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_geomean_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// Every per-layer metric with its unit.  Each traced run prints all of
/// them; one that reads 0 belongs to a layer the workload does not enter
/// (or, for an exponent, to a workload with a single document size).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("dom.parse.us", "us"),
    ("dom.parse.mb_per_s", "MB/s"),
    ("dom.parse.data_exponent", "exponent"),
    ("dom.prepare.us", "us"),
    ("dom.prepare.ns_per_node", "ns"),
    ("dom.prepare.data_exponent", "exponent"),
    ("dom.serialize.us", "us"),
    ("dom.serialize.mb_per_s", "MB/s"),
    ("syntax.parse.us", "us"),
    ("core.compile.us", "us"),
    ("core.lower.us", "us"),
    ("core.plan_cache.hit_rate", "ratio"),
    ("core.exec.linear.us", "us"),
    ("core.exec.linear.ns_per_node", "ns"),
    ("core.exec.linear.data_exponent", "exponent"),
    ("core.exec.cvt.us", "us"),
    ("core.exec.cvt.ns_per_node", "ns"),
    ("core.exec.cvt.data_exponent", "exponent"),
    ("core.exec.cvt.table_entries", "count"),
    ("core.exec.ss.us", "us"),
    ("core.exec.ss.ns_per_node", "ns"),
    ("core.exec.ss.data_exponent", "exponent"),
    ("core.exec.ss.evaluations", "count"),
    ("core.exec.evaluations_per_result", "ratio"),
    ("backends.lazy.tokenize.us", "us"),
    ("backends.lazy.materialize.us", "us"),
    ("backends.lazy.materialized_share", "ratio"),
    ("backends.snapshot.open.us", "us"),
    ("backends.snapshot.decode.us", "us"),
    ("backends.snapshot.bytes_per_xml_byte", "ratio"),
    ("catalog.insert.us", "us"),
    ("catalog.evaluate_hit.us", "us"),
    ("catalog.evaluate_miss.us", "us"),
    ("catalog.artifact_hit_rate", "ratio"),
    ("catalog.resolve_hit_rate", "ratio"),
    ("catalog.artifacts_killed_per_write", "count"),
    ("serve.submit.us", "us"),
    ("serve.queue_wait.p50_us", "us"),
    ("serve.exec.p50_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.rejected", "count"),
    ("live.edit.us", "us"),
    ("live.renumber_share", "ratio"),
    ("harness.self_share", "ratio"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.p95_geomean_us", "us"),
];

pub const WORKLOADS: [&str; 5] = [
    "first_answer",
    "warm_core",
    "warm_xpath",
    "warm_pwf",
    "serve_mixed",
];

/// The timed loop runs in this many epochs, each on state set up afresh.
/// Two things move a whole epoch: where its documents and hash tables
/// happen to land in memory (several percent, for the life of that state)
/// and what the runner's neighbours are doing (up to a third, for seconds
/// at a time).  Each end-to-end figure is taken per epoch and reported as
/// the quartile over epochs on the fast side ([`stats::fast_quartile`]).
const EPOCHS: usize = 8;
/// `setup_s` is that quartile over one set-up per epoch and, before the
/// first epoch, over as many more as fit into `SETUP_TIME` (up to
/// `MAX_SETUPS`): a set-up of a few milliseconds needs many repetitions.
const MAX_SETUPS: usize = 100;
const SETUP_TIME: Duration = Duration::from_millis(750);
/// Discarded passes before the timed ones, shared out over the epochs, on
/// top of each set-up's own warming pass: lets the clock speed and the
/// allocator settle.
const WARMUP: Duration = Duration::from_secs(2);
/// Passes run right after the first set-up, before `peak_rss_mb` is read:
/// a fixed amount of work, so that the figure does not depend on how many
/// ops the runner lets a run fit into its time.
const RSS_PASSES: usize = 5;
/// Fewer samples than this in a class and its percentiles mean little.
pub const MIN_CLASS_SAMPLES: usize = 200;

/// A generated document as the spans refer to it.
#[derive(Clone, Debug)]
pub struct DocInfo {
    pub nodes: usize,
    pub xml_bytes: usize,
}

/// One (query, document[, backend | op kind]) pair.
#[derive(Clone, Debug)]
pub struct ClassInfo {
    pub name: String,
    /// Groups the classes of one query across document sizes; empty when
    /// the class mixes queries (`serve_mixed`).
    pub query: &'static str,
    /// Index into the workload's documents.
    pub doc: usize,
    /// Bytes of the serialized answer (0 when it varies).
    pub answer_bytes: usize,
}

pub type Metrics = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// The clock a request's latency is taken on.
    fn clock(&self) -> Clock {
        Clock::Thread
    }
    fn docs(&self) -> Vec<DocInfo>;
    fn classes(&self) -> Vec<ClassInfo>;
    /// Builds from the generated inputs everything the timed loop needs
    /// and warms it with one pass' worth of requests, dropping whatever an
    /// earlier set-up built.
    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String>;
    /// Runs every class once (`serve_mixed`: one block of its schedule),
    /// recording each op, and returns the ops run and the time they took.
    fn pass(&mut self, tracer: &mut Tracer, recorder: &mut Recorder) -> Pass;
    /// Called between warm-up and the timed loop: counters start here.
    fn mark(&mut self);
    /// Stops whatever the workload started and adds the per-layer figures
    /// that come from the system's counters rather than from spans.
    fn finish(&mut self, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String>;
}

#[derive(Default)]
pub struct Recorder {
    /// Per class, the latency in µs of every op.
    pub latencies: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    pub fn new(classes: usize) -> Self {
        Recorder {
            latencies: vec![Vec::new(); classes],
            ..Recorder::default()
        }
    }

    pub fn record(&mut self, class: u32, latency: Duration, ok: bool) {
        self.latencies[class as usize].push(latency.as_secs_f64() * 1e6);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One stretch of the timed loop on state of its own.
pub struct Epoch {
    pub recorder: Recorder,
    /// Passes with tracing off; the end-to-end figures come from these.
    plain: Vec<Pass>,
    /// Passes with tracing on (`--trace 1` only).
    spanned: Vec<Pass>,
}

pub struct Outcome {
    pub epochs: Vec<Epoch>,
    pub classes: Vec<ClassInfo>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// CPU time of the process over wall time, both summed over the timed
    /// loops: how much of the time the runner let the benchmark run.
    pub on_cpu_share: f64,
    /// `--trace 1` only.
    pub layers: Metrics,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.epochs.iter().map(|e| e.recorder.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.epochs.iter().map(|e| e.recorder.failed).sum()
    }

    /// Every latency of the class, all epochs together.
    pub fn latencies(&self, class: usize) -> Vec<f64> {
        self.epochs
            .iter()
            .flat_map(|e| e.recorder.latencies[class].iter().copied())
            .collect()
    }

    /// Each epoch's own `(ops_per_s, p50_geomean_us)`, to see how far the
    /// epochs of one run lie apart.
    pub fn per_epoch(&self) -> Vec<(f64, f64)> {
        self.epochs
            .iter()
            .map(|e| {
                let medians: Vec<f64> = e
                    .recorder
                    .latencies
                    .iter()
                    .map(|l| stats::median(l))
                    .collect();
                (stats::pass_median_rate(&e.plain), stats::geomean(&medians))
            })
            .collect()
    }

    /// The fast quartile over epochs of the epoch's median pass rate.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .epochs
            .iter()
            .map(|e| stats::pass_median_rate(&e.plain))
            .collect();
        stats::fast_quartile(&rates, true)
    }

    /// Geometric mean over classes of the class's median latency, itself
    /// the fast quartile over epochs of the epoch's median.
    pub fn p50_geomean_us(&self) -> f64 {
        let per_class: Vec<f64> = (0..self.classes.len())
            .map(|class| {
                let medians: Vec<f64> = self
                    .epochs
                    .iter()
                    .map(|e| &e.recorder.latencies[class])
                    // A throttled epoch may not reach every op kind.
                    .filter(|l| !l.is_empty())
                    .map(|l| stats::median(l))
                    .collect();
                stats::fast_quartile(&medians, false)
            })
            .collect();
        stats::geomean(&per_class)
    }

    /// Geometric mean over classes of the class's 95th percentile, taken
    /// over all epochs together so that enough samples lie beyond it.
    pub fn p95_geomean_us(&self) -> f64 {
        let per_class: Vec<f64> = (0..self.classes.len())
            .map(|class| stats::percentile(&self.latencies(class), 0.95))
            .collect();
        stats::geomean(&per_class)
    }

    /// Median over epochs of the rate lost on traced passes.
    fn trace_overhead_share(&self) -> f64 {
        let lost: Vec<f64> = self
            .epochs
            .iter()
            .map(|e| 1.0 - stats::pass_median_rate(&e.spanned) / stats::pass_median_rate(&e.plain))
            .collect();
        stats::median(&lost)
    }
}

/// Runs one workload in `EPOCHS` epochs, each a fresh set-up, a warm-up
/// and its share of `seconds` of timed passes.  With `traced`, spans are
/// stored during set-up and on every other timed pass, and the per-layer
/// metrics are worked out at the end.
pub fn drive(
    workload: &mut dyn Workload,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let classes = workload.classes();
    let mut setups = Vec::new();
    let mut epochs = Vec::new();
    let mut rss_mb = 0.0;
    let (mut on_cpu, mut on_wall) = (0, Duration::ZERO);
    for _ in 0..EPOCHS {
        // A set-up of a few milliseconds is repeated, the first time
        // round, until its median can be trusted.
        tracer.on = traced;
        let setting_up = Instant::now();
        loop {
            let start = Clock::Process.now();
            workload.setup(tracer)?;
            setups.push(Clock::Process.between(start, Clock::Process.now()) as f64 / 1e9);
            if !epochs.is_empty()
                || setups.len() >= MAX_SETUPS
                || setting_up.elapsed() >= SETUP_TIME
            {
                break;
            }
        }
        tracer.on = false;

        let mut discard = Recorder::new(classes.len());
        if epochs.is_empty() {
            for _ in 0..RSS_PASSES {
                workload.pass(tracer, &mut discard);
            }
            rss_mb = peak_rss_mb()?;
        }
        let start = Instant::now();
        while start.elapsed() < WARMUP / EPOCHS as u32 {
            workload.pass(tracer, &mut discard);
        }
        if discard.failed > 0 {
            return Err(format!("{} ops failed during warm-up", discard.failed));
        }

        workload.mark();
        let mut epoch = Epoch {
            recorder: Recorder::new(classes.len()),
            plain: Vec::new(),
            spanned: Vec::new(),
        };
        let budget = Duration::from_secs_f64(seconds / EPOCHS as f64);
        let (start, cpu_start) = (Instant::now(), Clock::Process.now());
        while start.elapsed() < budget {
            tracer.on = traced && epoch.plain.len() > epoch.spanned.len();
            let pass = workload.pass(tracer, &mut epoch.recorder);
            if tracer.on {
                epoch.spanned.push(pass);
            } else {
                epoch.plain.push(pass);
            }
        }
        on_cpu += Clock::Process.now() - cpu_start;
        on_wall += start.elapsed();
        epochs.push(epoch);
    }

    tracer.on = traced;
    let mut outcome = Outcome {
        epochs,
        classes,
        setup_s: stats::fast_quartile(&setups, false),
        peak_rss_mb: rss_mb,
        on_cpu_share: on_cpu as f64 / on_wall.as_nanos() as f64,
        layers: Metrics::new(),
    };
    workload.finish(tracer, &mut outcome.layers)?;
    if traced {
        span_metrics(
            tracer,
            &workload.docs(),
            &outcome.classes,
            &mut outcome.layers,
        );
        let health = [
            ("harness.self_share", tracer.self_share()),
            (
                "harness.trace_overhead_share",
                outcome.trace_overhead_share(),
            ),
            ("harness.p95_geomean_us", outcome.p95_geomean_us()),
        ];
        outcome.layers.extend(health);
    }
    Ok(outcome)
}

/// The layer families whose time comes straight from spans: metric
/// prefix and the span names that count towards it.  The parallel machine
/// is data-parallel Singleton-Success, so it reports under `ss`.
const EXEC_FAMILIES: [(&str, &[&str]); 3] = [
    ("linear", &["core.exec.linear"]),
    ("cvt", &["core.exec.cvt"]),
    ("ss", &["core.exec.ss", "core.exec.parallel"]),
];

/// The declared per-layer metric called `<layer>.<suffix>`.
fn metric(layer: &str, suffix: &str) -> &'static str {
    let name = format!("{layer}.{suffix}");
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
}

/// Median span time in µs per group, for the spans `pick` keeps; `group`
/// maps a span to its class or document.
fn medians_by<'a>(
    spans: &'a [Span],
    pick: impl Fn(&Span) -> bool,
    group: impl Fn(&'a Span) -> usize,
) -> BTreeMap<usize, f64> {
    let mut by_group: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for span in spans.iter().filter(|s| pick(s)) {
        by_group.entry(group(span)).or_default().push(span.micros());
    }
    by_group
        .into_iter()
        .map(|(g, micros)| (g, stats::median(&micros)))
        .collect()
}

/// Time, time per unit of size, and the exponent between the smallest and
/// the largest size — each a geometric mean with equal weight per group.
struct Scaling {
    micros: f64,
    micros_per_size: f64,
    exponent: f64,
}

/// `groups` holds `(series, size, median µs)`: the exponent is taken per
/// series (a query, or "the parser") between its smallest and largest
/// size and averaged, which is the exponent of the geometric-mean ratio.
fn scaling(groups: &[(&str, f64, f64)]) -> Option<Scaling> {
    if groups.is_empty() {
        return None;
    }
    let micros: Vec<f64> = groups.iter().map(|g| g.2).collect();
    let per_size: Vec<f64> = groups.iter().map(|g| g.2 / g.1).collect();
    let mut series: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for &(name, size, t) in groups {
        series.entry(name).or_default().push((size, t));
    }
    let exponents: Vec<f64> = series
        .values_mut()
        .filter_map(|points| {
            points.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (small, large) = (points[0], points[points.len() - 1]);
            (large.0 > small.0).then(|| stats::data_exponent(small.1, small.0, large.1, large.0))
        })
        .collect();
    Some(Scaling {
        micros: stats::geomean(&micros),
        micros_per_size: stats::geomean(&per_size),
        exponent: if exponents.is_empty() {
            0.0
        } else {
            exponents.iter().sum::<f64>() / exponents.len() as f64
        },
    })
}

fn span_metrics(tracer: &Tracer, docs: &[DocInfo], classes: &[ClassInfo], out: &mut Metrics) {
    let spans = tracer.spans();
    // A set-up span names its document; a request's span names its class.
    let doc_of = |s: &Span| {
        if s.request == 0 {
            s.class as usize
        } else {
            classes[s.class as usize].doc
        }
    };

    for layer in ["dom.parse", "dom.prepare"] {
        let medians = medians_by(spans, |s| s.name == layer, doc_of);
        let groups: Vec<(&str, f64, f64)> = medians
            .iter()
            .map(|(&doc, &t)| (layer, docs[doc].nodes as f64, t))
            .collect();
        let Some(s) = scaling(&groups) else { continue };
        out.insert(metric(layer, "us"), s.micros);
        out.insert(metric(layer, "data_exponent"), s.exponent);
        if layer == "dom.prepare" {
            out.insert("dom.prepare.ns_per_node", s.micros_per_size * 1e3);
        } else {
            // Bytes per µs are MB/s.
            let rates: Vec<f64> = medians
                .iter()
                .map(|(&doc, &t)| docs[doc].xml_bytes as f64 / t)
                .collect();
            out.insert("dom.parse.mb_per_s", stats::geomean(&rates));
        }
    }

    let by_class = |name: &'static str| {
        medians_by(
            spans,
            move |s| s.name == name && s.request != 0,
            |s| s.class as usize,
        )
    };
    let serialize = by_class("dom.serialize");
    if !serialize.is_empty() {
        let micros: Vec<f64> = serialize.values().copied().collect();
        out.insert("dom.serialize.us", stats::geomean(&micros));
        // Only answers big enough for a rate to mean something.
        let rates: Vec<f64> = serialize
            .iter()
            .filter(|(class, _)| classes[**class].answer_bytes >= 1024)
            .map(|(class, t)| classes[*class].answer_bytes as f64 / t)
            .collect();
        if !rates.is_empty() {
            out.insert("dom.serialize.mb_per_s", stats::geomean(&rates));
        }
    }

    for (family, names) in EXEC_FAMILIES {
        let groups: Vec<(&str, f64, f64)> =
            medians_by(spans, |s| names.contains(&s.name), |s| s.class as usize)
                .into_iter()
                .map(|(class, t)| {
                    let class = &classes[class];
                    (class.query, docs[class.doc].nodes as f64, t)
                })
                .collect();
        if let Some(s) = scaling(&groups) {
            let layer = format!("core.exec.{family}");
            out.insert(metric(&layer, "us"), s.micros);
            out.insert(metric(&layer, "ns_per_node"), s.micros_per_size * 1e3);
            out.insert(metric(&layer, "data_exponent"), s.exponent);
        }
    }

    for (metric, span) in [
        ("syntax.parse.us", "syntax.parse"),
        ("core.compile.us", "core.compile"),
        ("backends.lazy.tokenize.us", "backends.lazy.tokenize"),
        ("backends.lazy.materialize.us", "backends.lazy.materialize"),
        ("backends.snapshot.open.us", "backends.snapshot.open"),
        ("backends.snapshot.decode.us", "backends.snapshot.decode"),
        ("catalog.evaluate_hit.us", "catalog.evaluate_hit"),
        ("catalog.evaluate_miss.us", "catalog.evaluate_miss"),
        ("serve.submit.us", "serve.submit"),
        ("live.edit.us", "live.edit"),
    ] {
        let micros = tracer.micros(span, None);
        if !micros.is_empty() {
            out.insert(metric, stats::median(&micros));
        }
    }
}

/// Peak resident set of this process so far in MB, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The result line the driver reads: one JSON object, metrics by name.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads one metric's value back out of a result line.
pub fn metric_in(result: &str, name: &str) -> Option<f64> {
    let rest = result.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn tables_match_the_manifest() {
        for m in &END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in &PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            MANIFEST.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for workload in WORKLOADS {
            assert!(MANIFEST.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
        assert_eq!(MANIFEST.matches("\"why\"").count(), WORKLOADS.len());
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_json(
            true,
            1000,
            0,
            &[("setup_s", "s", 0.8127), ("ops_per_s", "1/s", 1234.5)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "ops_per_s"), Some(1234.5));
        assert_eq!(metric_in(&line, "missing"), None);
    }

    #[test]
    fn scaling_takes_the_exponent_per_series() {
        let s = scaling(&[
            ("q1", 10.0, 1.0),
            ("q1", 100.0, 10.0),
            ("q2", 10.0, 2.0),
            ("q2", 100.0, 200.0),
        ])
        .unwrap();
        assert!((s.exponent - 1.5).abs() < 1e-12);
        assert!((s.micros - (1.0f64 * 10.0 * 2.0 * 200.0).powf(0.25)).abs() < 1e-9);
        // One size only: no exponent to take.
        assert_eq!(scaling(&[("q", 10.0, 1.0)]).unwrap().exponent, 0.0);
        assert!(scaling(&[]).is_none());
    }

    fn epoch(class0_us: &[u64], class1_us: u64, pass_seconds: &[f64]) -> Epoch {
        let mut recorder = Recorder::new(2);
        for &us in class0_us {
            recorder.record(0, Duration::from_micros(us), true);
        }
        recorder.record(1, Duration::from_micros(class1_us), false);
        let plain = pass_seconds
            .iter()
            .map(|&seconds| Pass { ops: 10, seconds })
            .collect();
        Epoch {
            recorder,
            plain,
            spanned: Vec::new(),
        }
    }

    #[test]
    fn outcome_takes_the_fast_quartile_over_epochs() {
        let class = |name: &str| ClassInfo {
            name: name.to_string(),
            query: "",
            doc: 0,
            answer_bytes: 0,
        };
        let outcome = Outcome {
            epochs: vec![
                epoch(&[10, 20, 30], 2000, &[1.0, 1.0, 9.0]),
                epoch(&[40, 50, 60], 8000, &[2.0, 2.0, 2.0]),
                epoch(&[20, 30, 40], 4000, &[0.5, 0.5, 0.5]),
            ],
            classes: vec![class("a"), class("b")],
            setup_s: 0.1,
            peak_rss_mb: 1.0,
            on_cpu_share: 1.0,
            layers: Metrics::new(),
        };
        assert_eq!((outcome.attempted(), outcome.failed()), (12, 3));
        // Epoch rates 10, 5 and 20 ops/s: the fast quartile of three is the best.
        assert_eq!(outcome.ops_per_s(), 20.0);
        // Class medians per epoch: 20, 50, 30 and 2000, 8000, 4000.
        assert!((outcome.p50_geomean_us() - (20.0f64 * 2000.0).sqrt()).abs() < 1e-6);
        assert!((outcome.p95_geomean_us() - (60.0f64 * 8000.0).sqrt()).abs() < 1e-6);
        assert_eq!(outcome.latencies(0).len(), 9);
    }

    #[test]
    fn peak_rss_reads() {
        assert!(peak_rss_mb().unwrap() > 0.1);
    }
}
