//! The request-level benchmark of xpeval.  See `README.md` beside this
//! crate for the workloads, the metrics and how to read the output; run
//! it through `run.sh`, which builds it first.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//! run.sh [--seed N] [--seconds S] [--repeat K]           every workload, untraced then traced
//! run.sh --bless                                         rewrite expected/seed1.tsv
//! ```

mod clock;
mod gen;
mod harness;
mod oracle;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use harness::{END_TO_END, MIN_CLASS_SAMPLES, PER_LAYER, WORKLOADS};
use sut::Machine;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    bless: bool,
    /// `--bless-probe STREAM ITEMS QUERY MACHINE`, the child of `--bless`.
    bless_probe: Option<[String; 4]>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        traced: false,
        repeat: 1,
        bless: false,
        bless_probe: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("{text} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)? as u64,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.traced = number(value()?)? != 0.0,
            "--traced" => args.traced = true,
            "--repeat" => args.repeat = number(value()?)? as usize,
            "--bless" => args.bless = true,
            "--bless-probe" => args.bless_probe = Some([value()?, value()?, value()?, value()?]),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some(probe) = &args.bless_probe {
            bless_probe(probe)
        } else if args.bless {
            bless(args.seed)
        } else if let Some(workload) = &args.workload {
            run_one(workload, &args)
        } else {
            run_suite(&args)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("xpeval-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Marks the line a run prints about a class with too few samples.
const FEW_SAMPLES: &str = "warning:";

/// `(busy + stolen, stolen)` CPU time of the machine so far, in jiffies,
/// from the first line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let [user, nice, system, _idle, _iowait, irq, softirq, steal, ..] = fields[..] else {
        return None;
    };
    Some((user + nice + system + irq + softirq + steal, steal))
}

/// The benchmark's own directory, where traces and frozen answers live.
fn here() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One workload in this process: every metric by name with its unit, the
/// per-class sample counts, and the result object as the last line.
fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let commit = std::env::var("XPEVAL_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "# xpeval-benchmark workload={name} seed={} seconds={} trace={} nproc={} cpu=\"{}\" commit={commit}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        sut::nproc(),
        cpu_model(),
    );
    let steal_before = cpu_jiffies();
    let started = Instant::now();
    let mut workload = workloads::build(name, args.seed)?;
    println!(
        "# oracle_s {:.3} (answers worked out and cross-checked, untimed)",
        started.elapsed().as_secs_f64()
    );

    let mut tracer = trace::Tracer::new(workload.clock());
    let outcome = harness::drive(workload.as_mut(), args.seconds, args.traced, &mut tracer)?;
    let (attempted, failed) = (outcome.attempted(), outcome.failed());

    for (c, class) in outcome.classes.iter().enumerate() {
        let latencies = outcome.latencies(c);
        println!(
            "class {} samples={} p50_us={:.3} p95_us={:.3}",
            class.name,
            latencies.len(),
            stats::percentile(&latencies, 0.5),
            stats::percentile(&latencies, 0.95),
        );
        // Not fatal here: the medians stand, and a throttled runner must
        // not void the run.  The suite refuses such a set.
        if latencies.len() < MIN_CLASS_SAMPLES {
            println!(
                "{FEW_SAMPLES} class {} has {} samples, fewer than {MIN_CLASS_SAMPLES}: \
                 its p95 means little; run for longer",
                class.name,
                latencies.len()
            );
        }
    }
    if let (Some(before), Some(after)) = (steal_before, cpu_jiffies()) {
        println!(
            "steal_share {:.3} (share of this run's CPU time the hypervisor took)",
            (after.1 - before.1) as f64 / (after.0 - before.0).max(1) as f64
        );
    }
    println!(
        "on_cpu_share {:.3} (CPU time of this process over wall time in the timed loops; the figures are in CPU time, so a share well under 1 costs samples, not accuracy)",
        outcome.on_cpu_share
    );
    println!(
        "failed_share {} ({failed} of {attempted} ops)",
        failed as f64 / attempted as f64
    );
    for (e, (rate, p50)) in outcome.per_epoch().into_iter().enumerate() {
        println!("epoch {e} ops_per_s={rate:.2} p50_geomean_us={p50:.3}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.traced {
        let path = here().join(format!("out/trace-{name}.jsonl"));
        let names: Vec<String> = outcome.classes.iter().map(|c| c.name.clone()).collect();
        tracer
            .write_jsonl(&path, &names)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans in {}", tracer.spans().len(), path.display());
        PER_LAYER
            .iter()
            .map(|&(metric, unit)| {
                // 0 for a layer the workload does not enter, and for a
                // figure a run too short or too throttled could not take.
                let value = outcome.layers.get(metric).filter(|v| v.is_finite());
                (metric, unit, value.copied().unwrap_or(0.0))
            })
            .collect()
    } else {
        let values = [
            outcome.setup_s,
            outcome.ops_per_s(),
            outcome.p50_geomean_us(),
            outcome.peak_rss_mb,
        ];
        println!(
            "p95_geomean_us {:.3} us (not gated)",
            outcome.p95_geomean_us()
        );
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };
    for (metric, unit, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("{metric} is {value}"));
        }
        println!("metric {metric} {value} {unit}");
    }
    println!(
        "{}",
        harness::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// Runs this program again as a child, passing its output through, and
/// returns that output if the child succeeded.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("the run {args:?} failed"));
    }
    Ok(stdout)
}

/// Every workload in a process of its own, untraced then traced, `repeat`
/// times over; with two or more sets, the first two are compared metric
/// by metric against the bounds.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    // Per set, the output of each workload's untraced run.
    let mut sets: Vec<Vec<String>> = Vec::new();
    // A wrong answer, or a class with too few samples.
    let mut incorrect = false;
    for _ in 0..args.repeat.max(1) {
        let mut set = Vec::new();
        for workload in WORKLOADS {
            let run = |trace: &str| {
                let flags = [
                    ("--workload", workload.to_string()),
                    ("--seed", args.seed.to_string()),
                    ("--seconds", args.seconds.to_string()),
                    ("--trace", trace.to_string()),
                ];
                child(&flags.map(|(f, v)| [f.to_string(), v]).concat())
            };
            let (untraced, traced) = (run("0")?, run("1")?);
            incorrect |= [&untraced, &traced].into_iter().any(|out| {
                !out.contains("\"correct\": true")
                    || out.lines().any(|l| l.starts_with(FEW_SAMPLES))
            });
            set.push(untraced);
        }
        sets.push(set);
    }

    let mut beyond = false;
    if let [first, second, ..] = &sets[..] {
        println!("\n# repeatability: two sets of runs of the same build");
        println!("# workload metric first second worsening bound");
        for (workload, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(second)) {
            for m in &END_TO_END {
                let (Some(a), Some(b)) =
                    (harness::metric_in(a, m.name), harness::metric_in(b, m.name))
                else {
                    return Err(format!("{workload} printed no {}", m.name));
                };
                // Either order must stay within the bound.
                let change = stats::worsening(a, b, m.higher_is_better).max(stats::worsening(
                    b,
                    a,
                    m.higher_is_better,
                ));
                let verdict = if change > m.bound { "BEYOND" } else { "ok" };
                beyond |= change > m.bound;
                println!(
                    "{workload} {} {a} {b} {:+.2}% {:.0}% {verdict}",
                    m.name,
                    change * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }
    Ok(if beyond || incorrect {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn machine_name(machine: Machine) -> &'static str {
    machine.span_name().trim_start_matches("core.exec.")
}

/// `--bless`: rewrites `expected/seed1.tsv`, but only if every backend
/// and every machine that accepts a query — the naive one included,
/// wherever it finishes in five seconds — agree on every answer.
fn bless(seed: u64) -> Result<ExitCode, String> {
    if seed != oracle::FROZEN_SEED {
        return Err(format!("only seed {} is frozen", oracle::FROZEN_SEED));
    }
    let mut file = String::new();
    for (key, query) in workloads::frozen_pairs() {
        let doc = gen::auction_doc(seed, key.0, key.1);
        let eager = sut::prepare(sut::parse(&doc.xml)?);
        let reference = oracle::reference(key, &doc.xml, &doc.facts, &eager, query)?;
        let Some(nodes) = reference.answer.nodes else {
            continue;
        };
        let hash = oracle::fnv64(reference.answer.text.as_bytes());
        let agreed = format!("{nodes}\t{hash:016x}");
        let mut verdicts = Vec::new();
        for machine in Machine::ALL {
            let probe = [
                "--bless-probe".to_string(),
                key.0.to_string(),
                key.1.to_string(),
                query.id.to_string(),
                machine_name(machine).to_string(),
            ];
            let verdict = match probe_with_deadline(&probe, Duration::from_secs(5))? {
                Probe::Answered(answer) if answer == agreed => "agrees",
                Probe::Answered(answer) => {
                    return Err(format!(
                        "{} on document {key:?}: the {} machine answers {answer}, the backends {agreed}; \
                         nothing written",
                        query.id,
                        machine_name(machine)
                    ))
                }
                Probe::Refused => "refuses",
                Probe::TimedOut => "over 5 s",
            };
            verdicts.push(format!("{} {verdict}", machine_name(machine)));
        }
        println!(
            "{} on {key:?}: {nodes} nodes; {}",
            query.id,
            verdicts.join(", ")
        );
        file += &oracle::frozen_line(key, query.id, nodes, hash);
    }
    let path = here().join("expected/seed1.tsv");
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}; build again to use it", path.display());
    Ok(ExitCode::SUCCESS)
}

enum Probe {
    Answered(String),
    Refused,
    TimedOut,
}

/// Runs a `--bless-probe` child, killing it at the deadline.
fn probe_with_deadline(args: &[String], deadline: Duration) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    loop {
        if child.try_wait().map_err(|e| e.to_string())?.is_some() {
            break;
        }
        if started.elapsed() > deadline {
            child.kill().map_err(|e| e.to_string())?;
            child.wait().map_err(|e| e.to_string())?;
            return Ok(Probe::TimedOut);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    Ok(match output.status.code() {
        Some(0) => Probe::Answered(String::from_utf8_lossy(&output.stdout).trim().to_string()),
        Some(2) => Probe::Refused,
        _ => return Err(format!("the probe {args:?} crashed")),
    })
}

/// The child of `--bless`: one query on one document with the plan pinned
/// to one machine; prints `nodes<TAB>hash`, or exits with 2 if the machine
/// does not accept the query.
fn bless_probe([stream, items, query, machine]: &[String; 4]) -> Result<ExitCode, String> {
    let key: oracle::DocKey = (
        stream.parse().map_err(|_| "bad stream")?,
        items.parse().map_err(|_| "bad item count")?,
    );
    let query = oracle::CORE
        .iter()
        .chain(&oracle::XPATH)
        .chain(&oracle::PWF)
        .find(|q| q.id == query)
        .ok_or("no such query")?;
    let machine = Machine::ALL
        .into_iter()
        .find(|&m| machine_name(m) == machine)
        .ok_or("no such machine")?;
    let doc = gen::auction_doc(oracle::FROZEN_SEED, key.0, key.1);
    let eager = sut::prepare(sut::parse(&doc.xml)?);
    let Ok(out) = sut::run(&sut::pinned(&sut::compile(query.text)?, machine), &eager) else {
        return Ok(ExitCode::from(2));
    };
    let answer = sut::serialize_answer(&out.value, &eager);
    println!(
        "{}\t{:016x}",
        answer.nodes.unwrap_or(0),
        oracle::fnv64(answer.text.as_bytes())
    );
    Ok(ExitCode::SUCCESS)
}
