//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Builds the workload's job list from the seed and runs it through the
//! public API of `cr-topology`, `cr-faults`, `cr-traffic` and `cr-core`
//! (sweeps through `cr-experiments`' `SweepRunner`), checking every
//! job's output against the digests committed under `golden/`.
//!
//! With `--trace 0` it repeats the job list for about `--seconds` and
//! prints the end-to-end metrics (medians over the passes). With
//! `--trace 1` it runs one untraced pass and one traced pass (plus, on
//! `burst_drain_sh2`, a traced single-shard pass for the sharding
//! speed-up), prints the per-layer metrics, and writes the spans to
//! `$CARGO_TARGET_DIR/perfbench/`. The last line of standard output is
//! the result object; the line before it states the host facts.
//! `--bless` records the run's digests as the seed's golden entry.
//! See `perfbench/README.md` for the metrics and the known failures.

#![forbid(unsafe_code)]

mod golden;
mod jobs;
mod run;
mod spans;
mod sys;

use cr_experiments::SweepRunner;
use cr_sim::Json;
use jobs::{Fabric, Job, Workload};
use run::{Outcome, Work};
use spans::{Ctx, Span, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is sampled at least this often per run; `setup_s` is the
/// median.
const SETUP_SAMPLES: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bless]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bless,
    })
}

/// One printed metric.
#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One pass over the job list.
struct Pass {
    wall_s: f64,
    outcomes: Vec<Outcome>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.outcomes.iter().map(|o| o.setup_s).sum()
    }

    fn work(&self) -> Work {
        let mut total = Work::default();
        for o in &self.outcomes {
            total.add(&o.work);
        }
        total
    }
}

fn run_pass(w: Workload, jobs: &[Job], shards: usize, tracer: Option<&Tracer>) -> Pass {
    let start = Instant::now();
    let outcomes = Ctx::root(tracer).span("bench.pass", |ctx| {
        if w.pool_jobs() > 1 {
            ctx.span("pool.run", |ctx| {
                let points = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| move || run::run_job(job, shards, ctx.for_job(i)))
                    .collect();
                SweepRunner::new(w.pool_jobs()).run(points)
            })
        } else {
            jobs.iter()
                .enumerate()
                .map(|(i, job)| run::run_job(job, shards, ctx.for_job(i)))
                .collect()
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    sys::wait_for_worker_exit();
    Pass { wall_s, outcomes }
}

/// Set-up of every job and nothing else; returns its host seconds.
fn setup_only(jobs: &[Job], shards: usize) -> f64 {
    jobs.iter()
        .map(|job| run::set_up(job, shards, Ctx::root(None)).setup_s)
        .sum()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the checks found across every pass of a run.
struct Verdict {
    /// Jobs that failed a check in any pass.
    failed: Vec<String>,
    /// Every digest matched its golden digest and every other pass.
    correct: bool,
}

/// Checks every job of every pass; `golden` is the seed's committed
/// entry, if any.
fn check(jobs: &[Job], passes: &[&Pass], golden: Option<&[u32]>) -> Verdict {
    let digests: Vec<u32> = passes[0].outcomes.iter().map(|o| o.digest).collect();
    let mut correct = true;
    if let Some(g) = golden {
        if g.len() != jobs.len() {
            eprintln!(
                "golden entry has {} digests for {} jobs",
                g.len(),
                jobs.len()
            );
            correct = false;
        }
    }
    let mut failed = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let mut reasons: Vec<String> = Vec::new();
        for pass in passes {
            for r in &pass.outcomes[i].failures {
                if !reasons.contains(r) {
                    reasons.push(r.clone());
                }
            }
        }
        if passes.iter().any(|p| p.outcomes[i].digest != digests[i]) {
            reasons.push("digest differs between passes".into());
            correct = false;
        }
        if let Some(&want) = golden.and_then(|g| g.get(i)) {
            if want != digests[i] {
                reasons.push(format!("digest {:08x}, golden {want:08x}", digests[i]));
                correct = false;
            }
        }
        if !reasons.is_empty() {
            eprintln!("failed job {}: {}", job.name, reasons.join("; "));
            failed.push(job.name.clone());
        }
    }
    Verdict { failed, correct }
}

/// The end-to-end metrics of an untraced run, medians over its passes.
fn end_to_end(passes: &[Pass], setup: &mut [f64], pass_share: f64) -> Result<Vec<Metric>, String> {
    let mut wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut rate: Vec<f64> = passes
        .iter()
        .map(|p| p.work().flit_hops as f64 / p.wall_s)
        .collect();
    let rss = sys::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let vm = passes
        .iter()
        .flat_map(|p| &p.outcomes)
        .fold(0.0, |peak: f64, o| peak.max(o.vm_mb));
    if vm <= 0.0 {
        return Err("cannot read VmSize from /proc/self/status".into());
    }
    Ok(vec![
        metric("wall_s", median(&mut wall), "s"),
        metric("flit_hops_per_s", median(&mut rate), "1/s"),
        metric("setup_s", median(setup), "s"),
        metric("peak_rss_mb", rss, "MB"),
        metric("peak_vm_mb", vm, "MB"),
        metric("pass_share", pass_share, "ratio"),
    ])
}

fn span_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |sum, s| sum + s.ns() as f64 * 1e-9)
}

/// `core.run` seconds per fabric.
fn run_s_by_fabric(spans: &[Span], jobs: &[Job]) -> Vec<(Fabric, f64)> {
    Fabric::ALL
        .iter()
        .map(|&f| {
            let s = spans
                .iter()
                .filter(|s| s.name == "core.run" && s.job.is_some_and(|j| jobs[j].fabric == f))
                .fold(0.0, |sum, s| sum + s.ns() as f64 * 1e-9);
            (f, s)
        })
        .collect()
}

fn count_total(tracer: &Tracer, name: &str) -> u64 {
    tracer
        .counts()
        .iter()
        .filter(|(_, n, _)| *n == name)
        .map(|(_, _, v)| v)
        .sum()
}

/// The per-layer metrics of a traced run.
struct Traced<'a> {
    w: Workload,
    jobs: &'a [Job],
    untraced: &'a Pass,
    traced: &'a Pass,
    tracer: &'a Tracer,
    /// Sharded workloads: the tracer of the same job list run on one
    /// shard.
    single_shard: Option<&'a Tracer>,
    fail_share: f64,
}

fn per_layer(t: &Traced) -> Vec<Metric> {
    let spans = t.tracer.spans();
    let work = t.traced.work();
    let run_s = run_s_by_fabric(&spans, t.jobs);
    let core_ns = span_s(&spans, "core.run") * 1e9;
    let active_router_cycles = count_total(t.tracer, "core.active_router_cycles");
    let vm_delta_kb = t
        .tracer
        .counts()
        .iter()
        .filter(|(_, n, _)| *n == "builder.vm_delta_kb")
        .map(|&(_, _, v)| v)
        .max()
        .unwrap_or(0);
    let job_busy_s = span_s(&spans, "bench.job");
    let (workers, pool_wall) = if t.w.pool_jobs() > 1 {
        (t.w.pool_jobs(), span_s(&spans, "pool.run"))
    } else {
        (1, span_s(&spans, "bench.pass"))
    };

    let mut m = vec![
        metric("topology.build_s", span_s(&spans, "topology.build"), "s"),
        metric("builder.build_s", span_s(&spans, "builder.build"), "s"),
        metric("builder.vm_delta_mb", vm_delta_kb as f64 / 1024.0, "MB"),
        metric("faults.storm_s", span_s(&spans, "faults.storm"), "s"),
        metric(
            "traffic.schedule_s",
            span_s(&spans, "traffic.schedule"),
            "s",
        ),
    ];
    for (fabric, s) in &run_s {
        m.push(metric(format!("core.run_s.{}", fabric.label()), *s, "s"));
    }
    m.extend([
        metric(
            "core.ns_per_cycle",
            ratio(core_ns, work.cycles as f64),
            "ns/cycle",
        ),
        metric(
            "core.ns_per_flit_hop",
            ratio(core_ns, work.flit_hops as f64),
            "ns/hop",
        ),
        metric(
            "core.ns_per_active_router_cycle",
            ratio(core_ns, active_router_cycles as f64),
            "ns/router-cycle",
        ),
        metric("core.cycles", work.cycles as f64, "cycles"),
        metric("core.flit_hops", work.flit_hops as f64, "count"),
        metric(
            "core.active_router_cycles",
            active_router_cycles as f64,
            "count",
        ),
        metric("router.headers_routed", work.headers_routed as f64, "count"),
        metric(
            "router.unroutable_headers",
            work.unroutable_headers as f64,
            "count",
        ),
        metric(
            "router.route_grant_ratio",
            ratio(
                work.headers_routed as f64,
                (work.headers_routed + work.unroutable_headers) as f64,
            ),
            "ratio",
        ),
        metric(
            "router.stall_cycles.backpressure",
            work.stall_backpressure as f64,
            "cycles",
        ),
        metric("router.stall_cycles.busy", work.stall_busy as f64, "cycles"),
        metric(
            "router.stall_cycles.dead_link",
            work.stall_dead_link as f64,
            "cycles",
        ),
        metric(
            "router.link_useful_ratio",
            ratio(
                work.link_flits as f64,
                (work.link_flits + work.stall_backpressure + work.stall_busy + work.stall_dead_link)
                    as f64,
            ),
            "ratio",
        ),
        metric("core.kills", work.kills as f64, "count"),
        metric("core.retransmissions", work.retransmissions as f64, "count"),
        metric(
            "core.flits_dropped_killed",
            work.flits_dropped_killed as f64,
            "count",
        ),
        metric(
            "core.payload_useful_ratio",
            ratio(
                work.payload_flits_delivered as f64,
                work.flits_injected as f64,
            ),
            "ratio",
        ),
        metric("faults.events_fired", work.churn_events as f64, "count"),
        metric(
            "faults.events_drained",
            work.churn_events_drained as f64,
            "count",
        ),
        metric(
            "faults.max_time_to_drain_cycles",
            work.max_time_to_drain as f64,
            "cycles",
        ),
        metric("pool.job_busy_s", job_busy_s, "s"),
        metric(
            "pool.idle_share",
            1.0 - ratio(job_busy_s, workers as f64 * pool_wall),
            "ratio",
        ),
    ]);
    let single_run_s = t
        .single_shard
        .map(|tracer| run_s_by_fabric(&tracer.spans(), t.jobs));
    for (i, (fabric, sharded)) in run_s.iter().enumerate().skip(1) {
        let speedup = single_run_s
            .as_ref()
            .map_or(0.0, |single| ratio(single[i].1, *sharded));
        m.push(metric(
            format!("shard.speedup.{}", fabric.label()),
            speedup,
            "x",
        ));
    }
    m.push(metric("report.s", span_s(&spans, "report.build"), "s"));
    let self_s = spans::self_seconds(&spans);
    for layer in LAYERS {
        let s = self_s
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s);
        m.push(metric(format!("self_s.{layer}"), s, "s"));
    }
    m.extend([
        metric("trace.wall_s", t.traced.wall_s, "s"),
        metric("trace.overhead_s", t.traced.wall_s - t.untraced.wall_s, "s"),
        metric("trace.spans", spans.len() as f64, "count"),
        metric("bench.fail_share", t.fail_share, "ratio"),
    ]);
    m
}

/// Span layers, in the order their self times are printed.
const LAYERS: [&str; 8] = [
    "bench", "pool", "topology", "faults", "builder", "traffic", "core", "report",
];

/// Where the traced run writes its spans.
fn span_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench")
}

/// Writes the spans and counts as JSON lines after the host facts.
fn write_spans(host: &Json, args: &Args, tracers: &[(&str, &Tracer)]) -> Result<PathBuf, String> {
    let dir = span_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = host.to_string() + "\n";
    for (pass, tracer) in tracers {
        for s in tracer.spans() {
            let line = Json::obj([
                ("pass", Json::from(*pass)),
                ("id", Json::from(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("job", s.job.map_or(Json::Null, Json::from)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ]);
            out += &(line.to_string() + "\n");
        }
        for (span, name, value) in tracer.counts() {
            let line = Json::obj([
                ("pass", Json::from(*pass)),
                ("span", Json::from(span)),
                ("count", Json::from(name)),
                ("value", Json::from(value)),
            ]);
            out += &(line.to_string() + "\n");
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn result_line(verdict: &Verdict, attempted: usize, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::from(verdict.correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(verdict.failed.len())),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ])
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let jobs = w.jobs(args.seed);
    let shards = w.shards();
    let mut passes: Vec<Pass> = Vec::new();
    let tracer = Tracer::new();
    let single_tracer = Tracer::new();
    let mut single_pass = None;
    if args.trace {
        passes.push(run_pass(w, &jobs, shards, None));
        passes.push(run_pass(w, &jobs, shards, Some(&tracer)));
        if shards > 1 {
            single_pass = Some(run_pass(w, &jobs, 1, Some(&single_tracer)));
        }
    } else {
        let start = Instant::now();
        loop {
            passes.push(run_pass(w, &jobs, shards, None));
            let elapsed = start.elapsed().as_secs_f64();
            let n = passes.len() as f64;
            if elapsed * (n + 1.0) / n > args.seconds {
                break;
            }
        }
    }
    let mut checked: Vec<&Pass> = passes.iter().collect();
    checked.extend(single_pass.as_ref());
    let golden = if args.bless {
        let digests: Vec<u32> = passes[0].outcomes.iter().map(|o| o.digest).collect();
        golden::bless(w.golden_key(), args.seed, &digests)?;
        None
    } else {
        golden::lookup(w.golden_key(), args.seed)?
    };
    let verdict = check(&jobs, &checked, golden.as_deref());
    let golden_state = match (args.bless, golden.is_some()) {
        (true, _) => "blessed",
        (false, true) => "checked",
        (false, false) => "unblessed",
    };
    let fail_share = verdict.failed.len() as f64 / jobs.len() as f64;

    let metrics = if args.trace {
        per_layer(&Traced {
            w,
            jobs: &jobs,
            untraced: &passes[0],
            traced: &passes[1],
            tracer: &tracer,
            single_shard: single_pass.as_ref().map(|_| &single_tracer),
            fail_share,
        })
    } else {
        let mut setup: Vec<f64> = passes.iter().map(Pass::setup_s).collect();
        while setup.len() < SETUP_SAMPLES {
            setup.push(setup_only(&jobs, shards));
        }
        end_to_end(&passes, &mut setup, 1.0 - fail_share)?
    };

    let host = Json::obj([(
        "host",
        Json::obj([
            ("workload", Json::from(w.name())),
            ("seed", Json::from(args.seed)),
            ("host_threads", Json::from(sys::host_threads())),
            ("pool_jobs", Json::from(w.pool_jobs())),
            ("shards", Json::from(shards)),
            ("jobs", Json::from(jobs.len())),
            ("passes", Json::from(passes.len())),
            (
                "pass_wall_s",
                Json::arr(passes.iter().map(|p| Json::from(p.wall_s))),
            ),
            (
                "burst_drain_budget_cycles",
                Json::from(jobs::BURST_DRAIN_BUDGET),
            ),
            (
                "storm_drain_budget_cycles",
                Json::from(jobs::STORM_DRAIN_BUDGET),
            ),
            ("golden", Json::from(golden_state)),
            (
                "failed_jobs",
                Json::arr(verdict.failed.iter().map(|n| Json::from(n.as_str()))),
            ),
        ]),
    )]);
    if args.trace {
        let mut tracers = vec![("traced", &tracer)];
        if single_pass.is_some() {
            tracers.push(("single_shard", &single_tracer));
        }
        let path = write_spans(&host, args, &tracers)?;
        eprintln!("spans written to {}", path.display());
    }
    println!("{host}");
    println!("{}", result_line(&verdict, jobs.len(), &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
        json.get(list)
            .and_then(Json::as_arr)
            .expect(list)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    /// `(name, unit)` of every metric as the result line prints it.
    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        let verdict = Verdict {
            failed: Vec::new(),
            correct: true,
        };
        let line =
            Json::parse(&result_line(&verdict, 1, metrics).to_string()).expect("result parses");
        let Some(Json::Obj(members)) = line.get("metrics") else {
            panic!("no metrics object in {line}");
        };
        members
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no value"
                );
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn every_metric_is_printed_with_its_name_and_unit() {
        let pass = Pass {
            wall_s: 1.0,
            outcomes: vec![Outcome {
                vm_mb: 9.5,
                ..Outcome::default()
            }],
        };
        let e2e =
            end_to_end(std::slice::from_ref(&pass), &mut [0.5], 1.0).expect("memory readable");
        assert_eq!(printed(&e2e), declared("end_to_end"));

        let tracer = Tracer::new();
        let jobs = Workload::BurstDrainSh2.jobs(0);
        let layers = per_layer(&Traced {
            w: Workload::BurstDrainSh2,
            jobs: &jobs,
            untraced: &pass,
            traced: &pass,
            tracer: &tracer,
            single_shard: Some(&tracer),
            fail_share: 0.0,
        });
        assert_eq!(printed(&layers), declared("per_layer"));
    }

    #[test]
    fn digest_mismatches_fail_the_job_and_the_run() {
        let jobs = &Workload::PaperSweep.jobs(0)[..2];
        let pass = |digests: [u32; 2], failure: Option<&str>| Pass {
            wall_s: 1.0,
            outcomes: digests
                .iter()
                .map(|&digest| Outcome {
                    digest,
                    failures: failure.iter().map(|f| f.to_string()).collect(),
                    ..Outcome::default()
                })
                .collect(),
        };
        let (a, b, wedged) = (
            pass([1, 2], None),
            pass([1, 3], None),
            pass([1, 2], Some("deadlock")),
        );
        let ok = check(jobs, &[&a], Some(&[1, 2]));
        assert!(ok.correct && ok.failed.is_empty());
        let changed = check(jobs, &[&a], Some(&[1, 5]));
        assert!(!changed.correct);
        assert_eq!(changed.failed, vec![jobs[1].name.clone()]);
        let nondeterministic = check(jobs, &[&a, &b], None);
        assert!(!nondeterministic.correct);
        assert_eq!(nondeterministic.failed, vec![jobs[1].name.clone()]);
        let failing = check(jobs, &[&wedged], Some(&[1, 2]));
        assert!(failing.correct);
        assert_eq!(failing.failed.len(), 2);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload fault_churn --seed 3 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.trace, ok.bless),
            (Workload::FaultChurn, 3, true, false)
        );
        assert!(args("--workload nope --seed 3 --seconds 20 --trace 1").is_err());
        assert!(args("--workload fault_churn --seed 3 --seconds 20 --trace 2").is_err());
        assert!(args("--workload fault_churn --seconds 20 --trace 0").is_err());
        assert!(args("--workload fault_churn --seed 3 --seconds 20 --trace 0 --extra 1").is_err());
    }
}
