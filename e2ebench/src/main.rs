//! End-to-end benchmark of the ripki data path.
//!
//! ```text
//! ripki-e2ebench --workload <fabric-60k|study-20k|query-churn> --seed <n> --seconds <n> --trace <0|1>
//!                [--world-seed <n>] [--setup-only <0|1>]
//! ```
//!
//! Builds the generated world (seed 42 unless `--world-seed` says
//! otherwise; churn, schedule, SLURM file and reads derive from
//! `--seed`), sets the whole system up five times, each in a fresh
//! process (reporting the median as `setup_s`), then drives the last
//! one for
//! `--seconds`: churn epochs on the workload's schedule, an RTR router
//! and an ETag poller at the end of the fabric, and an open-loop read
//! mix against the query plane. Every output is checked; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics of a traced run). Exits 1 on any mismatch.

mod clients;
mod report;
mod stats;
mod system;
mod timeline;
mod trace;
mod workload;

use clients::{Ctx, Planned, Read};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use report::{Measured, Metric, Samples, Scraped};
use ripki_bgp::rov::{RouteOriginValidator, RpkiState};
use ripki_net::Asn;
use serde_json::{Map, Value};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use system::{PollerResult, RouterEnd, System, PROBE_INVALID_ASN};
use workload::{Seeds, Workload};

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
const SETUPS: usize = 5;
/// Conditional `/vrps.json` reads per block of the read mix; a
/// quarter of each block are domain lookups (see [`plan_reads`]).
const BLOCK_VRPS: usize = 2;
/// Every this many validity reads one is a known-answer probe.
const PROBE_EVERY: usize = 16;
/// Domains that take half of the domain reads (the rest is uniform).
const HOT_DOMAINS: usize = 4;
/// Domains whose exposure answer is checked after the run.
const EXPOSURE_PROBES: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    world_seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up once, print the set-up time and exit.
    setup_only: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut setup_only = false;
        let mut world_seed = workload::DEFAULT_WORLD_SEED;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag} {value}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--world-seed" => world_seed = number()?,
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = number()? != 0,
                "--setup-only" => setup_only = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            world_seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            setup_only,
        })
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: ripki-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--world-seed <n>] [--setup-only <0|1>]");
            std::process::exit(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {} (one of {names:?})", args.workload);
        std::process::exit(2);
    };
    match run(w, &args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The seeded read mix of one connection: half the workload's rate,
/// one read at a uniformly random instant of each period (a fixed rate
/// that does not lock step with any timer in the system). Every
/// `w.mix_block` consecutive reads hold, in a seeded order, exactly
/// [`BLOCK_VRPS`] conditional `/vrps.json` reads, a quarter domain
/// lookups (half on a small hot set, so both cold and warm exposure
/// memo lookups occur) and validity lookups for the rest, with a
/// known-valid or known-invalid probe every [`PROBE_EVERY`]. A fixed
/// count per block keeps the few large `/vrps.json` answers, which make
/// much of the read tail, the same in number from seed to seed.
fn plan_reads(w: &Workload, rng: &mut StdRng, seconds: f64, system: &System) -> Vec<Planned> {
    let pairs: Vec<_> = system
        .results
        .domains
        .iter()
        .flat_map(|d| d.bare.pairs.iter().chain(&d.www.pairs))
        .map(|p| (p.prefix, p.origin))
        .collect();
    let probe = system.asserted[0];
    let domains = &system.results.domains;
    let hot: Vec<usize> = (0..HOT_DOMAINS)
        .map(|_| rng.gen_range(0..domains.len()))
        .collect();
    let period = 2.0 / w.read_rps;
    let mut plan = Vec::new();
    let mut validity = 0usize;
    let domain_reads = w.mix_block / 4;
    let mut block: Vec<usize> = (0..w.mix_block).collect();
    for k in 0.. {
        let at = (k as f64 + rng.gen::<f64>()) * period;
        if at >= seconds {
            break;
        }
        if k % w.mix_block == 0 {
            block.shuffle(rng);
        }
        let slot = block[k % w.mix_block];
        let read = if slot < BLOCK_VRPS {
            Read::Vrps
        } else if slot < BLOCK_VRPS + domain_reads {
            let domain = if rng.gen_bool(0.5) {
                &domains[hot[rng.gen_range(0..hot.len())]]
            } else {
                &domains[rng.gen_range(0..domains.len())]
            };
            Read::Domain {
                name: domain.listed.clone(),
                rank: domain.rank,
            }
        } else {
            validity += 1;
            let (prefix, asn, expect) = if validity.is_multiple_of(PROBE_EVERY) {
                if validity.is_multiple_of(2 * PROBE_EVERY) {
                    (probe.prefix, probe.asn, Some(RpkiState::Valid))
                } else {
                    (
                        probe.prefix,
                        Asn::new(PROBE_INVALID_ASN),
                        Some(RpkiState::Invalid),
                    )
                }
            } else {
                let r: f64 = rng.gen();
                let asserted = system.asserted[rng.gen_range(0..system.asserted.len())];
                if r < 0.5 && !pairs.is_empty() {
                    let (prefix, origin) = pairs[rng.gen_range(0..pairs.len())];
                    (prefix, origin, None)
                } else if r < 0.75 {
                    (asserted.prefix, asserted.asn, None)
                } else {
                    let asn = Asn::new(rng.gen_range(64_496..65_535u32));
                    (asserted.prefix, asn, None)
                }
            };
            Read::Validity {
                prefix,
                asn,
                expect,
            }
        };
        plan.push(Planned {
            at: Duration::from_secs_f64(at),
            read,
        });
    }
    plan
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(w: &Workload, args: &Args) -> Result<bool, String> {
    let seeds = Seeds::derive(args.seed, args.world_seed);
    let seconds = args.seconds as f64;

    if args.setup_only {
        let (system, took) = set_up(w, &seeds, false)?;
        let correct = system.ctx.tally.failed() == 0;
        system.stop();
        println!("{took}");
        return Ok(correct);
    }
    // Set-ups repeated in one process leave memory behind that would
    // count in `peak_rss_mb`, so every set-up but the measured one runs
    // in a child process, as a user's set-up would.
    let mut setup_s = (1..SETUPS)
        .map(|_| set_up_in_child(args))
        .collect::<Result<Vec<f64>, String>>()?;
    let (mut system, took) = set_up(w, &seeds, args.trace)?;
    setup_s.push(took);
    let ctx = Arc::clone(&system.ctx);

    let mut rng = StdRng::seed_from_u64(seeds.reads);
    let plans = [
        plan_reads(w, &mut rng, seconds, &system),
        plan_reads(w, &mut rng, seconds, &system),
    ];
    let addr = system.server.addr();
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs(args.seconds);
    let (study_ms, checked) = std::thread::scope(|scope| {
        let (answers, checker) = mpsc::channel();
        for plan in &plans {
            let (ctx, answers) = (&ctx, answers.clone());
            scope.spawn(move || clients::run_reader(addr, plan, start, end, &answers, ctx));
        }
        drop(answers);
        let checker = scope.spawn(|| clients::run_checker(checker, &ctx));
        let study_ms = system.run_epochs(w.schedule, seeds.schedule, start, end);
        (study_ms, checker.join().unwrap_or_default())
    });
    let reads_done = checked.last_done.unwrap_or(start);

    // Drain: the router and the poller must reach the last epoch.
    let last = system.engine.epoch();
    let drained = system.wait_held(last, Instant::now() + Duration::from_secs(5));
    ctx.tally
        .check(drained, || format!("consumers never reached epoch {last}"));
    let scraped = Scraped::parse(
        &clients::fetch_text(addr, "/metrics").unwrap_or_default(),
        &clients::fetch_text(addr, "/status").unwrap_or_default(),
    );
    // Exposure answers, recomputed over the payload served now.
    let probes: Vec<_> = (0..EXPOSURE_PROBES)
        .map(|_| {
            let i = rng.gen_range(0..system.results.domains.len());
            system.results.domains[i].clone()
        })
        .collect();
    clients::check_exposures(addr, &probes, &system.topology, &system.exposure, &ctx);
    let (router, poller) = system.stop_consumers();
    final_checks(&system, &ctx, router, poller, last);
    let peak = peak_rss_mb();
    let marks = ctx.timeline.snapshot();
    system.stop();

    let mut samples = Samples::default();
    let measured = Measured {
        workload: w,
        setup_s,
        peak_rss_mb: peak,
        marks: &marks,
        study_ms,
        reads: checked.latencies,
        read_seconds: (reads_done - start).as_secs_f64(),
    };
    let mut metrics = measured.end_to_end(&mut samples);
    if args.trace {
        let trace = ctx.tracer.finish();
        let windows: Vec<(Instant, Instant)> = marks
            .values()
            .filter_map(|m| Some((m.due?, m.held(timeline::Consumer::Rtr)?)))
            .collect();
        let mut layers = report::per_layer(&trace, &scraped, seconds, &windows);
        print_self_times(&trace);
        write_trace(w, args.seed, &trace);
        // The traced run's end-to-end numbers, so the tracing overhead
        // is these minus the untraced run's on the same seed.
        layers.extend(metrics.into_iter().map(|m| Metric {
            name: format!("traced.{}", m.name),
            ..m
        }));
        let coverage = layers
            .iter()
            .find(|m| m.name == "trace.rtr_coverage")
            .map_or(0.0, |m| m.value);
        if w.check_rtr_coverage {
            ctx.tally.check(coverage >= 0.9, || {
                format!("stage spans cover {coverage:.3} of event-to-RTR, below 0.9")
            });
        }
        metrics = layers;
    }
    finish(w, args, &seeds, &samples, &metrics, &ctx)
}

/// Set the system up; returns it and how long that took, s.
fn set_up(w: &Workload, seeds: &Seeds, trace: bool) -> Result<(System, f64), String> {
    let ctx = Arc::new(Ctx {
        timeline: Default::default(),
        served: Default::default(),
        tracer: trace::Tracer::new(trace),
        tally: Default::default(),
        stop: Default::default(),
    });
    let started = Instant::now();
    let system = System::start(w, seeds, ctx)?;
    Ok((system, started.elapsed().as_secs_f64()))
}

/// Run one set-up in a child process of this program and wait for it;
/// returns its set-up time, s.
fn set_up_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up process: {e}"))?;
    let (seed, world) = (args.seed.to_string(), args.world_seed.to_string());
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--world-seed", &world, "--seconds", "1", "--trace", "0"])
        .args(["--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let took = String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok());
    match took {
        Some(took) if out.status.success() => Ok(took),
        _ => Err(format!("set-up process failed ({})", out.status)),
    }
}

/// After the drain: the router's serial and set, and the poller's body,
/// equal the SLURM applier's last output; the router answers the known
/// probes.
fn final_checks(
    system: &System,
    ctx: &Ctx,
    router: Option<RouterEnd>,
    poller: Option<PollerResult>,
    last: u64,
) {
    let tally = &ctx.tally;
    let Some(want) = system.applier.last_out() else {
        tally.check(false, || "slurm applier never produced output".into());
        return;
    };
    match router {
        Some(Ok(client)) => {
            let serial = client.state().map(|(_, s)| u64::from(s));
            tally.check(serial == Some(last) && serial == Some(want.epoch()), || {
                format!("router serial {serial:?}, last epoch {last}")
            });
            tally.check(client.vrps() == want.vrps(), || {
                "router VRP set differs from the SLURM output".into()
            });
            let validator: RouteOriginValidator = client.to_validator();
            let probe = system.asserted[0];
            tally.check(
                validator.validate(&probe.prefix, probe.asn) == RpkiState::Valid
                    && validator.validate(&probe.prefix, Asn::new(PROBE_INVALID_ASN))
                        == RpkiState::Invalid,
                || "router: probes got the wrong verdicts".into(),
            );
        }
        Some(Err(e)) => {
            tally.check(false, || e);
        }
        None => {
            tally.check(false, || "router missing".into());
        }
    }
    match poller {
        Some(Ok(end)) => {
            let mut expected = Vec::new();
            let _ = ripki_payload::json::write_vrps_json(want, None, &mut expected);
            tally.check(end.epoch == last && end.body == expected, || {
                format!(
                    "poller holds epoch {} body differing from the SLURM output",
                    end.epoch
                )
            });
        }
        Some(Err(e)) => {
            tally.check(false, || e);
        }
        None => {
            tally.check(false, || "poller missing".into());
        }
    }
}

fn print_self_times(trace: &trace::Trace) {
    let selfs = trace.self_times();
    let total: f64 = selfs.values().sum();
    println!("# self time per layer (span duration minus child spans)");
    for (name, ms) in &selfs {
        println!(
            "#   {name:<24} {ms:>12.1} ms  {:>5.1}%",
            100.0 * ms / total.max(f64::EPSILON)
        );
    }
}

/// Spans go to `.bench_out/` under the working directory.
fn write_trace(w: &Workload, seed: u64, trace: &trace::Trace) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{seed}.json", w.name));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| trace.write_json(&mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn finish(
    w: &Workload,
    args: &Args,
    seeds: &Seeds,
    samples: &Samples,
    metrics: &[Metric],
    ctx: &Ctx,
) -> Result<bool, String> {
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        ctx.tally
            .check(false, || format!("{} had no samples", m.name));
    }
    let (attempted, failed) = (ctx.tally.attempted(), ctx.tally.failed());
    let failures = ctx.tally.first_failures();
    let correct = failed == 0 && attempted > 0;
    for m in metrics {
        println!("# {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &failures {
        println!("# FAILED: {f}");
    }

    let mut seed_map = Map::new();
    for (name, value) in [
        ("run", args.seed),
        ("world", seeds.world),
        ("churn", seeds.churn),
        ("schedule", seeds.schedule),
        ("slurm", seeds.slurm),
        ("reads", seeds.reads),
    ] {
        seed_map.insert(name.into(), value.into());
    }
    let mut counts = Map::new();
    for (name, n) in &samples.counts {
        counts.insert((*name).into(), (*n).into());
    }
    let mut tails = Map::new();
    tails.insert("epoch_pct".into(), workload::EPOCH_TAIL_PCT.into());
    tails.insert("read_pct".into(), w.read_tail_pct.into());
    let mut supported = Map::new();
    for (name, ok) in report::tails_supported(w, samples) {
        supported.insert(name.into(), ok.into());
    }
    tails.insert("ten_beyond".into(), Value::Object(supported));
    let schedule = match w.schedule {
        workload::Schedule::Open { mean } => {
            format!(
                "open loop, mean {} ms, jitter x U(0.5,1.5)",
                mean.as_millis()
            )
        }
        workload::Schedule::Closed => "closed loop".into(),
    };
    let mut envelope = Map::new();
    envelope.insert("workload".into(), w.name.into());
    envelope.insert(
        "nproc".into(),
        std::thread::available_parallelism()
            .map_or(0, std::num::NonZero::get)
            .into(),
    );
    envelope.insert("cpu_model".into(), cpu_model().into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    envelope.insert("build_profile".into(), profile.into());
    envelope.insert("network".into(), "loopback only".into());
    envelope.insert("seconds".into(), args.seconds.into());
    envelope.insert("traced".into(), args.trace.into());
    envelope.insert("seeds".into(), Value::Object(seed_map));
    envelope.insert("epoch_schedule".into(), schedule.into());
    envelope.insert("read_rps".into(), w.read_rps.into());
    envelope.insert("read_mix_block".into(), w.mix_block.into());
    envelope.insert("read_connections".into(), 2u64.into());
    envelope.insert(
        "poll_every_ms".into(),
        (clients::POLL_EVERY.as_millis() as u64).into(),
    );
    envelope.insert("samples".into(), Value::Object(counts));
    envelope.insert("tail".into(), Value::Object(tails));
    envelope.insert(
        "failed_share".into(),
        (failed as f64 / attempted.max(1) as f64).into(),
    );
    envelope.insert(
        "first_failures".into(),
        Value::Array(failures.into_iter().map(Value::from).collect()),
    );
    let mut outer = Map::new();
    outer.insert("envelope".into(), Value::Object(envelope));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(outer)).map_err(|e| e.to_string())?
    );

    let mut named = Map::new();
    for m in metrics {
        let mut entry = Map::new();
        entry.insert("value".into(), m.value.into());
        entry.insert("unit".into(), m.unit.into());
        named.insert(m.name.clone(), Value::Object(entry));
    }
    let mut result = Map::new();
    result.insert("correct".into(), correct.into());
    result.insert("attempted".into(), attempted.into());
    result.insert("failed".into(), failed.into());
    result.insert("metrics".into(), Value::Object(named));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())?
    );
    Ok(correct)
}
