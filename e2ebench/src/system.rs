//! The system under test, assembled from the repository's public
//! layers exactly as a deployment wires them: a study engine over a
//! generated world and its churn stream, a SLURM applier, a gossip
//! channel feeding the proxy RTR and HTTP targets, and the
//! `ripki-serve` query plane over a `SharedView`. Every epoch runs
//!
//! `apply_events` → `VrpPayload` → `SlurmApplier::ingest` →
//! `Gossip::publish` → `EpochView::new` → `SharedView::publish` →
//! `exposure_curve`,
//!
//! the last over a validator built from the served payload, as
//! `ripki-cli longitudinal` does.

use crate::clients::{self, Ctx, PollerEnd};
use crate::timeline::{Consumer, ServedEpoch};
use crate::trace::ms;
use crate::workload::{Schedule, Seeds, Workload, DOMAINS, SLURM_FILTERS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ripki::engine::StudyEngine;
use ripki::exposure::{exposure_curve, ExposureConfig};
use ripki::{PipelineConfig, StudyResults};
use ripki_bgp::rov::{RouteOriginValidator, VrpTriple};
use ripki_bgp::topology::Topology;
use ripki_net::{Asn, IpPrefix, Ipv4Prefix};
use ripki_payload::{PayloadUpdate, VrpDelta, VrpPayload};
use ripki_proxy::targets::{start_http_target, start_rtr_target, TargetHandle};
use ripki_proxy::{Gossip, Log};
use ripki_rtr::Client;
use ripki_serve::{EpochView, Server, ServerConfig, SharedView};
use ripki_slurm::{ExceptionSet, PrefixAssertion, PrefixFilter, SlurmApplier, SlurmFile};
use ripki_websim::churn::{ChurnConfig, ChurnStream, EpochChurn};
use ripki_websim::{Scenario, ScenarioConfig};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long consumers get to catch up with the last epoch.
const DRAIN: Duration = Duration::from_secs(5);

/// The ASN no VRP ever names: the known-invalid probe's origin.
pub const PROBE_INVALID_ASN: u32 = 4_199_999_999;

/// Generated inputs that are not part of the churn stream.
pub struct Inputs {
    pub slurm: SlurmFile,
    /// Asserted VRPs, in generation order (the first is the probe).
    pub asserted: Vec<VrpTriple>,
}

/// A seeded RFC 8416 document: `assertions` distinct /24s in
/// 200.0.0.0/7 (space the generated world never allocates), one filter
/// that drops a VRP the engine validated, and no-op prefix filters.
pub fn generate_slurm(w: &Workload, seed: u64, engine_vrps: &[VrpTriple]) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<u32> = (0..(2u32 << 16)).collect();
    slots.shuffle(&mut rng);
    let asserted: Vec<VrpTriple> = slots[..w.slurm_assertions]
        .iter()
        .map(|&slot| VrpTriple {
            prefix: v4((200 << 24) | (slot << 8), 24),
            max_length: 24,
            asn: Asn::new(rng.gen_range(64_496..65_535u32)),
        })
        .collect();
    let mut filters: Vec<PrefixFilter> = (1..SLURM_FILTERS)
        .map(|_| PrefixFilter {
            prefix: Some(v4((202 << 24) | (rng.gen_range(0..256u32) << 16), 16)),
            asn: Some(Asn::new(rng.gen_range(64_496..65_535u32))),
            comment: None,
        })
        .collect();
    if let Some(vrp) = engine_vrps.get(rng.gen_range(0..engine_vrps.len().max(1))) {
        filters.push(PrefixFilter {
            prefix: Some(vrp.prefix),
            asn: Some(vrp.asn),
            comment: Some("local override".into()),
        });
    }
    let assertions = asserted
        .iter()
        .map(|v| PrefixAssertion {
            prefix: v.prefix,
            asn: v.asn,
            max_length: Some(v.max_length),
            comment: None,
        })
        .collect();
    Inputs {
        slurm: SlurmFile {
            filters,
            assertions,
            warnings: Vec::new(),
        },
        asserted,
    }
}

fn v4(addr: u32, len: u8) -> IpPrefix {
    IpPrefix::V4(Ipv4Prefix::new(Ipv4Addr::from(addr), len).expect("aligned generated prefix"))
}

/// How the router thread ended: its client, for the final checks.
pub type RouterEnd = Result<Client<TcpStream>, String>;
/// How the poller thread ended.
pub type PollerResult = Result<PollerEnd, String>;

/// A running system plus its router and poller.
pub struct System {
    pub engine: StudyEngine,
    pub results: StudyResults,
    pub stream: ChurnStream,
    pub topology: Arc<Topology>,
    pub asserted: Vec<VrpTriple>,
    exceptions: ExceptionSet,
    pub applier: SlurmApplier,
    gossip: Gossip,
    pub exposure: ExposureConfig,
    shutdown: Arc<AtomicBool>,
    targets: Vec<TargetHandle>,
    pub shared: Arc<SharedView>,
    pub server: Server,
    pub ctx: Arc<Ctx>,
    router: Option<JoinHandle<RouterEnd>>,
    poller: Option<JoinHandle<PollerResult>>,
    /// Churn batch for the next epoch, generated before it is due.
    next_batch: Option<EpochChurn>,
}

impl System {
    /// Build everything and wait until the router and the poller hold
    /// the set-up epoch. The first churn epoch builds the engine's lazy
    /// domain index, so it runs here as warm-up.
    pub fn start(w: &Workload, seeds: &Seeds, ctx: Arc<Ctx>) -> Result<System, String> {
        let scenario = Scenario::build(ScenarioConfig {
            seed: seeds.world,
            ..ScenarioConfig::with_domains(DOMAINS)
        });
        let engine = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            PipelineConfig {
                bogus_dns_ppm: 0,
                now: scenario.now,
                ..Default::default()
            },
        );
        let mut results = engine.run(&scenario.ranking);
        let mut stream = ChurnStream::new(
            &scenario,
            ChurnConfig {
                seed: seeds.churn,
                ..ChurnConfig::default()
            },
        );
        engine.apply_events(&stream.next_epoch(), &mut results);
        let topology = Arc::new(scenario.topology.clone());
        drop(scenario);

        let snapshot = engine.snapshot();
        let inputs = generate_slurm(w, seeds.slurm, snapshot.vrps());
        let exceptions = inputs.slurm.compile();
        let mut applier = SlurmApplier::new(exceptions.clone());
        let source = VrpPayload::new(snapshot.epoch(), snapshot.vrps().iter().copied());
        let out = applier
            .ingest(&PayloadUpdate::snapshot(source))
            .ok_or("slurm: first ingest produced nothing")?;
        ctx.timeline
            .open(out.update.epoch(), None, out.update.payload.len());
        let gossip = Gossip::new();
        gossip.publish(out.update);

        let shutdown = Arc::new(AtomicBool::new(false));
        let log = Log::sink();
        let io = |e: std::io::Error| e.to_string();
        let rtr = start_rtr_target("rtr", "127.0.0.1:0", gossip.subscribe(), &log, &shutdown)
            .map_err(io)?;
        let http = start_http_target("http", "127.0.0.1:0", gossip.subscribe(), &log, &shutdown)
            .map_err(io)?;

        let exposure = ExposureConfig {
            stride: w.exposure_stride,
            ..ExposureConfig::default()
        };
        let view = EpochView::new(
            snapshot,
            Arc::new(results.clone()),
            Some(Arc::clone(&topology)),
            exposure.clone(),
        )
        .with_exceptions(&exceptions);
        let shared = Arc::new(SharedView::new(view));
        record_served(&ctx, &shared, &applier);
        let server = Server::start("127.0.0.1:0", Arc::clone(&shared), ServerConfig::default())
            .map_err(io)?;

        let (rtr_addr, http_addr) = (rtr.addr, http.addr);
        let router = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || clients::run_router(rtr_addr, &ctx))
        };
        let poller = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || clients::run_poller(http_addr, &ctx))
        };
        let system = System {
            next_batch: Some(stream.next_epoch()),
            engine,
            results,
            stream,
            topology,
            asserted: inputs.asserted,
            exceptions,
            applier,
            gossip,
            exposure,
            shutdown,
            targets: vec![rtr, http],
            shared,
            server,
            ctx,
            router: Some(router),
            poller: Some(poller),
        };
        let epoch = system.engine.epoch();
        if !system.wait_held(epoch, Instant::now() + DRAIN) {
            system.stop();
            return Err(format!("set-up: consumers never reached epoch {epoch}"));
        }
        Ok(system)
    }

    /// Whether the router and the poller both hold `epoch` by `deadline`.
    pub fn wait_held(&self, epoch: u64, deadline: Instant) -> bool {
        let timeline = &self.ctx.timeline;
        loop {
            let done = [Consumer::Rtr, Consumer::Http]
                .iter()
                .all(|&c| timeline.latest_held(c).is_some_and(|e| e >= epoch));
            let gone = self.router.as_ref().is_none_or(JoinHandle::is_finished)
                || self.poller.as_ref().is_none_or(JoinHandle::is_finished);
            if done || gone || Instant::now() > deadline {
                return done;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Run epochs on the workload's schedule until `end`; returns each
    /// epoch's study time (`apply_events` plus the exposure stage), ms.
    pub fn run_epochs(
        &mut self,
        schedule: Schedule,
        seed: u64,
        start: Instant,
        end: Instant,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut study_ms = Vec::new();
        let mut due = start;
        loop {
            if let Schedule::Closed = schedule {
                due = Instant::now().max(start);
            }
            if due >= end {
                break;
            }
            let next_due = match schedule {
                Schedule::Open { mean } => due + mean.mul_f64(rng.gen_range(0.5..1.5)),
                Schedule::Closed => due,
            };
            study_ms.push(self.epoch(due));
            due = next_due;
        }
        study_ms
    }

    /// One epoch through every stage; returns its study time, ms.
    fn epoch(&mut self, due: Instant) -> f64 {
        let batch = self.next_batch.take().expect("batch generated ahead");
        let ctx = &self.ctx;
        let tracer = &ctx.tracer;
        let epoch = self.engine.epoch() + 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        tracer.span("writer.wait", epoch, due, start);
        tracer.count("gen.epoch_late_ms", ms(start - due));

        let delta = self.engine.apply_events(&batch, &mut self.results);
        let applied = Instant::now();
        tracer.span("engine.apply_events", epoch, start, applied);
        tracer.count("engine.domains_remeasured", delta.domains_remeasured as f64);
        if let Some(stats) = delta.rpki_stats {
            tracer.count("rpki.objects_validated", stats.objects_validated as f64);
            tracer.count("rpki.points_reused", stats.points_reused as f64);
            tracer.count("rpki.points_total", stats.points_total as f64);
        }

        let snapshot = self.engine.snapshot();
        let source = PayloadUpdate {
            payload: VrpPayload::new(snapshot.epoch(), snapshot.vrps().iter().copied()),
            delta: Some(VrpDelta::new(
                delta.from_epoch,
                delta.to_epoch,
                delta.announced,
                delta.withdrawn,
            )),
        };
        let built = Instant::now();
        tracer.span("payload.build", epoch, applied, built);

        let out = self.applier.ingest(&source);
        let ingested = Instant::now();
        tracer.span("slurm.ingest", epoch, built, ingested);
        let published = match out {
            Some(out) => {
                tracer.count("slurm.incremental", f64::from(u8::from(out.incremental)));
                tracer.count("payload.vrps", out.update.payload.len() as f64);
                ctx.timeline
                    .open(out.update.epoch(), Some(due), out.update.payload.len());
                let accepted = self.gossip.publish(out.update);
                ctx.tally.check(accepted && snapshot.epoch() == epoch, || {
                    format!("epoch {epoch}: engine or gossip out of lockstep")
                });
                Instant::now()
            }
            None => {
                ctx.tally
                    .check(false, || format!("epoch {epoch}: slurm dropped the update"));
                ingested
            }
        };
        ctx.timeline.published(epoch, published);
        tracer.span("gossip.publish", epoch, ingested, published);

        self.shared.announce_epoch(epoch);
        let view = EpochView::new(
            snapshot,
            Arc::new(self.results.clone()),
            Some(Arc::clone(&self.topology)),
            self.exposure.clone(),
        )
        .with_exceptions(&self.exceptions);
        let view_built = Instant::now();
        tracer.span("serve.view_build", epoch, published, view_built);
        self.shared.publish(view);
        let view_published = Instant::now();
        tracer.span("serve.publish", epoch, view_built, view_published);
        record_served(ctx, &self.shared, &self.applier);

        let study_start = Instant::now();
        let validator = RouteOriginValidator::from_vrps(
            self.applier
                .last_out()
                .into_iter()
                .flat_map(|p| p.vrps().iter().copied()),
        );
        let exposures = exposure_curve(
            &self.results.domains,
            &self.topology,
            &validator,
            &self.exposure,
        );
        let studied = Instant::now();
        tracer.span("exposure.curve", epoch, study_start, studied);
        tracer.count(
            "exposure.propagations",
            (exposures.len() * self.exposure.attackers_per_domain) as f64,
        );
        tracer.span(crate::trace::ROOT, epoch, due, studied);

        // The next batch is generated now, before it is due.
        self.next_batch = Some(self.stream.next_epoch());
        ms(applied - start) + ms(studied - study_start)
    }

    /// Stop the router and the poller and return what they hold.
    pub fn stop_consumers(&mut self) -> (Option<RouterEnd>, Option<PollerResult>) {
        self.ctx.stop.store(true, Ordering::Release);
        let router = self.router.take().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("router thread panicked".into()))
        });
        let poller = self.poller.take().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("poller thread panicked".into()))
        });
        (router, poller)
    }

    /// Tear everything down and wait for every thread the system
    /// started (target connection threads end when their peer closes).
    pub fn stop(mut self) {
        drop(self.stop_consumers());
        self.gossip.close();
        self.shutdown.store(true, Ordering::SeqCst);
        for target in &mut self.targets {
            // The accept loops block in `accept`; one connection wakes
            // them to see the shutdown flag.
            let _ = TcpStream::connect(target.addr);
            for handle in [target.consume.take(), target.accept.take()]
                .into_iter()
                .flatten()
            {
                let _ = handle.join();
            }
        }
        self.server.shutdown();
    }
}

/// Remember what the query plane now serves, for the read oracles, and
/// check that it serves the SLURM output (every serving plane serves
/// one payload). Runs after the publish, outside every timed span.
fn record_served(ctx: &Ctx, shared: &SharedView, applier: &SlurmApplier) {
    let view = shared.current();
    if let Some(payload) = applier.last_out() {
        ctx.served.push(ServedEpoch::new(
            view.epoch(),
            payload.clone(),
            view.snapshot().rpki_rejected(),
        ));
    }
    let epoch = view.epoch();
    ctx.tally
        .check(Some(view.payload()) == applier.last_out(), || {
            format!("epoch {epoch}: query-plane payload differs from the SLURM output")
        });
}
