//! The consumers at the end of the data path, each with its
//! correctness oracle: an RTR router driven by Serial Notify, an ETag
//! poller of the proxy HTTP target, and the open-loop readers of the
//! query plane.

use crate::timeline::{Consumer, Served, Timeline};
use crate::trace::{ms, Tracer};
use ripki::exposure::{exposure_curve, ExposureConfig};
use ripki::DomainMeasurement;
use ripki_bgp::rov::{RouteOriginValidator, RpkiState, VrpTriple};
use ripki_bgp::topology::Topology;
use ripki_dns::DomainName;
use ripki_net::{Asn, IpPrefix};
use ripki_proxy::http::{read_response, HttpResponse};
use ripki_rtr::Client;
use ripki_serve::api::state_label;
use std::collections::{BTreeSet, HashSet};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// How long the idle router blocks for incoming bytes before
/// re-checking whether to stop.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// Read timeout of any request/response exchange.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(10);
/// The ETag poller's cadence.
pub const POLL_EVERY: Duration = Duration::from_millis(10);

/// Checked operations and failures, shared by every oracle.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    first_failures: Mutex<Vec<String>>,
}

impl Tally {
    /// Count one checked operation; `ok == false` is a failure.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        // Relaxed: independent counters, read after every thread joined.
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut first = self
                .first_failures
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if first.len() < 8 {
                first.push(what());
            }
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn first_failures(&self) -> Vec<String> {
        self.first_failures
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// What every client thread shares.
pub struct Ctx {
    pub timeline: Timeline,
    pub served: Served,
    pub tracer: Tracer,
    pub tally: Tally,
    /// Stops the router and the poller.
    pub stop: AtomicBool,
}

impl Ctx {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The RTR router: Reset Query once, then a Serial Query whenever a
/// Serial Notify announces a newer serial. Returns the client so its
/// final VRP set can be checked.
pub fn run_router(addr: SocketAddr, ctx: &Ctx) -> Result<Client<TcpStream>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("router: {e}");
    let stream = TcpStream::connect(addr).map_err(|e| fail(&e))?;
    let _ = stream.set_nodelay(true);
    let control = stream.try_clone().map_err(|e| fail(&e))?;
    let mut client = Client::new(stream);
    let mut synced: Option<u64> = None;
    let mut notified: Option<Instant> = None;
    while !ctx.stopped() {
        if synced.is_some() {
            // Block until the cache sends something (a Serial Notify),
            // without consuming it, so an idle router stays asleep.
            control
                .set_read_timeout(Some(IDLE_WAIT))
                .map_err(|e| fail(&e))?;
            match control.peek(&mut [0u8; 1]) {
                Ok(0) => return Err(fail(&"cache closed the session")),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(fail(&e)),
            }
            let arrived = Instant::now();
            // Drain what arrived without waiting for more.
            control.set_nonblocking(true).map_err(|e| fail(&e))?;
            let polled = client.poll_notify();
            control.set_nonblocking(false).map_err(|e| fail(&e))?;
            if polled.map_err(|e| fail(&e))?.is_some() && notified.is_none() {
                notified = Some(arrived);
            }
            if !client.needs_sync() {
                continue;
            }
        }
        control
            .set_read_timeout(Some(EXCHANGE_TIMEOUT))
            .map_err(|e| fail(&e))?;
        let start = Instant::now();
        client.sync().map_err(|e| fail(&e))?;
        let end = Instant::now();
        let serial = u64::from(client.state().map_or(0, |(_, serial)| serial));
        ctx.timeline.held(Consumer::Rtr, serial, end);
        // Lockstep: the serial is an epoch the fabric published, and
        // the router holds exactly that epoch's number of VRPs.
        let mark = ctx.timeline.mark(serial);
        ctx.tally.check(
            mark.as_ref().is_some_and(|m| m.vrps == client.vrps().len()),
            || {
                format!(
                    "router: serial {serial} holds {} VRPs, epoch has {:?}",
                    client.vrps().len(),
                    mark.as_ref().map(|m| m.vrps)
                )
            },
        );
        if let Some(previous) = synced {
            // The wait starts when the first epoch this sync brings in
            // was published.
            let first = ctx.timeline.mark(previous + 1).and_then(|m| m.published);
            if let (Some(from), Some(to)) = (first, notified) {
                ctx.tracer.span("rtr.notify_wait", serial, from, to);
            }
            ctx.tracer.span("rtr.sync", serial, start, end);
            ctx.tracer.count(
                "rtr.epochs_per_sync",
                serial.saturating_sub(previous) as f64,
            );
        }
        synced = Some(serial);
        notified = None;
    }
    Ok(client)
}

/// One keep-alive HTTP/1.1 connection that reconnects after a
/// close-delimited response.
pub struct HttpConn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl HttpConn {
    pub fn new(addr: SocketAddr) -> HttpConn {
        HttpConn { addr, stream: None }
    }

    pub fn get(&mut self, path: &str, if_none_match: Option<&str>) -> io::Result<HttpResponse> {
        let result = self.exchange(path, if_none_match);
        let reusable = matches!(&result, Ok(r) if r.header("content-length").is_some()
            && !r.header("connection").is_some_and(|c| c.eq_ignore_ascii_case("close")));
        if !reusable {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, path: &str, if_none_match: Option<&str>) -> io::Result<HttpResponse> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
                let _ = stream.set_nodelay(true);
                stream
            }
        };
        let stream = self.stream.insert(stream);
        let conditional =
            if_none_match.map_or(String::new(), |tag| format!("if-none-match: {tag}\r\n"));
        // One write, so the request leaves as one segment.
        let request = format!(
            "GET {path} HTTP/1.1\r\nhost: {}\r\n{conditional}\r\n",
            self.addr
        );
        stream.write_all(request.as_bytes())?;
        read_response(stream)
    }
}

/// The epoch named by an entity tag `"ripki-epoch-N"`.
fn etag_epoch(tag: &str) -> Option<u64> {
    tag.trim_matches('"')
        .strip_prefix("ripki-epoch-")?
        .parse()
        .ok()
}

/// The raw value of the first `"key":` in a JSON document (string
/// values without their quotes). Enough for the flat, known shapes the
/// serving planes emit, and linear in the body size.
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let rest = &body[body.find(&pattern)? + pattern.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    json_field(body, key)?.parse().ok()
}

/// What the poller ends with: the epoch and body it last fetched.
pub struct PollerEnd {
    pub epoch: u64,
    pub body: Vec<u8>,
}

/// The ETag poller: a conditional `GET /vrps.json` every
/// [`POLL_EVERY`] against the proxy HTTP target.
pub fn run_poller(addr: SocketAddr, ctx: &Ctx) -> Result<PollerEnd, String> {
    let mut conn = HttpConn::new(addr);
    let mut held: Option<(String, u64, Vec<u8>)> = None;
    let mut next = Instant::now();
    while !ctx.stopped() {
        sleep_until(next);
        next = (next + POLL_EVERY).max(Instant::now());
        let tag = held.as_ref().map(|(tag, _, _)| tag.as_str());
        let start = Instant::now();
        let response = conn
            .get("/vrps.json", tag)
            .map_err(|e| format!("poller: {e}"))?;
        let end = Instant::now();
        match (response.status, &held) {
            (304, Some((tag, epoch, _))) => {
                ctx.tally.check(response.header("etag") == Some(tag), || {
                    format!(
                        "poller: 304 for {tag} carried {:?}",
                        response.header("etag")
                    )
                });
                ctx.tracer.request("http_target.poll", *epoch, start, end);
            }
            (200, _) => {
                let epoch = check_export(ctx, &response, "poller");
                ctx.timeline.held(Consumer::Http, epoch, end);
                ctx.tracer.span("http_target.fetch", epoch, start, end);
                ctx.tracer
                    .count("http_target.body_bytes", response.body.len() as f64);
                let tag = response.header("etag").unwrap_or_default().to_string();
                held = Some((tag, epoch, response.body));
            }
            // The target answers 503 until its feed delivered the first
            // payload, which only happens during set-up.
            (503, None) => {}
            (status, _) => {
                ctx.tally
                    .check(false, || format!("poller: unexpected status {status}"));
            }
        }
    }
    let (_, epoch, body) = held.ok_or("poller: never fetched a payload")?;
    Ok(PollerEnd { epoch, body })
}

/// Check a 200 `vrps.json` response against its own entity tag and the
/// epoch's VRP count; returns the epoch.
fn check_export(ctx: &Ctx, response: &HttpResponse, who: &str) -> u64 {
    let tag_epoch = response.header("etag").and_then(etag_epoch);
    let head = std::str::from_utf8(&response.body[..response.body.len().min(256)]).unwrap_or("");
    let body_epoch = json_u64(head, "epoch");
    let count = json_u64(head, "vrp_count");
    let expected = tag_epoch
        .and_then(|e| ctx.timeline.mark(e))
        .map(|m| m.vrps as u64);
    ctx.tally.check(
        tag_epoch.is_some() && tag_epoch == body_epoch && count.is_some() && count == expected,
        || format!("{who}: etag epoch {tag_epoch:?}, body epoch {body_epoch:?}, {count:?} VRPs, expected {expected:?}"),
    );
    tag_epoch.unwrap_or(0)
}

/// One planned read of the query plane.
#[derive(Debug, Clone)]
pub enum Read {
    /// `/api/v1/validity`; `expect` is set for the known probes.
    Validity {
        prefix: IpPrefix,
        asn: Asn,
        expect: Option<RpkiState>,
    },
    /// `/api/v1/domain/{name}` of the domain ranked `rank`.
    Domain { name: DomainName, rank: usize },
    /// Conditional `/vrps.json`.
    Vrps,
}

/// A read due `at` after the start of the measurement.
#[derive(Debug, Clone)]
pub struct Planned {
    pub at: Duration,
    pub read: Read,
}

/// What the checker measured over both readers.
#[derive(Default)]
pub struct ReaderEnd {
    /// The latency of every correct read, from when it was due to the
    /// response, ms.
    pub latencies: Vec<f64>,
    /// When the last correct read completed.
    pub last_done: Option<Instant>,
}

/// One read as a reader saw it, handed to the checker.
pub struct Answered<'a> {
    planned: &'a Planned,
    due: Instant,
    sent: Instant,
    /// Taken as soon as the response was read, before any check.
    done: Instant,
    /// The newest epoch opened at `done`.
    newest: u64,
    /// The entity tag a conditional `/vrps.json` sent.
    if_none_match: Option<String>,
    response: io::Result<HttpResponse>,
}

/// One open-loop reader over one keep-alive connection. Each read is
/// timed from when it was due, so a stall delays every later read. The
/// reader only measures: every response goes to the checker, so no
/// oracle work falls inside a timed interval or delays the next read.
pub fn run_reader<'a>(
    addr: SocketAddr,
    plan: &'a [Planned],
    start: Instant,
    end: Instant,
    checker: &mpsc::Sender<Answered<'a>>,
    ctx: &Ctx,
) {
    let mut conn = HttpConn::new(addr);
    let mut tag: Option<String> = None;
    for planned in plan {
        let due = start + planned.at;
        if due >= end {
            break;
        }
        sleep_until(due);
        let sent = Instant::now();
        ctx.tracer.count("gen.late_ms", ms(sent - due));
        let if_none_match = match planned.read {
            Read::Vrps => tag.clone(),
            _ => None,
        };
        let response = match &planned.read {
            Read::Validity { prefix, asn, .. } => {
                conn.get(&format!("/api/v1/validity?asn={asn}&prefix={prefix}"), None)
            }
            Read::Domain { name, .. } => conn.get(&format!("/api/v1/domain/{name}"), None),
            Read::Vrps => conn.get("/vrps.json", if_none_match.as_deref()),
        };
        let done = Instant::now();
        if let (Read::Vrps, Ok(r)) = (&planned.read, &response) {
            if r.status == 200 {
                tag = r.header("etag").map(str::to_string);
            }
        }
        let answered = Answered {
            planned,
            due,
            sent,
            done,
            newest: ctx.timeline.newest(),
            if_none_match,
            response,
        };
        if checker.send(answered).is_err() {
            break;
        }
    }
}

/// Check every read the readers answered, in arrival order, until both
/// readers are done; returns the latencies of the correct ones.
pub fn run_checker(answers: mpsc::Receiver<Answered<'_>>, ctx: &Ctx) -> ReaderEnd {
    let mut out = ReaderEnd::default();
    // `(epoch, rank)` pairs already asked for, so a domain query can be
    // classed cold or warm.
    let mut asked = HashSet::new();
    for a in answers {
        let response = match &a.response {
            Ok(r) => r,
            Err(e) => {
                let what = match a.planned.read {
                    Read::Validity { .. } => "validity",
                    Read::Domain { .. } => "domain",
                    Read::Vrps => "vrps.json",
                };
                ctx.tally.check(false, || format!("{what}: {e}"));
                continue;
            }
        };
        let seen = check_read(ctx, &a, response, &mut asked);
        if let Some((name, epoch)) = seen {
            ctx.timeline.held(Consumer::View, epoch, a.done);
            ctx.tracer.request(name, epoch, a.sent, a.done);
            ctx.tracer
                .count("serve.epoch_lag", a.newest.saturating_sub(epoch) as f64);
            out.latencies.push(ms(a.done - a.due));
            out.last_done = out.last_done.max(Some(a.done));
        }
    }
    out
}

/// Run the read's oracle; a correct read returns its span name and the
/// epoch its response was stamped with.
fn check_read(
    ctx: &Ctx,
    a: &Answered<'_>,
    response: &HttpResponse,
    asked: &mut HashSet<(u64, usize)>,
) -> Option<(&'static str, u64)> {
    match &a.planned.read {
        Read::Validity {
            prefix,
            asn,
            expect,
        } => check_validity(ctx, response, prefix, *asn, *expect)
            .map(|epoch| ("serve.validity", epoch)),
        Read::Domain { name, rank } => {
            let epoch = check_domain(ctx, response, name, *rank)?;
            let cold = asked.insert((epoch, *rank));
            let span = if cold {
                "serve.domain_cold"
            } else {
                "serve.domain_warm"
            };
            Some((span, epoch))
        }
        Read::Vrps => check_vrps(ctx, response, a.if_none_match.as_deref())
            .map(|epoch| ("serve.vrps_json", epoch)),
    }
}

fn body_str(response: &HttpResponse) -> &str {
    std::str::from_utf8(&response.body).unwrap_or("")
}

/// RFC 6811 over a VRP set, computed here independently of the
/// program's validator: the covering VRPs of `prefix` are those whose
/// prefix is `prefix` or one of its parents.
fn expected_state(vrps: &BTreeSet<VrpTriple>, prefix: &IpPrefix, origin: Asn) -> RpkiState {
    let mut covered = false;
    let mut cover = Some(*prefix);
    while let Some(p) = cover {
        let first = VrpTriple {
            prefix: p,
            max_length: 0,
            asn: Asn::new(0),
        };
        for vrp in vrps.range(first..).take_while(|v| v.prefix == p) {
            if vrp.asn == origin && prefix.len() <= vrp.max_length {
                return RpkiState::Valid;
            }
            covered = true;
        }
        cover = p.parent();
    }
    if covered {
        RpkiState::Invalid
    } else {
        RpkiState::NotFound
    }
}

/// The verdict equals RFC 6811 over the VRPs served at the stamped
/// epoch (and, for the probes, the known answer). Returns the epoch of
/// a correct answer.
fn check_validity(
    ctx: &Ctx,
    response: &HttpResponse,
    prefix: &IpPrefix,
    asn: Asn,
    expect: Option<RpkiState>,
) -> Option<u64> {
    let body = body_str(response);
    let epoch = json_u64(body, "epoch");
    let state = json_field(body, "state");
    let want = epoch
        .and_then(|e| ctx.served.get(e))
        .map(|served| state_label(expected_state(served.payload.vrps(), prefix, asn)));
    let ok = ctx.tally.check(
        response.status == 200
            && state.is_some()
            && state == want
            && expect.is_none_or(|e| Some(state_label(e)) == state),
        || format!("validity {asn} {prefix} at {epoch:?}: got {state:?}, want {want:?}, probe {expect:?}"),
    );
    epoch.filter(|_| ok)
}

/// The domain answer is stamped with a served epoch, names the right
/// rank, and carries a well-formed exposure. Exposure values are
/// recomputed and compared after the run (see [`check_exposures`]).
/// Returns the epoch of a correct answer.
fn check_domain(
    ctx: &Ctx,
    response: &HttpResponse,
    name: &DomainName,
    want_rank: usize,
) -> Option<u64> {
    let body = body_str(response);
    let epoch = json_u64(body, "epoch").filter(|&e| ctx.served.get(e).is_some());
    let rank = json_u64(body, "rank");
    let exposure = parse_exposure(body);
    let ok = ctx.tally.check(
        response.status == 200
            && epoch.is_some()
            && rank == Some(want_rank as u64)
            && exposure.is_some(),
        || {
            format!(
                "domain {name} at {epoch:?}: rank {rank:?} vs {want_rank}, exposure {exposure:?}"
            )
        },
    );
    epoch.filter(|_| ok)
}

/// `Some(None)` for `"exposure":null`, `Some(Some((capture, covered)))`
/// for a capture rate in `[0, 1]`, `None` for anything else.
fn parse_exposure(body: &str) -> Option<Option<(f64, bool)>> {
    if json_field(body, "exposure") == Some("null") {
        return Some(None);
    }
    let capture: f64 = json_field(body, "capture_rate")?.parse().ok()?;
    let covered = match json_field(body, "fully_covered")? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    (0.0..=1.0)
        .contains(&capture)
        .then_some(Some((capture, covered)))
}

/// Ask the query plane for each of `domains` and compare the answer
/// with an exposure the benchmark computes itself: `exposure_curve` on
/// that one domain (stride 1, the query plane's configuration
/// otherwise) over a validator built from the VRPs served at the epoch
/// stamped on the answer.
pub fn check_exposures(
    addr: SocketAddr,
    domains: &[DomainMeasurement],
    topology: &Topology,
    exposure: &ExposureConfig,
    ctx: &Ctx,
) {
    let mut conn = HttpConn::new(addr);
    let cfg = ExposureConfig {
        stride: 1,
        ..exposure.clone()
    };
    for domain in domains {
        let name = &domain.listed;
        let response = conn.get(&format!("/api/v1/domain/{name}"), None);
        let body = response.as_ref().map(body_str).unwrap_or("");
        let got = parse_exposure(body);
        let want = json_u64(body, "epoch")
            .and_then(|e| ctx.served.get(e))
            .map(|served| {
                let validator =
                    RouteOriginValidator::from_vrps(served.payload.vrps().iter().copied());
                exposure_curve(std::slice::from_ref(domain), topology, &validator, &cfg)
                    .first()
                    .map(|e| (e.capture_rate, e.fully_covered))
            });
        ctx.tally.check(want.is_some() && got == want, || {
            format!("domain {name}: exposure {got:?}, recomputed {want:?}")
        });
    }
}

/// A conditional export: 304 repeats the tag sent; 200 must be
/// byte-identical to the export of the VRPs served at its epoch.
/// Returns the epoch of a correct answer.
fn check_vrps(ctx: &Ctx, response: &HttpResponse, sent_tag: Option<&str>) -> Option<u64> {
    let got_tag = response.header("etag");
    let epoch = got_tag.and_then(etag_epoch);
    let ok = match response.status {
        304 => ctx
            .tally
            .check(got_tag.is_some() && got_tag == sent_tag, || {
                format!("vrps.json: 304 for {sent_tag:?} carried {got_tag:?}")
            }),
        200 => {
            check_export(ctx, response, "vrps.json");
            let served = epoch.and_then(|e| ctx.served.get(e));
            let want = served.as_ref().map(|s| s.export());
            ctx.tally.check(want == Some(response.body.as_slice()), || {
                format!("vrps.json at {epoch:?}: body differs from the epoch's export")
            })
        }
        status => ctx
            .tally
            .check(false, || format!("vrps.json: unexpected status {status}")),
    };
    epoch.filter(|_| ok)
}

/// One-shot GET of a small document (for `/metrics` and `/status`).
pub fn fetch_text(addr: SocketAddr, path: &str) -> Option<String> {
    let response = HttpConn::new(addr).get(path, None).ok()?;
    (response.status == 200).then(|| String::from_utf8_lossy(&response.body).into_owned())
}
