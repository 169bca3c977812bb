//! The daemon phase every workload interleaves with its passes: check
//! every target against the scan oracle, then, round by round, time daemon
//! starts and drive a closed-loop keep-alive client through sweeps of a
//! fixed request mix.
//!
//! About nine requests in ten are selective: the 190-query facet battery
//! of `query_baseline` (one unique-bug query per vendor and category, date
//! windows, composites) plus the 12 `serve_baseline` targets. About one in
//! ten is broad: a `limit` above the entry count, so the daemon renders
//! every hit. Transport dominates the selective requests and query
//! execution plus body rendering dominate the broad ones, so the median
//! and the tail latency watch different layers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use rememberr::{Database, QueryEngine};
use rememberr_model::{Context, Effect, MsrName, Trigger, WorkaroundCategory};
use rememberr_serve::http::{parse_query_string, Request};
use rememberr_serve::router::{self, parse_engine, parse_query, RouteCtx};
use rememberr_serve::state::ServeState;
use rememberr_serve::{ServeConfig, Server};

use crate::affinity::Pinning;
use crate::batch::{file_len, load};
use crate::checks::Checks;
use crate::metrics::{fastest, median, quantile_us, spread, Metrics};
use crate::trace::Tracer;
use crate::Config;

/// Daemon workers: two, never more than the cores. The load comes from one
/// closed-loop keep-alive client: two clients beside two workers on a
/// two-core host moved the median latency by 16% between runs (five seeds)
/// as the four threads met on the cores, while one client kept every
/// end-to-end metric within about 1% from run to run.
const MAX_WORKERS: usize = 2;
/// Timed daemon starts per round; `ready_s` is the fastest of the run.
const READY_STARTS_PER_ROUND: usize = 20;
/// Sweeps per round at least, window or not.
const MIN_ROUND_SWEEPS: usize = 2;
/// In-process timing sweeps per layer in a traced run (≥ 1,000 broad
/// samples, so each p99 has ten samples beyond it).
const TIMING_SWEEPS: usize = 50;
/// One sweep sends the mix this many times (1,120 requests).
const SWEEP_REPEATS: usize = 5;
/// One broad request follows every this many selective ones.
const BROAD_EVERY: usize = 9;
/// A `limit` above any paper-scale entry count.
const BROAD_LIMIT: usize = 100_000;

/// One distinct request target.
#[derive(Debug, Clone)]
struct Target {
    /// Path and query string.
    path: String,
    /// Whether the request renders every hit.
    broad: bool,
    /// Whether it belongs to the 190-query battery.
    battery: bool,
}

/// The distinct targets and the order one sweep sends them in.
#[derive(Debug, Clone)]
struct Mix {
    /// Distinct targets.
    targets: Vec<Target>,
    /// The mix once: indices into `targets`.
    sweep: Vec<usize>,
}

fn dashed(text: impl std::fmt::Display) -> String {
    text.to_string().to_ascii_lowercase().replace(' ', "-")
}

/// The fixed request mix.
fn mix() -> Mix {
    let mut selective = Vec::new();
    for vendor in ["intel", "amd"] {
        let base = format!("/query?vendor={vendor}&unique=1");
        for t in Trigger::ALL {
            selective.push(format!("{base}&trigger={t}"));
        }
        for c in Context::ALL {
            selective.push(format!("{base}&context={c}"));
        }
        for e in Effect::ALL {
            selective.push(format!("{base}&effect={e}"));
        }
        for m in MsrName::ALL {
            selective.push(format!("{base}&msr={m}"));
        }
        for w in WorkaroundCategory::ALL {
            selective.push(format!("{base}&workaround={}", dashed(w)));
        }
        selective.push(format!("{base}&after=2016-01-01&before=2019-01-01"));
        selective.push(format!(
            "{base}&effect={}&fix=no-fix-planned&after=2016-01-01",
            Effect::Hang
        ));
        selective.push(format!("{base}&trigger={}&min-triggers=2", Trigger::Reset));
    }
    let battery = selective.len();
    selective.extend(
        [
            "/count?vendor=intel&unique=1",
            "/count?vendor=amd&unique=1",
            "/query?vendor=intel&workaround=bios&limit=5",
            "/count?after=2016-01-01&before=2019-01-01&unique=1",
            "/query?annotated=1&min-triggers=2&limit=5",
            "/count?fix=no-fix-planned&vendor=amd",
        ]
        .map(String::from),
    );
    selective.push(format!(
        "/query?trigger={}&unique=1&limit=5",
        Trigger::ALL[0]
    ));
    selective.push(format!("/count?trigger={}&vendor=intel", Trigger::ALL[3]));
    selective.push(format!("/count?context={}&unique=1", Context::ALL[2]));
    selective.push(format!("/query?effect={}&unique=1&limit=5", Effect::ALL[1]));
    selective.push(format!("/count?effect={}&vendor=amd", Effect::ALL[0]));
    selective.push(format!(
        "/count?trigger={}&effect={}",
        Trigger::ALL[1],
        Effect::ALL[2]
    ));
    let broad = [
        format!("/query?vendor=intel&limit={BROAD_LIMIT}"),
        format!("/query?vendor=amd&limit={BROAD_LIMIT}"),
        format!("/query?after=2016-01-01&before=2019-01-01&limit={BROAD_LIMIT}"),
        format!("/query?annotated=1&min-triggers=2&limit={BROAD_LIMIT}"),
    ];

    let mut targets: Vec<Target> = selective
        .into_iter()
        .enumerate()
        .map(|(i, path)| Target {
            path,
            broad: false,
            battery: i < battery,
        })
        .collect();
    let first_broad = targets.len();
    targets.extend(broad.into_iter().map(|path| Target {
        path,
        broad: true,
        battery: false,
    }));
    let mut sweep = Vec::new();
    let mut next_broad = 0;
    for i in 0..first_broad {
        sweep.push(i);
        if (i + 1) % BROAD_EVERY == 0 {
            sweep.push(first_broad + next_broad % (targets.len() - first_broad));
            next_broad += 1;
        }
    }
    Mix { targets, sweep }
}

/// The in-process form of a target, as the daemon's parser builds it.
fn request(target: &str) -> Result<Request, String> {
    let (path, raw) = target.split_once('?').unwrap_or((target, ""));
    Ok(Request {
        method: "GET".to_string(),
        path: path.to_string(),
        params: parse_query_string(raw)?,
        close: false,
        arrived: Instant::now(),
    })
}

/// A keep-alive HTTP/1.1 client over one connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes read from the connection; the first `consumed` belong to the
    /// previous response.
    buf: Vec<u8>,
    consumed: usize,
}

impl Client {
    /// Connects to the daemon.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
            consumed: 0,
        })
    }

    /// One GET on the connection: status and body bytes.
    ///
    /// # Errors
    ///
    /// Socket errors, a closed connection, or a malformed response head.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        let (status, body) = self.exchange(target)?;
        Ok((status, self.buf[body].to_vec()))
    }

    /// One GET whose body is compared with `expected` where it was read,
    /// so the load loop copies no body: status and whether the body
    /// matched.
    ///
    /// # Errors
    ///
    /// As for [`Client::get`].
    pub fn get_matching(&mut self, target: &str, expected: &[u8]) -> io::Result<(u16, bool)> {
        let (status, body) = self.exchange(target)?;
        Ok((status, self.buf[body] == *expected))
    }

    /// Sends one GET and reads its whole response; returns the status and
    /// where the body lies in the read buffer.
    fn exchange(&mut self, target: &str) -> io::Result<(u16, std::ops::Range<usize>)> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        write!(self.stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]);
        let malformed = || io::Error::new(io::ErrorKind::InvalidData, format!("bad head {head:?}"));
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(malformed)?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(malformed)?;
        let body = head_end + 4..head_end + 4 + length;
        while self.buf.len() < body.end {
            self.fill()?;
        }
        self.consumed = body.end;
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn server_config() -> ServeConfig {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: cores.min(MAX_WORKERS),
        ..ServeConfig::default()
    }
}

/// Starts the daemon; returns it with the start's duration. The listener
/// is bound when `Server::start` returns, so from then on connections are
/// accepted; the untimed `/healthz` probe checks that the daemon answers.
fn start_ready(snapshot: &Path, checks: &mut Checks) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::start(server_config(), snapshot.to_path_buf())?;
    let ready = start.elapsed().as_secs_f64();
    match Client::connect(server.local_addr()).and_then(|mut c| c.get("/healthz")) {
        Ok((status, _)) => checks.status_ok("/healthz", status),
        Err(e) => checks.record(false, || format!("/healthz: {e}")),
    };
    Ok((server, ready))
}

/// The daemon phase, run round by round between blocks of batch passes,
/// so its samples span the whole window.
pub struct Phase {
    mix: Mix,
    /// In-process routing median of a traced run, µs.
    route_p50_us: f64,
    /// Timed daemon starts, seconds.
    ready: Vec<f64>,
    sweeps: Vec<Sweep>,
    /// The indexed bodies the oracle fetched in the first round.
    expected: Option<Vec<Vec<u8>>>,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            mix: mix(),
            route_p50_us: 0.0,
            ready: Vec::new(),
            sweeps: Vec::new(),
            expected: None,
        }
    }
}

impl Phase {
    /// One round over `snapshot`: a burst of timed starts, then sweeps
    /// against a fresh daemon until `until`. The first round also checks
    /// every target against the scan oracle and, in a traced run, times
    /// the layers in-process.
    ///
    /// # Errors
    ///
    /// Fails when the daemon cannot start; every later failure is a
    /// failed check.
    pub fn round(
        &mut self,
        snapshot: &Path,
        until: Instant,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let first = self.expected.is_none();
        if first && tracer.enabled() {
            self.route_p50_us = layer_timings(snapshot, &self.mix, tracer)?;
        }
        // The round runs on one CPU at a time, taking the allowed CPUs in
        // turn from one timed start or sweep to the next.
        let pinned = Pinning::new();
        if first && pinned.is_none() {
            eprintln!("cannot pin the daemon phase to one CPU; it runs unpinned");
        }
        let pinning = pinned.as_ref();
        let ready = starts(snapshot, READY_STARTS_PER_ROUND, pinning, tracer, checks)?;
        self.ready.extend(ready);
        turn(pinning, self.sweeps.len() / 2);
        let (server, _) = start_ready(snapshot, checks)?;
        let addr = server.local_addr();
        if first {
            self.expected = Some(oracle(addr, &self.mix, checks));
        }
        self.sweeps(addr, until, pinning, tracer, checks);
        daemon_totals(server.stop_and_wait(), tracer, checks);
        Ok(())
    }

    /// Closed-loop sweeps over one keep-alive connection until `until`,
    /// and at least `MIN_ROUND_SWEEPS`. Every response must carry status
    /// 200 and repeat the indexed body the oracle fetched. In a traced run
    /// odd sweeps are traced. Every other sweep moves to the next CPU in
    /// turn.
    fn sweeps(
        &mut self,
        addr: SocketAddr,
        until: Instant,
        pinning: Option<&Pinning>,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) {
        let (mix, sweeps) = (&self.mix, &mut self.sweeps);
        let expected = self
            .expected
            .as_deref()
            .expect("the first round fetched the oracle bodies");
        let mut client = Client::connect(addr);
        let mut round = 0;
        while round < MIN_ROUND_SWEEPS || Instant::now() < until {
            round += 1;
            // Sweeps move in pairs, so a traced run's traced and untraced
            // sweeps both visit every CPU.
            turn(pinning, sweeps.len() / 2);
            let traced = tracer.enabled() && sweeps.len() % 2 == 1;
            if !traced {
                checks.obs_off();
            }
            let mut latencies = Vec::with_capacity(SWEEP_REPEATS * mix.sweep.len());
            let (_, wall) = tracer.unit("bench.sweep", traced, false, |t| {
                t.layer("bench.http", None, || {
                    // The daemon's own spans would pile up over a sweep.
                    rememberr_obs::retain_spans(false);
                    for &i in std::iter::repeat_n(&mix.sweep, SWEEP_REPEATS).flatten() {
                        let target = &mix.targets[i].path;
                        let sent = Instant::now();
                        let response = match &mut client {
                            Ok(conn) => conn.get_matching(target, &expected[i]),
                            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
                        };
                        let latency = sent.elapsed();
                        let ok = match &response {
                            Ok((status, matched)) => *status == 200 && *matched,
                            Err(_) => {
                                client = Client::connect(addr);
                                false
                            }
                        };
                        if checks.record(ok, || match response {
                            Ok((status, _)) => {
                                format!("{target}: status {status} or changed body")
                            }
                            Err(e) => format!("{target}: {e}"),
                        }) {
                            latencies.push(latency);
                        }
                    }
                    rememberr_obs::retain_spans(true);
                });
            });
            sweeps.push(Sweep {
                traced,
                wall,
                latencies,
            });
        }
    }

    /// Sets `ready_s`, `serve_rps`, `serve_p50_us` and `serve_p99_us`
    /// (and `serve.transport_us` in a traced run).
    pub fn finish(mut self, config: &Config, tracer: &mut Tracer, metrics: &mut Metrics) {
        // Each sweep gives its own throughput and latency quantiles; the
        // metrics are their medians over the untraced sweeps, which span
        // the window. `ready_s` is the fastest start (see
        // `metrics::fastest`).
        let mut rows: Vec<[f64; 4]> = Vec::new();
        let mut samples = 0;
        for sweep in self.sweeps.iter_mut().filter(|s| !s.traced) {
            sweep.latencies.sort_unstable();
            samples += sweep.latencies.len();
            rows.push([
                sweep.latencies.len() as f64 / sweep.wall,
                quantile_us(&sweep.latencies, 0.5),
                quantile_us(&sweep.latencies, 0.99),
                sweep.wall,
            ]);
        }
        let column = |k: usize| rows.iter().map(|r| r[k]).collect::<Vec<_>>();
        let p50 = median(&column(1));
        metrics.set("ready_s", fastest(&self.ready));
        metrics.set("serve_rps", median(&column(0)));
        metrics.set("serve_p50_us", p50);
        metrics.set("serve_p99_us", median(&column(2)));
        tracer.set("serve.transport_us", p50 - self.route_p50_us);
        let name = config.workload.name();
        eprintln!(
            "{name}: {} daemon starts; ms {}",
            self.ready.len(),
            spread(&self.ready, 1e3)
        );
        eprintln!(
            "{name}: {samples} requests in {} untraced sweeps; sweep ms {}",
            rows.len(),
            spread(&column(3), 1e3)
        );
        for (k, what) in [(0, "req/s"), (1, "p50 us"), (2, "p99 us")] {
            eprintln!("{name}: sweep {what} {}", spread(&column(k), 1.0));
        }
    }
}

fn daemon_totals(summary: rememberr_serve::ServeSummary, tracer: &mut Tracer, checks: &mut Checks) {
    checks.record(summary.shed == 0, || {
        format!("daemon shed {}", summary.shed)
    });
    checks.record(summary.timeouts == 0, || {
        format!("daemon timed out {} requests", summary.timeouts)
    });
    tracer.set("serve.shed", summary.shed as f64);
    tracer.set("serve.timeouts", summary.timeouts as f64);
}

/// Fetches every distinct target once from the indexed engine and once
/// from the scan oracle; the bodies must match byte for byte. Returns the
/// indexed bodies, which every later response must repeat.
fn oracle(addr: SocketAddr, mix: &Mix, checks: &mut Checks) -> Vec<Vec<u8>> {
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            checks.record(false, || format!("oracle connect: {e}"));
            return vec![Vec::new(); mix.targets.len()];
        }
    };
    mix.targets
        .iter()
        .map(|target| {
            let scan_target = format!("{}&engine=scan", target.path);
            let (indexed, scan) = match (client.get(&target.path), client.get(&scan_target)) {
                (Ok(indexed), Ok(scan)) => (indexed, scan),
                (Err(e), _) | (_, Err(e)) => {
                    checks.record(false, || format!("{}: {e}", target.path));
                    return Vec::new();
                }
            };
            checks.status_ok(&target.path, indexed.0);
            checks.status_ok(&scan_target, scan.0);
            checks.bodies_match(&target.path, &indexed.1, &scan.1);
            indexed.1
        })
        .collect()
}

/// One sweep's client-side record.
struct Sweep {
    traced: bool,
    wall: f64,
    latencies: Vec<Duration>,
}

/// Pins the process to the `k`th allowed CPU, when it can be pinned.
fn turn(pinning: Option<&Pinning>, k: usize) {
    if let Some(pinning) = pinning {
        pinning.turn(k);
    }
}

/// Starts and stops the daemon `n` times, one at a time, each on the next
/// CPU in turn; returns the start times.
fn starts(
    snapshot: &Path,
    n: usize,
    pinning: Option<&Pinning>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Vec<f64>, String> {
    let mut ready = Vec::with_capacity(n);
    for k in 0..n {
        turn(pinning, k);
        let (server, secs) = start_ready(snapshot, checks)?;
        ready.push(secs);
        daemon_totals(server.stop_and_wait(), tracer, checks);
    }
    Ok(ready)
}

/// The traced run's in-process layer timings over the same mix: snapshot
/// load and index build, query execution (`Query::run_with`) and routing
/// (`router::respond`: parse, execute, render) per request class, and the
/// query counters of one sweep. Returns the routing median in µs.
fn layer_timings(snapshot: &Path, mix: &Mix, tracer: &mut Tracer) -> Result<f64, String> {
    let (db, _) = tracer.unit(
        "bench.ready",
        true,
        false,
        |t| -> Result<Database, String> {
            let db = t
                .layer("bench.load", Some("persist.binary.load_ms"), || {
                    load(snapshot)
                })
                .0?;
            t.add("persist.binary.bytes", file_len(snapshot) as f64);
            t.layer("bench.index", Some("index.build_ms"), || {
                let _ = db.query_index();
            });
            Ok(db)
        },
    );
    let db = db?;
    let requests: Vec<Request> = mix
        .targets
        .iter()
        .map(|t| request(&t.path))
        .collect::<Result<_, _>>()?;
    let queries = requests
        .iter()
        .map(|r| Ok((parse_query(r)?, parse_engine(r)?)))
        .collect::<Result<Vec<_>, String>>()?;
    // What the daemon's router runs for each target: `/count` counts
    // without materializing hits, `/query` collects them.
    let execute = |i: usize| {
        let (query, engine) = &queries[i];
        if requests[i].path == "/count" {
            query.count_with(&db, *engine)
        } else {
            query.run_with(&db, *engine).len()
        }
    };

    let ((), _) = tracer.unit("bench.queries", true, false, |t| {
        let (mut scanned, mut hits) = (0.0, 0.0);
        for &i in &mix.sweep {
            let (found, d) = t.layer("bench.query", None, || execute(i));
            let entries = d.counter("query.entries_scanned");
            scanned += entries;
            hits += found as f64;
            t.add("query.entries_scanned", entries);
            t.add(
                "query.postings_intersected",
                d.counter("query.postings_intersected"),
            );
            t.add("query.residual_checks", d.counter("query.residual_checks"));
        }
        for (i, target) in mix.targets.iter().enumerate() {
            if target.battery {
                let (query, _) = &queries[i];
                let (_, d) = t.layer("bench.query", None, || {
                    query.run_with(&db, QueryEngine::Indexed).len()
                });
                t.add(
                    "query.battery_entries_scanned",
                    d.counter("query.entries_scanned"),
                );
            }
        }
        t.add("query.hit_ratio", hits / scanned.max(1.0));
    });

    let mut exec: [Vec<Duration>; 2] = Default::default();
    for _ in 0..TIMING_SWEEPS {
        for &i in &mix.sweep {
            let start = Instant::now();
            std::hint::black_box(execute(i));
            exec[usize::from(mix.targets[i].broad)].push(start.elapsed());
        }
    }
    drop(db);

    let state = ServeState::boot(snapshot.to_path_buf())?;
    let shutdown = AtomicBool::new(false);
    let ctx = RouteCtx {
        state: &state,
        slow_endpoint: false,
        shutdown: &shutdown,
    };
    let mut route: [Vec<Duration>; 2] = Default::default();
    let mut body_bytes = 0usize;
    for sweep in 0..TIMING_SWEEPS {
        for &i in &mix.sweep {
            let start = Instant::now();
            let response = router::respond(&requests[i], &ctx);
            route[usize::from(mix.targets[i].broad)].push(start.elapsed());
            if sweep == 0 {
                body_bytes += response.body.len();
            }
        }
    }
    tracer.set("serve.body_bytes", body_bytes as f64);
    for (class, (exec, route)) in exec.iter_mut().zip(route.iter_mut()).enumerate() {
        exec.sort_unstable();
        route.sort_unstable();
        let names = if class == 0 {
            [
                "query.selective.exec_p50_us",
                "query.selective.exec_p99_us",
                "serve.selective.route_p50_us",
                "serve.selective.route_p99_us",
            ]
        } else {
            [
                "query.broad.exec_p50_us",
                "query.broad.exec_p99_us",
                "serve.broad.route_p50_us",
                "serve.broad.route_p99_us",
            ]
        };
        tracer.set(names[0], quantile_us(exec, 0.5));
        tracer.set(names[1], quantile_us(exec, 0.99));
        tracer.set(names[2], quantile_us(route, 0.5));
        tracer.set(names[3], quantile_us(route, 0.99));
    }
    let mut all_routes: Vec<Duration> = route.concat();
    all_routes.sort_unstable();
    Ok(quantile_us(&all_routes, 0.5))
}
