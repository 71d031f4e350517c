//! The `serve` workload: an in-process `lrm-server` on loopback driven
//! as a closed loop by one client thread over two persistent LRMP v2
//! connections with four requests pipelined on each.
//!
//! The seeded mix is half Compress (z-slabs of 4–16 planes cut from
//! Heat3d or Sedov_pres, one of Direct/one-base/Wavelet, SZ or ZFP
//! paper bounds), three tenths Decompress (artifacts made in-process
//! during set-up) and one fifth Ping. Requests are small, so the event
//! loop, the framing and the worker pool are a visible share of each
//! round trip.
//!
//! Latency is measured by the client from send to the return of the
//! wait for that response; since the client waits on the connections
//! in turn, it includes the client's own head-of-line wait.
//!
//! The untraced load runs in [`WINDOWS`] stretches. Before the first
//! and after each, the load stops and reference work runs on one thread
//! per server worker at once (see [`crate::speed`]). Each stretch's
//! length has the time the hypervisor stole from the cores during it
//! taken out, its throughput and latency are rescaled by the reference
//! times around it, and each metric is the median over the stretches.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use lrm_bench::time_per_call;
use lrm_compress::Shape;
use lrm_core::{Pipeline, ReducedModelKind};
use lrm_datasets::Field;
use lrm_rng::Rng64;
use lrm_server::{
    CompressRequest, Connection, Request, RequestHandle, Response, Server, ServerStats, WireReport,
};

use crate::check::{self, Failure, Tally};
use crate::metrics::Metrics;
use crate::pipeline::{paper_bounds, paper_pipeline};
use crate::speed::{self, Reference};
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use crate::Opts;

/// Connections the client keeps open.
const CONNS: usize = 2;
/// Requests pipelined on each connection.
const DEPTH: usize = 4;
/// Worker threads of the server.
const SERVER_THREADS: usize = 2;
/// Distinct compress requests the mix draws from: every field × model ×
/// codec, at each of [`PLANES`].
const COMPRESS_POOL: usize = 60;
/// Slab thicknesses of the compress requests.
const PLANES: [usize; 5] = [4, 7, 10, 13, 16];
/// Distinct artifacts the decompress requests replay.
const ARTIFACT_POOL: usize = 12;
/// Each deck of requests holds every compress request once, every
/// artifact this many times, and [`DECK_PINGS`] pings: 60/36/24, the
/// 50/30/20 mix.
const DECK_REPLAYS: usize = 3;
const DECK_PINGS: usize = 24;
const MODELS: [ReducedModelKind; 3] = [
    ReducedModelKind::Direct,
    ReducedModelKind::OneBase,
    ReducedModelKind::Wavelet,
];
const CODECS: [&str; 2] = ["sz", "zfp"];
const KINDS: [&str; 3] = ["compress", "decompress", "ping"];
/// Stretches the untraced load phase is cut into. Each throughput and
/// latency metric is the median of its values in them, so a burst of
/// load from outside the benchmark that spoils a few stretches does not
/// move it.
const WINDOWS: usize = 9;
/// Reference ops each thread runs between two stretches.
const REFERENCE_OPS: usize = 8;

/// Everything made before the first timed request.
pub struct Setup {
    server: Server,
    pools: Pools,
}

/// The requests the mix draws from.
struct Pools {
    /// Compress requests.
    compress: Vec<Request>,
    /// Decompress requests with the in-process reconstruction of each.
    artifacts: Vec<(Request, Shape, Vec<f64>)>,
}

/// A z-slab compress request of `planes` planes at `z0`.
fn slab(
    field: &Field,
    z0: usize,
    planes: usize,
    model: ReducedModelKind,
    codec: &str,
) -> CompressRequest {
    let [nx, ny, _] = field.shape.dims;
    let plane = nx * ny;
    let (orig, delta) = paper_bounds(codec);
    CompressRequest {
        model,
        orig,
        delta,
        scan_1d: true,
        chunks: 1,
        shape: Shape::d3(nx, ny, planes),
        data: field.data[z0 * plane..(z0 + planes) * plane].to_vec(),
    }
}

/// The `i`-th slab of a fixed grid over fields × models × codecs, with
/// `planes` planes at a position spread over the field by `i`.
fn grid_slab(fields: &[Field], i: usize, planes: usize) -> CompressRequest {
    let field = &fields[i % fields.len()];
    let model = MODELS[(i / fields.len()) % MODELS.len()];
    let codec = CODECS[(i / (fields.len() * MODELS.len())) % CODECS.len()];
    let nz = field.shape.dims[2];
    let planes = planes.min(nz);
    let z0 = (i * 11 + 3) % (nz - planes + 1);
    slab(field, z0, planes, model, codec)
}

/// The in-process pipeline the server runs for `r`.
fn pipeline_for(r: &CompressRequest) -> Pipeline {
    paper_pipeline(r.model, if r.orig.name() == "ZFP" { "zfp" } else { "sz" })
}

fn field_of(r: &CompressRequest) -> Field {
    Field::new("slab", r.data.clone(), r.shape)
}

/// Binds the server and builds the request pools. The pools are the
/// same for every seed, so the mix composition is too; the seed picks
/// the request sequence.
pub fn setup(fields: &[Field]) -> Result<Setup, String> {
    let server = Server::builder()
        .threads(SERVER_THREADS)
        .bind()
        .map_err(|e| format!("bind loopback: {e}"))?;
    let compress = (0..COMPRESS_POOL)
        .map(|i| Request::Compress(grid_slab(fields, i, PLANES[i / 12 % PLANES.len()])))
        .collect();
    let artifacts = (0..ARTIFACT_POOL)
        .map(|i| {
            let r = grid_slab(fields, i, 6 + 4 * (i % 3));
            let bytes = pipeline_for(&r).compress(&field_of(&r)).bytes;
            let (data, shape) = Pipeline::builder()
                .threads(1)
                .build()
                .reconstruct(&bytes)
                .map_err(|e| format!("set-up artifact does not decode: {e}"))?;
            Ok((Request::Decompress { artifact: bytes }, shape, data))
        })
        .collect::<Result<_, String>>()?;
    Ok(Setup {
        server,
        pools: Pools {
            compress,
            artifacts,
        },
    })
}

/// What a sent request is and what its answer must be.
#[derive(Clone, Copy)]
enum Pending {
    Compress(usize),
    Decompress(usize),
    Ping(u64),
}

impl Pending {
    fn kind(self) -> usize {
        match self {
            Pending::Compress(_) => 0,
            Pending::Decompress(_) => 1,
            Pending::Ping(_) => 2,
        }
    }
}

/// One answered request.
struct Done {
    /// Index into [`KINDS`].
    kind: usize,
    /// Round-trip seconds.
    rtt: f64,
    /// Raw field bytes the answer carried out (compress) or back
    /// (decompress); 0 for a ping or a failed answer.
    raw: f64,
}

/// Results of one load phase.
#[derive(Default)]
struct Load {
    /// Every answered request, in the order the answers arrived.
    done: Vec<Done>,
    wall: f64,
    /// Compression ratio of each compress pool entry answered (0 if none).
    ratios: Vec<f64>,
    /// Completed compress requests per pool entry.
    uses: Vec<u64>,
    /// Completed decompress requests per artifact.
    replays: Vec<u64>,
}

impl Load {
    fn completed(&self) -> usize {
        self.done.len()
    }

    /// Appends the requests of a later stretch of the same load.
    fn absorb(&mut self, later: Load) {
        self.done.extend(later.done);
        self.wall += later.wall;
        for (mine, theirs) in self.ratios.iter_mut().zip(later.ratios) {
            if theirs > 0.0 {
                *mine = theirs;
            }
        }
        for (mine, theirs) in self.uses.iter_mut().zip(later.uses) {
            *mine += theirs;
        }
        for (mine, theirs) in self.replays.iter_mut().zip(later.replays) {
            *mine += theirs;
        }
    }

    /// Round-trip seconds of the requests of one kind.
    fn rtt(&self, kind: usize) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.rtt)
            .collect()
    }
}

struct LoadGen<'a> {
    pools: &'a Pools,
    rng: Rng64,
    /// Requests left in the current deck.
    deck: Vec<Pending>,
    /// First artifact served for each compress pool entry.
    first: Vec<Option<Vec<u8>>>,
    next_op: u64,
}

impl LoadGen<'_> {
    /// The next request of the seeded sequence: decks of the fixed mix,
    /// each shuffled, so every stretch of the run has the same
    /// composition.
    fn next(&mut self) -> Pending {
        if self.deck.is_empty() {
            self.deck
                .extend((0..self.pools.compress.len()).map(Pending::Compress));
            for _ in 0..DECK_REPLAYS {
                self.deck
                    .extend((0..self.pools.artifacts.len()).map(Pending::Decompress));
            }
            for _ in 0..DECK_PINGS {
                let echo = self.rng.next_u64();
                self.deck.push(Pending::Ping(echo));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.range_usize(i + 1);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("a refilled deck is not empty")
    }

    fn send(
        &mut self,
        conn: &mut Connection,
        tracer: &Tracer,
    ) -> Result<(RequestHandle, f64, Pending), String> {
        let pending = self.next();
        let sent = tracer.now();
        let handle = match pending {
            Pending::Compress(i) => conn.send(&self.pools.compress[i]),
            Pending::Decompress(i) => conn.send(&self.pools.artifacts[i].0),
            Pending::Ping(echo) => conn.send(&Request::Ping {
                echo: echo.to_le_bytes().to_vec(),
            }),
        };
        let handle = handle.map_err(|e| format!("send: {e}"))?;
        Ok((handle, sent, pending))
    }

    /// Checks one response against what its request must yield and
    /// returns the raw field bytes it carried.
    fn verify(
        &mut self,
        pending: Pending,
        response: Response,
        load: &mut Load,
    ) -> Result<f64, Failure> {
        match (pending, response) {
            (Pending::Compress(i), Response::Compressed { report, artifact }) => {
                load.ratios[i] = report.ratio();
                load.uses[i] += 1;
                match &self.first[i] {
                    Some(first) => check::repeat(first, &artifact),
                    None => {
                        self.first[i] = Some(artifact);
                        Ok(())
                    }
                }
                .map(|()| report.raw_bytes as f64)
            }
            (Pending::Decompress(i), Response::Decompressed { shape, data }) => {
                let (_, want_shape, want) = &self.pools.artifacts[i];
                load.replays[i] += 1;
                let same = shape == *want_shape
                    && data.len() == want.len()
                    && data
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if same {
                    Ok((data.len() * 8) as f64)
                } else {
                    Err(Failure::Mismatch("decompress"))
                }
            }
            (Pending::Ping(echo), Response::Pong { echo: got }) => {
                if got == echo.to_le_bytes() {
                    Ok(0.0)
                } else {
                    Err(Failure::Mismatch("ping"))
                }
            }
            _ => Err(Failure::Mismatch("response_kind")),
        }
    }

    /// Closed loop for `seconds`: every answered request is replaced by
    /// a new one on the same connection until the time is up, then the
    /// requests in flight are drained.
    fn drive(
        &mut self,
        addr: SocketAddr,
        seconds: f64,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Load, String> {
        let mut load = Load {
            uses: vec![0; self.pools.compress.len()],
            ratios: vec![0.0; self.pools.compress.len()],
            replays: vec![0; self.pools.artifacts.len()],
            ..Load::default()
        };
        let mut conns = (0..CONNS)
            .map(|_| Connection::open(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut inflight: Vec<VecDeque<(RequestHandle, f64, Pending)>> =
            vec![VecDeque::new(); CONNS];
        tracer.open("serve.load", 0);
        let start = tracer.now();
        for (conn, queue) in conns.iter_mut().zip(&mut inflight) {
            for _ in 0..DEPTH {
                queue.push_back(self.send(conn, tracer)?);
            }
        }
        while inflight.iter().any(|q| !q.is_empty()) {
            for c in 0..CONNS {
                let Some((handle, sent, pending)) = inflight[c].pop_front() else {
                    continue;
                };
                let answer = conns[c].wait(handle);
                let done = tracer.now();
                let kind = pending.kind();
                self.next_op += 1;
                tracer.record(&format!("serve.{}", KINDS[kind]), self.next_op, sent, done);
                let verdict = match answer {
                    Ok(response) => self.verify(pending, response, &mut load),
                    Err(e) => Err(check::client_error(e)?),
                };
                load.done.push(Done {
                    kind,
                    rtt: done - sent,
                    raw: *verdict.as_ref().unwrap_or(&0.0),
                });
                tally.record(KINDS[kind], verdict.map(|_| ()));
                if done - start < seconds {
                    let next = self.send(&mut conns[c], tracer)?;
                    inflight[c].push_back(next);
                }
            }
        }
        load.wall = tracer.now() - start;
        tracer.close();
        Ok(load)
    }
}

fn stop(
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServerStats>>,
) -> Result<ServerStats, String> {
    let acked = Connection::open(addr).and_then(|mut c| c.shutdown());
    let stats = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    acked.map_err(|e| format!("shutdown: {e}"))?;
    stats.map_err(|e| format!("serve: {e}"))
}

/// Runs the load against a freshly started server and appends metrics.
pub fn run(
    setup: Setup,
    opts: &Opts,
    reference: &Reference,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let Setup { server, pools } = setup;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let handle = std::thread::spawn(move || server.serve());
    let result = exercise(&pools, addr, opts, reference, tracer, tally, out, notes);
    let stats = stop(addr, handle)?;
    notes.push(format!(
        "server: {} served, {} rejected busy, {} connections",
        stats.served, stats.rejected_busy, stats.connections
    ));
    result
}

#[allow(clippy::too_many_arguments)]
fn exercise(
    pools: &Pools,
    addr: SocketAddr,
    opts: &Opts,
    reference: &Reference,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let mut load_gen = LoadGen {
        pools,
        rng: Rng64::new(opts.seed),
        deck: Vec::new(),
        first: vec![None; pools.compress.len()],
        next_op: 0,
    };
    let traced = tracer.enabled();

    // Idle ping round trips, before any load, for the queueing estimate.
    let mut idle = Vec::new();
    let mut conn = Connection::open(addr).map_err(|e| format!("connect: {e}"))?;
    for i in 0..200u64 {
        let (r, secs) = tracer.time("serve.ping_idle", i, || conn.ping(&i.to_le_bytes()));
        r.map_err(|e| format!("idle ping: {e}"))?;
        idle.push(secs);
    }
    drop(conn);

    tracer.set_enabled(false);
    let untraced_secs = if traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let sample = || reference.sample_cpu_parallel(SERVER_THREADS, REFERENCE_OPS);
    let mut before = sample();
    let mut stretches = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let stolen = speed::stolen();
        let load = load_gen.drive(addr, untraced_secs / WINDOWS as f64, tracer, tally)?;
        let stolen = speed::stolen() - stolen;
        let after = sample();
        stretches.push(Stretch {
            load,
            stolen,
            reference: (before * after).sqrt(),
        });
        before = after;
    }
    if !traced {
        notes.push(windowed(&stretches, out));
    }
    let mut a = Load::default();
    for Stretch { load, .. } in stretches {
        if a.uses.is_empty() {
            a = load;
        } else {
            a.absorb(load);
        }
    }
    let all: Vec<f64> = a.done.iter().map(|d| d.rtt * 1e3).collect();
    notes.push(format!(
        "serve: {} requests ({} compress, {} decompress, {} ping); whole phase p50 {:.3} ms, p99 {:.3} ms",
        all.len(),
        a.rtt(0).len(),
        a.rtt(1).len(),
        a.rtt(2).len(),
        percentile(&all, 50.0),
        percentile(&all, 99.0),
    ));
    if !traced {
        let answered: Vec<f64> = a.ratios.iter().copied().filter(|&r| r > 0.0).collect();
        out.higher("ratio", "x", geomean(&answered));
    }

    let b = if traced {
        tracer.set_enabled(true);
        Some(load_gen.drive(addr, opts.seconds / 2.0, tracer, tally)?)
    } else {
        None
    };

    // Every distinct compress answer must equal the in-process pipeline's
    // artifact and decode within the error bound.
    let mut inprocess = vec![0.0; pools.compress.len()];
    for (i, request) in pools.compress.iter().enumerate() {
        let (Request::Compress(r), Some(served)) = (request, &load_gen.first[i]) else {
            continue;
        };
        let field = field_of(r);
        let pipeline = pipeline_for(r);
        let (art, secs) = tracer.time("inprocess.compress", i as u64, || pipeline.compress(&field));
        inprocess[i] = secs;
        tally.record("compress_vs_inprocess", check::repeat(&art.bytes, served));
        let verdict = match pipeline.reconstruct(served) {
            Ok((data, shape)) => check::reconstruction(&field.data, field.shape, &data, shape),
            Err(_) => Err(Failure::Mismatch("decode_error")),
        };
        let what = format!(
            "compress {} {} {:?}",
            r.model.name(),
            r.orig.name(),
            r.shape.dims
        );
        tally.record(&what, verdict);
    }

    let Some(b) = b else {
        return Ok(());
    };
    for (k, kind) in KINDS.iter().enumerate() {
        let ms: Vec<f64> = b.rtt(k).iter().map(|s| s * 1e3).collect();
        out.lower(
            format!("server.rtt_p50_ms.{kind}"),
            "ms",
            percentile(&ms, 50.0),
        );
        out.lower(
            format!("server.rtt_p99_ms.{kind}"),
            "ms",
            percentile(&ms, 99.0),
        );
    }

    // In-process time of each request the traced phase served.
    let mut compress_times = Vec::new();
    for (i, &n) in b.uses.iter().enumerate() {
        compress_times.extend(std::iter::repeat_n(inprocess[i], n as usize));
    }
    let decoder = Pipeline::builder().threads(1).build();
    let mut execute = compress_times.iter().sum::<f64>();
    for (i, &n) in b.replays.iter().enumerate() {
        if n > 0 {
            let Request::Decompress { artifact } = &pools.artifacts[i].0 else {
                continue;
            };
            let (_, secs) = tracer.time("inprocess.reconstruct", i as u64, || {
                decoder.reconstruct(artifact)
            });
            execute += secs * n as f64;
        }
    }
    out.lower(
        "server.overhead_ms.compress",
        "ms",
        1e3 * (median(&b.rtt(0)) - median(&compress_times)),
    );
    out.lower(
        "server.ping_wait_ms",
        "ms",
        1e3 * (median(&b.rtt(2)) - median(&idle)),
    );
    out.higher(
        "parallel.worker_util_est",
        "fraction",
        execute / (b.wall * SERVER_THREADS as f64),
    );

    // Protocol codec speed on the workload's own frames.
    let mut requests: Vec<Request> = pools.compress.clone();
    requests.extend(pools.artifacts.iter().map(|(r, _, _)| r.clone()));
    requests.push(Request::Ping { echo: vec![0; 8] });
    let frames: Vec<(u8, Vec<u8>)> = requests
        .iter()
        .map(|r| (r.kind(), r.encode_payload()))
        .collect();
    let mut responses: Vec<Response> = Vec::new();
    for (i, served) in load_gen.first.iter().enumerate() {
        if let (Some(artifact), Request::Compress(r)) = (served, &pools.compress[i]) {
            let raw = (r.data.len() * 8) as u64;
            responses.push(Response::Compressed {
                report: WireReport {
                    raw_bytes: raw,
                    rep_bytes: 0,
                    delta_bytes: artifact.len() as u64,
                },
                artifact: artifact.clone(),
            });
        }
    }
    for (_, shape, data) in &pools.artifacts {
        responses.push(Response::Decompressed {
            shape: *shape,
            data: data.clone(),
        });
    }
    let reply_frames: Vec<(u8, Vec<u8>)> = responses
        .iter()
        .map(|r| (r.kind(), r.encode_payload()))
        .collect();
    let request_bytes: usize = frames.iter().map(|(_, p)| p.len()).sum();
    let reply_bytes: usize = reply_frames.iter().map(|(_, p)| p.len()).sum();
    let enc = time_per_call(3, || {
        for (i, r) in requests.iter().enumerate() {
            std::hint::black_box(r.to_frame_v2(i as u64));
        }
    });
    let dec = time_per_call(3, || {
        for (kind, payload) in &frames {
            let _ = std::hint::black_box(Request::decode(*kind, payload));
        }
        for (kind, payload) in &reply_frames {
            let _ = std::hint::black_box(Response::decode(*kind, payload));
        }
    });
    out.higher(
        "protocol.encode_mbps",
        "MB/s",
        request_bytes as f64 / enc / 1e6,
    );
    out.higher(
        "protocol.decode_mbps",
        "MB/s",
        (request_bytes + reply_bytes) as f64 / dec / 1e6,
    );
    for kind in ["busy", "too_large", "timeout", "malformed", "internal"] {
        out.lower(
            format!("server.errors.{kind}"),
            "count",
            tally.count(&format!("server_{kind}")) as f64,
        );
    }
    out.lower(
        "trace.overhead_frac",
        "fraction",
        (a.completed() as f64 / a.wall) / (b.completed() as f64 / b.wall) - 1.0,
    );
    Ok(())
}

/// One stretch of the untraced load.
struct Stretch {
    load: Load,
    /// Seconds the hypervisor held an average core away during it.
    stolen: f64,
    /// Reference op CPU seconds around it.
    reference: f64,
}

impl Stretch {
    /// The stretch's length on the nominal host: its wall time less the
    /// stolen time, rescaled by the reference.
    fn nominal(&self, wall: f64) -> f64 {
        let share = (self.load.wall - self.stolen).max(0.5 * self.load.wall) / self.load.wall;
        speed::rescale(wall * share, self.reference)
    }
}

/// Appends the untraced phase's throughput and latency metrics from its
/// stretches: every metric is the median over the stretches of its
/// value in one stretch, with stolen time taken out and rescaled to the
/// nominal host (see [`Stretch::nominal`]). Returns a remark on the
/// sample counts and the figures as measured.
fn windowed(stretches: &[Stretch], out: &mut Metrics) -> String {
    let rate = |s: &Stretch, amount: f64| amount / s.nominal(s.load.wall);
    let median_of =
        |f: &dyn Fn(&Stretch) -> f64| median(&stretches.iter().map(f).collect::<Vec<f64>>());
    let raw = |s: &Stretch, kind: usize| {
        s.load
            .done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.raw)
            .sum::<f64>()
            / 1e6
    };
    let ms = |s: &Stretch, p: f64| {
        let all: Vec<f64> = s.load.done.iter().map(|d| d.rtt * 1e3).collect();
        percentile(&all, p)
    };
    out.higher("encode_mbps", "MB/s", median_of(&|s| rate(s, raw(s, 0))));
    out.higher("decode_mbps", "MB/s", median_of(&|s| rate(s, raw(s, 1))));
    out.higher(
        "req_per_s",
        "1/s",
        median_of(&|s| rate(s, s.load.completed() as f64)),
    );
    out.lower(
        "latency_p50_ms",
        "ms",
        median_of(&|s| s.nominal(ms(s, 50.0))),
    );
    out.lower(
        "latency_p99_ms",
        "ms",
        median_of(&|s| s.nominal(ms(s, 99.0))),
    );
    let fewest = stretches
        .iter()
        .map(|s| s.load.completed())
        .min()
        .unwrap_or(0);
    format!(
        "serve metrics: medians over {WINDOWS} stretches of {:.2} s, the smallest with {fewest} requests ({} beyond p99); reference op median {:.4} ms (nominal {:.4} ms); stolen {:.3} s per core in all; as measured: {:.2} req/s, p50 {:.3} ms, p99 {:.3} ms",
        median_of(&|s| s.load.wall),
        fewest - fewest * 99 / 100,
        1e3 * median_of(&|s| s.reference),
        1e3 * speed::NOMINAL_OP_S,
        stretches.iter().map(|s| s.stolen).sum::<f64>(),
        median_of(&|s| s.load.completed() as f64 / s.load.wall),
        median_of(&|s| ms(s, 50.0)),
        median_of(&|s| ms(s, 99.0)),
    )
}
