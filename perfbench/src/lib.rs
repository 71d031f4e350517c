//! End-to-end and per-layer benchmark of the lrm precondition pipeline
//! and its server.
//!
//! Three workloads each load a different crate:
//!
//! * `identify` — PCA, SVD and randomized SVD on Heat3d and Yf17_temp:
//!   reduced-model identification in `lrm-linalg` dominates encode;
//! * `codec` — Direct, one-base and Wavelet under SZ and ZFP on four
//!   fields: `lrm-compress` dominates, `lrm-linalg` is never called;
//! * `serve` — a loopback `lrm-server` under a closed-loop request mix:
//!   the event loop, the framing and the worker pool.
//!
//! An untraced run reports the end-to-end metrics; a traced run keeps
//! spans around the benchmark's own calls into each crate and reports
//! the per-layer metrics. `BENCHMARK.json` at the repository root
//! declares every metric with its unit and direction; the benchmark
//! reads those lists from it ([`declarations`]).

pub mod check;
pub mod env;
pub mod metrics;
pub mod pipeline;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use lrm_bench::json::{parse_json, Json};
use lrm_datasets::{generate, DatasetKind, Field, SizeClass};

use check::Tally;
use metrics::{Better, Metric, Metrics};
use speed::Reference;
use trace::Tracer;

/// A metric `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
}

/// The metric lists of `BENCHMARK.json`: every untraced run reports
/// each `end_to_end` metric, every traced run each `per_layer` one.
pub struct Declarations {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

/// The declarations of the `BENCHMARK.json` the benchmark was built
/// with, parsed once.
///
/// # Panics
/// If that file does not parse or a metric lacks a name, a unit or a
/// direction.
pub fn declarations() -> &'static Declarations {
    static PARSED: OnceLock<Declarations> = OnceLock::new();
    PARSED.get_or_init(|| {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Declared> {
            let field = |m: &Json, k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {key} metric without {k}"))
                    .to_string()
            };
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .map(|m| Declared {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    better: match field(m, "better").as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => panic!("BENCHMARK.json direction {other}"),
                    },
                })
                .collect()
        };
        Declarations {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    })
}

/// Set-ups of a run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// How many of the set-ups follow the timed phase.
const SETUP_REPS_AFTER: usize = 2;
/// Reference ops timed before and after each set-up to rescale it.
const SETUP_REFERENCE_OPS: usize = 15;

/// The paper's Fig. 12 encode overheads over ZFP, for comparison.
pub const FIG12_PAPER: &[(&str, f64)] = &[("pca", 6.5), ("svd", 16.6)];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Identify,
    Codec,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Identify, Workload::Codec, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Identify => "identify",
            Workload::Codec => "codec",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fields the workload generates during set-up.
    fn datasets(self) -> &'static [DatasetKind] {
        match self {
            Workload::Identify => pipeline::IDENTIFY.datasets,
            Workload::Codec => pipeline::CODEC.datasets,
            Workload::Serve => &[DatasetKind::Heat3d, DatasetKind::SedovPres],
        }
    }
}

/// Snake-case dataset name used in metric names.
pub fn dataset_key(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::Heat3d => "heat3d",
        DatasetKind::Yf17Temp => "yf17_temp",
        DatasetKind::Astro => "astro",
        DatasetKind::SedovPres => "sedov_pres",
        _ => "other",
    }
}

/// Run settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Fixes the case order and the serve request sequence.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Keep spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Field size (`Small` for the benchmark, `Tiny` for smoke tests).
    pub size: SizeClass,
    /// Process start. The first set-up is timed on the process's CPU
    /// clock, which starts there; this marks the wall-clock start.
    pub started: Instant,
}

/// Everything one run produced.
pub struct Outcome {
    /// The declared metrics of the run's kind, in declaration order.
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub env: Json,
    pub tracer: Tracer,
    /// Human-readable remarks (sample counts, server counters).
    pub notes: Vec<String>,
}

/// Runs `workload` once.
pub fn run(workload: Workload, opts: &Opts) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(opts.trace);
    let mut tally = Tally::default();
    let mut out = Metrics::default();
    let mut notes = Vec::new();

    // The process runs on one core, except while the server is up: the
    // pipelines are configured with one thread, and this keeps the worker
    // pools that size themselves from the available cores (ZFP block
    // groups, matrix products, Heat3d generation) inline as well, so no
    // measurement waits on threads starting or on the other core.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let all_cores = speed::pin_to_one_core();
    if all_cores.is_some() {
        notes.push(match workload {
            Workload::Serve => "pinned to one core except while the server is up".into(),
            _ => "pinned to one core".into(),
        });
    }

    // Set-up, repeated so its median is steady. The first set-up is the
    // one the run uses, timed from process start; the machine's speed
    // wanders over tens of seconds, so the repeats are split between
    // before and after the timed phase. Each set-up is timed on the
    // process's CPU clock and rescaled by the reference work run right
    // before and right after it (see `speed`); the first set-up's "before"
    // is the sample taken after it.
    let mut setup_secs = Vec::new();
    let mut setup_wall = Vec::new();
    let mut generate_secs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (fields, server) = set_up(workload, opts, 0, &mut tracer, &mut generate_secs)?;
    let first_cpu = speed::process_cpu();
    setup_wall.push(opts.started.elapsed().as_secs_f64());
    let reference = Reference::new();
    let after_first = reference.sample_cpu(SETUP_REFERENCE_OPS);
    setup_secs.push(speed::rescale(first_cpu, after_first));
    let mut repeat_setup = |rep: usize, tracer: &mut Tracer| {
        let before = reference.sample_cpu(SETUP_REFERENCE_OPS);
        let (t0, c0) = (Instant::now(), speed::process_cpu());
        set_up(workload, opts, rep, tracer, &mut generate_secs)?;
        let cpu = speed::process_cpu() - c0;
        setup_wall.push(t0.elapsed().as_secs_f64());
        let after = reference.sample_cpu(SETUP_REFERENCE_OPS);
        setup_secs.push(speed::rescale(cpu, (before * after).sqrt()));
        Ok::<(), String>(())
    };
    for rep in 1..SETUP_REPS - SETUP_REPS_AFTER {
        repeat_setup(rep, &mut tracer)?;
    }
    let field_bytes: Vec<(String, usize)> = workload
        .datasets()
        .iter()
        .zip(&fields)
        .map(|(&k, f)| (dataset_key(k).to_string(), f.nbytes()))
        .collect();

    match (workload, server) {
        (Workload::Identify, _) => pipeline::run(
            &pipeline::IDENTIFY,
            &fields,
            opts,
            &reference,
            &mut tracer,
            &mut tally,
            &mut out,
            &mut notes,
        ),
        (Workload::Codec, _) => pipeline::run(
            &pipeline::CODEC,
            &fields,
            opts,
            &reference,
            &mut tracer,
            &mut tally,
            &mut out,
            &mut notes,
        ),
        (Workload::Serve, Some(setup)) => {
            if let Some(all) = &all_cores {
                speed::restore_cores(all);
            }
            serve::run(
                setup,
                opts,
                &reference,
                &mut tracer,
                &mut tally,
                &mut out,
                &mut notes,
            )?
        }
        (Workload::Serve, None) => unreachable!("serve set-up always builds a server"),
    }
    if workload == Workload::Serve && all_cores.is_some() {
        speed::pin_to_one_core();
    }
    for rep in SETUP_REPS - SETUP_REPS_AFTER..SETUP_REPS {
        repeat_setup(rep, &mut tracer)?;
    }
    out.lower("setup_s", "s", stats::median(&setup_secs));
    notes.push(format!(
        "set-up: {SETUP_REPS} runs, median {:.4} s on the CPU clock rescaled ({}), {:.4} s wall",
        stats::median(&setup_secs),
        setup_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        stats::median(&setup_wall)
    ));
    for (key, secs) in &generate_secs {
        out.lower(
            format!("datasets.generate_s.{key}"),
            "s",
            stats::median(secs),
        );
    }
    out.lower("trace.spans", "count", tracer.spans().len() as f64);
    notes.push(format!(
        "failed_frac = {} / {} = {} (fraction, lower is better)",
        tally.failed,
        tally.attempted,
        tally.failed_frac()
    ));
    if let Some(first) = &tally.first {
        notes.push(format!("first failure: {first}"));
    }

    let env = env::record(
        workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        nproc,
        &field_bytes,
    );
    let lists = declarations();
    let metrics = if opts.trace {
        declared(&out, &lists.per_layer, true)?
    } else {
        declared(&out, &lists.end_to_end, false)?
    };
    Ok(Outcome {
        metrics,
        tally,
        env,
        tracer,
        notes,
    })
}

/// One set-up of `workload`: its fields and, for `serve`, a bound
/// server with its request pools. Each field's generation time is added
/// to `generate_secs`.
fn set_up(
    workload: Workload,
    opts: &Opts,
    rep: usize,
    tracer: &mut Tracer,
    generate_secs: &mut BTreeMap<&'static str, Vec<f64>>,
) -> Result<(Vec<Field>, Option<serve::Setup>), String> {
    tracer.open("setup", rep as u64);
    let fields: Vec<Field> = workload
        .datasets()
        .iter()
        .map(|&kind| {
            let key = dataset_key(kind);
            let (pair, secs) = tracer.time(&format!("datasets.generate.{key}"), rep as u64, || {
                generate(kind, opts.size)
            });
            generate_secs.entry(key).or_default().push(secs);
            pair.full
        })
        .collect();
    let server = match workload {
        Workload::Serve => Some(serve::setup(&fields)?),
        _ => None,
    };
    tracer.close();
    Ok((fields, server))
}

/// The `list` metrics from `computed`, in declaration order. A metric
/// the workload did not compute reads 0 if `zero_if_missing` (a layer
/// the workload does not exercise) and is an error otherwise; so is an
/// undeclared metric or a unit or direction that disagrees with the
/// declaration.
fn declared(
    computed: &Metrics,
    list: &'static [Declared],
    zero_if_missing: bool,
) -> Result<Vec<Metric>, String> {
    let lists = declarations();
    let known = |name: &str| {
        lists
            .end_to_end
            .iter()
            .chain(&lists.per_layer)
            .any(|d| d.name == name)
    };
    if let Some(m) = computed.0.iter().find(|m| !known(&m.name)) {
        return Err(format!("metric {} is not declared", m.name));
    }
    list.iter()
        .map(|d| match computed.get(&d.name) {
            Some(m) if m.unit != d.unit || m.better != d.better => Err(format!(
                "metric {} computed as {} {:?}",
                d.name, m.unit, m.better
            )),
            Some(m) => Ok(m.clone()),
            None if zero_if_missing => Ok(Metric {
                name: d.name.clone(),
                unit: &d.unit,
                better: d.better,
                value: 0.0,
            }),
            None => Err(format!("workload did not compute {}", d.name)),
        })
        .collect()
}
