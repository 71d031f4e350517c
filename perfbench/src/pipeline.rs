//! The `identify` and `codec` workloads: in-process `Pipeline` round
//! trips over generated fields, one case per (field, model, codec).
//!
//! Every round runs each case once, compress then reconstruct, in an
//! order drawn from the seed; rounds repeat until the time is spent and
//! each case reports the median of its rounds. Interleaving the cases
//! spreads slow drift of the machine over all of them instead of
//! charging it to whichever case happens to run last. The untraced
//! calls are timed on the process's CPU clock, which also counts the
//! helper threads some models start, and each case is followed by one op
//! of reference work; every call of a round is rescaled by the median
//! reference op of that round (see [`crate::speed`]).
//!
//! The traced run spends half its time exactly like the untraced run
//! and half replaying each case layer by layer: the same public calls
//! the pipeline makes (`dimred::*_precondition`, `LossyCodec::compress`,
//! `Artifact::to_bytes`, ...) timed one by one, plus the linear-algebra
//! and wavelet calls inside the models. The replay's outputs are
//! checked against the pipeline's, so the per-layer times describe the
//! work the pipeline really does.

use std::collections::BTreeMap;

use lrm_compress::Shape;
use lrm_core::{
    dimred, projection, sz_paper_bounds, zfp_paper_bounds, LossyCodec, Pipeline, ReducedModelKind,
};
use lrm_datasets::{DatasetKind, Field};
use lrm_io::{Artifact, ChunkedArtifact};
use lrm_linalg::{randomized_svd, svd, Matrix, Pca, RsvdConfig};
use lrm_rng::Rng64;
use lrm_wavelet::WaveletModel;

use crate::check::{self, Failure, Tally};
use crate::metrics::Metrics;
use crate::speed::{self, Reference};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{dataset_key, Opts};

/// Which cases a pipeline workload runs.
pub struct Spec {
    pub datasets: &'static [DatasetKind],
    pub models: &'static [ReducedModelKind],
    pub codecs: &'static [&'static str],
}

/// The paper's expensive stage: reduced-model identification by the
/// dimension reducers, SZ paper bounds.
pub const IDENTIFY: Spec = Spec {
    datasets: &[DatasetKind::Heat3d, DatasetKind::Yf17Temp],
    models: &[
        ReducedModelKind::Pca,
        ReducedModelKind::Svd,
        ReducedModelKind::SvdRandomized,
    ],
    codecs: &["sz"],
};

/// Codec-bound cases: models that never call `lrm-linalg`, both codecs.
pub const CODEC: Spec = Spec {
    datasets: &[
        DatasetKind::Heat3d,
        DatasetKind::Yf17Temp,
        DatasetKind::Astro,
        DatasetKind::SedovPres,
    ],
    models: &[
        ReducedModelKind::Direct,
        ReducedModelKind::OneBase,
        ReducedModelKind::Wavelet,
    ],
    codecs: &["sz", "zfp"],
};

/// Snake-case model name used in metric names.
pub fn model_key(model: ReducedModelKind) -> &'static str {
    match model {
        ReducedModelKind::Direct => "original",
        ReducedModelKind::OneBase => "one_base",
        ReducedModelKind::Wavelet => "wavelet",
        ReducedModelKind::Pca => "pca",
        ReducedModelKind::Svd => "svd",
        ReducedModelKind::SvdRandomized => "svd_randomized",
        _ => "other",
    }
}

/// The models of the paper's Fig. 12 overhead view: the dimension
/// reducers, whose encode is compared with a bare ZFP encode.
fn in_fig12(model: ReducedModelKind) -> bool {
    matches!(
        model,
        ReducedModelKind::Pca | ReducedModelKind::Svd | ReducedModelKind::SvdRandomized
    )
}

/// The dual-bound codec pair of the paper for `codec`.
pub fn paper_bounds(codec: &str) -> (LossyCodec, LossyCodec) {
    if codec == "zfp" {
        zfp_paper_bounds()
    } else {
        sz_paper_bounds()
    }
}

/// The serial, one-chunk, 1-D-scan pipeline the paper's evaluation runs.
pub fn paper_pipeline(model: ReducedModelKind, codec: &str) -> Pipeline {
    let (orig, delta) = paper_bounds(codec);
    Pipeline::builder()
        .model(model)
        .codec(orig)
        .delta_codec(delta)
        .scan_1d(true)
        .threads(1)
        .chunks(1)
        .build()
}

struct Case {
    field: usize,
    model: ReducedModelKind,
    codec: &'static str,
    pipeline: Pipeline,
    label: String,
    /// Artifact bytes of the first compress; every repeat must match.
    reference: Vec<u8>,
    ratio: f64,
    k: usize,
    /// Untraced-phase call times: process CPU seconds rescaled to the
    /// nominal host, one per round.
    enc: Vec<f64>,
    dec: Vec<f64>,
    /// The same calls' wall seconds, as measured.
    enc_wall: Vec<f64>,
    dec_wall: Vec<f64>,
    /// Traced-phase span durations by span name.
    spans: BTreeMap<String, Vec<f64>>,
    /// Raw and compressed delta bytes, from the replay.
    delta_raw: usize,
    delta_packed: usize,
}

impl Case {
    fn med(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |v| median(v))
    }
}

/// Runs one pipeline workload on already generated `fields` (in
/// `spec.datasets` order) and appends its metrics.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &Spec,
    fields: &[Field],
    opts: &Opts,
    reference: &Reference,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let mut cases = Vec::new();
    for (f, kind) in spec.datasets.iter().enumerate() {
        for &model in spec.models {
            for &codec in spec.codecs {
                cases.push(Case {
                    field: f,
                    model,
                    codec,
                    pipeline: paper_pipeline(model, codec),
                    label: format!("{}.{}.{codec}", dataset_key(*kind), model_key(model)),
                    reference: Vec::new(),
                    ratio: 0.0,
                    k: 0,
                    enc: Vec::new(),
                    dec: Vec::new(),
                    enc_wall: Vec::new(),
                    dec_wall: Vec::new(),
                    spans: BTreeMap::new(),
                    delta_raw: 0,
                    delta_packed: 0,
                });
            }
        }
    }
    let mut rng = Rng64::new(opts.seed);

    // Warm-up round: fills caches and records each case's reference
    // artifact, ratio and component count.
    for case in &mut cases {
        let field = &fields[case.field];
        let art = case.pipeline.compress(field);
        case.ratio = art.report.ratio();
        case.k = art.report.k;
        let rec = case.pipeline.reconstruct(&art.bytes);
        tally.record(&case.label, verify(field, rec));
        case.reference = art.bytes;
    }

    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let untraced_secs = if traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let refs = timed_rounds(
        &mut cases,
        fields,
        &mut rng,
        untraced_secs,
        reference,
        tracer,
        tally,
        false,
    );

    if !traced {
        let per_case = |f: &dyn Fn(&Case) -> f64| cases.iter().map(f).collect::<Vec<f64>>();
        let enc_mbps = per_case(&|c| mbps(&fields[c.field], median(&c.enc)));
        let dec_mbps = per_case(&|c| mbps(&fields[c.field], median(&c.dec)));
        let round_trip = per_case(&|c| 1e3 * (median(&c.enc) + median(&c.dec)));
        let wall_enc = per_case(&|c| mbps(&fields[c.field], median(&c.enc_wall)));
        let wall_dec = per_case(&|c| mbps(&fields[c.field], median(&c.dec_wall)));
        notes.push(format!(
            "{} rounds; reference op median {:.4} ms (nominal {:.4} ms); as measured on the wall clock: encode {:.4} MB/s, decode {:.4} MB/s",
            refs.len(),
            1e3 * median(&refs),
            1e3 * speed::NOMINAL_OP_S,
            geomean(&wall_enc),
            geomean(&wall_dec),
        ));
        out.higher("encode_mbps", "MB/s", geomean(&enc_mbps));
        out.higher("decode_mbps", "MB/s", geomean(&dec_mbps));
        out.higher("ratio", "x", geomean(&per_case(&|c| c.ratio)));
        out.higher(
            "req_per_s",
            "1/s",
            2.0 * cases.len() as f64 / (round_trip.iter().sum::<f64>() / 1e3),
        );
        // Each case contributes equally many round trips, so the median
        // of the mix is the middle case's and its tail is the slowest
        // case's; per-case medians give both without the noise of single
        // extreme samples (a run holds fewer than ten samples beyond p99).
        out.lower("latency_p50_ms", "ms", median(&round_trip));
        out.lower(
            "latency_p99_ms",
            "ms",
            round_trip.iter().copied().fold(0.0, f64::max),
        );
        return;
    }

    tracer.set_enabled(true);
    timed_rounds(
        &mut cases,
        fields,
        &mut rng,
        opts.seconds / 2.0,
        reference,
        tracer,
        tally,
        true,
    );
    layer_metrics(spec, &cases, out);
}

/// Raw megabytes of `field` per second at `secs` per call.
fn mbps(field: &Field, secs: f64) -> f64 {
    field.nbytes() as f64 / secs / 1e6
}

/// Checks a pipeline reconstruction of `field`.
fn verify(
    field: &Field,
    rec: lrm_compress::DecodeResult<(Vec<f64>, Shape)>,
) -> Result<(), Failure> {
    match rec {
        Ok((data, shape)) => check::reconstruction(&field.data, field.shape, &data, shape),
        Err(_) => Err(Failure::Mismatch("decode_error")),
    }
}

/// Runs whole rounds until `seconds` have passed (at least one round).
/// Returns the median reference op of each round, in CPU seconds.
#[allow(clippy::too_many_arguments)]
fn timed_rounds(
    cases: &mut [Case],
    fields: &[Field],
    rng: &mut Rng64,
    seconds: f64,
    reference: &Reference,
    tracer: &mut Tracer,
    tally: &mut Tally,
    replay: bool,
) -> Vec<f64> {
    let start = tracer.now();
    let mut refs = Vec::new();
    let mut round = 0u64;
    let n = cases.len() as u64;
    let mut order: Vec<usize> = (0..cases.len()).collect();
    while round == 0 || tracer.now() - start < seconds {
        shuffle(&mut order, rng);
        let mut round_refs = Vec::with_capacity(order.len());
        for &i in &order {
            let case = &mut cases[i];
            let field = &fields[case.field];
            let op = round * n + i as u64;
            tracer.open("case", op);
            let c0 = speed::process_cpu();
            let (art, te) = tracer.time("pipeline.compress", op, || case.pipeline.compress(field));
            let c1 = speed::process_cpu();
            tally.record(&case.label, check::repeat(&case.reference, &art.bytes));
            let c2 = speed::process_cpu();
            let (rec, td) = tracer.time("pipeline.reconstruct", op, || {
                case.pipeline.reconstruct(&art.bytes)
            });
            let c3 = speed::process_cpu();
            let decoded = rec.as_ref().ok().map(|(d, _)| d.clone());
            tally.record(&case.label, verify(field, rec));
            round_refs.push(reference.op_cpu());
            if replay {
                push(case, "pipeline.compress", te);
                push(case, "pipeline.reconstruct", td);
                replay_layers(
                    case,
                    field,
                    &art.bytes,
                    decoded.as_deref(),
                    op,
                    tracer,
                    tally,
                );
            } else {
                case.enc.push(c1 - c0);
                case.dec.push(c3 - c2);
                case.enc_wall.push(te);
                case.dec_wall.push(td);
            }
            tracer.close();
        }
        let r = median(&round_refs);
        if !replay {
            for case in cases.iter_mut() {
                for t in [case.enc.last_mut(), case.dec.last_mut()]
                    .into_iter()
                    .flatten()
                {
                    *t = speed::rescale(*t, r);
                }
            }
        }
        refs.push(r);
        round += 1;
    }
    refs
}

fn shuffle(order: &mut [usize], rng: &mut Rng64) {
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range_usize(i + 1));
    }
}

fn push(case: &mut Case, span: &str, secs: f64) {
    case.spans.entry(span.to_string()).or_default().push(secs);
}

/// Times `f` as span `name` and files its duration under the case.
fn layer<T>(case: &mut Case, tracer: &mut Tracer, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
    let (out, secs) = tracer.time(name, op, f);
    push(case, name, secs);
    out
}

/// Replays one case's compress and reconstruct as separate public calls
/// into each layer, checking each output against the pipeline's.
fn replay_layers(
    case: &mut Case,
    field: &Field,
    artifact: &[u8],
    pipeline_output: Option<&[f64]>,
    op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let cfg = *case.pipeline.config();
    let (m, n) = field.matrix_dims();
    let matrix = || Matrix::from_vec(m, n, field.data.clone());
    match case.model {
        ReducedModelKind::Pca => {
            let a = matrix();
            layer(case, tracer, "linalg.pca_fit", op, || Pca::fit(&a));
        }
        ReducedModelKind::Svd => {
            let a = matrix();
            layer(case, tracer, "linalg.svd", op, || svd(&a));
        }
        ReducedModelKind::SvdRandomized => {
            // The probe rank `dimred::svd_randomized_precondition` uses.
            let a = matrix();
            let probe = RsvdConfig::rank(n.min(m).min(32));
            layer(case, tracer, "linalg.rsvd", op, || {
                randomized_svd(&a, &probe)
            });
        }
        ReducedModelKind::Wavelet => {
            let model = layer(case, tracer, "wavelet.fit", op, || {
                WaveletModel::fit(&field.data, m, n, cfg.theta_fraction)
            });
            layer(case, tracer, "wavelet.rebuild", op, || model.reconstruct());
        }
        _ => {}
    }
    let flat = Shape::d1(field.len());
    let zfp16 = LossyCodec::ZfpPrecision(16);
    if in_fig12(case.model) {
        layer(case, tracer, "fig12.zfp16_encode", op, || {
            zfp16.compress(&field.data, flat)
        });
    }

    // Encode: identify, delta encode, container write.
    let identify = format!("core.identify.{}", model_key(case.model));
    let (rep, delta) = match case.model {
        ReducedModelKind::Direct => (Vec::new(), field.data.clone()),
        ReducedModelKind::OneBase => {
            let o = layer(case, tracer, &identify, op, || {
                projection::one_base_precondition(field, &cfg.orig)
            });
            (o.rep_bytes, o.delta)
        }
        ReducedModelKind::Wavelet => {
            let o = layer(case, tracer, &identify, op, || {
                dimred::wavelet_precondition(field, cfg.theta_fraction)
            });
            (o.rep_bytes, o.delta)
        }
        ReducedModelKind::Pca => {
            let o = layer(case, tracer, &identify, op, || {
                dimred::pca_precondition(field, cfg.variance_fraction, &cfg.orig)
            });
            (o.rep_bytes, o.delta)
        }
        ReducedModelKind::Svd => {
            let o = layer(case, tracer, &identify, op, || {
                dimred::svd_precondition(field, cfg.variance_fraction, &cfg.orig)
            });
            (o.rep_bytes, o.delta)
        }
        _ => {
            let o = layer(case, tracer, &identify, op, || {
                dimred::svd_randomized_precondition(field, cfg.variance_fraction, &cfg.orig)
            });
            (o.rep_bytes, o.delta)
        }
    };
    let delta_codec = if case.model == ReducedModelKind::Direct {
        cfg.orig
    } else {
        cfg.delta
    };
    let encode = format!("compress.{}.encode", case.codec);
    let delta_bytes = layer(case, tracer, &encode, op, || {
        delta_codec.compress(&delta, flat)
    });
    case.delta_raw = delta.len() * 8;
    case.delta_packed = delta_bytes.len();

    // Decode: container parse, delta decode, model rebuild.
    let parsed = layer(case, tracer, "io.artifact_parse", op, || {
        let container = ChunkedArtifact::from_bytes(artifact).ok()?;
        let (_, payload) = container.chunks().next()?;
        Artifact::from_bytes(payload).ok()
    });
    let Some(parsed) = parsed else {
        tally.record(&case.label, Err(Failure::Mismatch("replay_parse")));
        return;
    };
    let section = |name: &str| parsed.get(name).unwrap_or_default().to_vec();
    let mut rebuilt = Artifact::new();
    for (name, bytes) in parsed.sections() {
        rebuilt.push(name, bytes.to_vec());
    }
    let written = layer(case, tracer, "io.artifact_write", op, || rebuilt.to_bytes());
    tally.record(&case.label, check::repeat(artifact, &written));
    tally.record(&case.label, check::repeat(&section("delta"), &delta_bytes));
    tally.record(&case.label, check::repeat(&section("rep"), &rep));

    let decode = format!("compress.{}.decode", case.codec);
    let Ok(delta) = layer(case, tracer, &decode, op, || {
        delta_codec.decompress(&delta_bytes, flat)
    }) else {
        tally.record(&case.label, Err(Failure::Mismatch("replay_decode")));
        return;
    };
    let rebuilt = match case.model {
        ReducedModelKind::Direct => Ok(delta),
        model => layer(case, tracer, "core.rebuild", op, || match model {
            ReducedModelKind::OneBase => {
                projection::one_base_reconstruct(&rep, &delta, field.shape, &cfg.orig)
            }
            ReducedModelKind::Wavelet => dimred::wavelet_reconstruct(&rep, &delta),
            ReducedModelKind::Pca => dimred::pca_reconstruct(&rep, &delta, &cfg.orig),
            _ => dimred::svd_reconstruct(&rep, &delta, &cfg.orig),
        }),
    };
    let same = matches!((&rebuilt, pipeline_output), (Ok(a), Some(b)) if a.as_slice() == b);
    tally.record(
        &case.label,
        if same {
            Ok(())
        } else {
            Err(Failure::Mismatch("replay_rebuild"))
        },
    );
}

/// Per-layer metrics from the traced phase: sums over cases of each
/// case's median span time.
fn layer_metrics(spec: &Spec, cases: &[Case], out: &mut Metrics) {
    let sum = |span: &str| cases.iter().map(|c| c.med(span)).sum::<f64>();
    let encode_total = sum("pipeline.compress");
    let decode_total = sum("pipeline.reconstruct");

    let linalg = ["linalg.svd", "linalg.pca_fit", "linalg.rsvd"];
    out.lower("linalg.svd_s", "s", sum("linalg.svd"));
    out.lower("linalg.pca_fit_s", "s", sum("linalg.pca_fit"));
    out.lower("linalg.rsvd_s", "s", sum("linalg.rsvd"));
    out.lower(
        "linalg.share",
        "fraction",
        linalg.iter().map(|s| sum(s)).sum::<f64>() / encode_total,
    );
    out.lower(
        "linalg.calls",
        "count",
        cases
            .iter()
            .map(|c| {
                linalg
                    .iter()
                    .map(|s| c.spans.get(*s).map_or(0, Vec::len))
                    .sum::<usize>()
            })
            .sum::<usize>() as f64,
    );

    out.lower("wavelet.fit_s", "s", sum("wavelet.fit"));
    out.lower("wavelet.rebuild_s", "s", sum("wavelet.rebuild"));
    let wavelet_decode: f64 = cases
        .iter()
        .filter(|c| c.model == ReducedModelKind::Wavelet)
        .map(|c| c.med("pipeline.reconstruct"))
        .sum();
    if wavelet_decode > 0.0 {
        out.lower(
            "wavelet.rebuild_share",
            "fraction",
            sum("wavelet.rebuild") / wavelet_decode,
        );
    }

    for model in spec.models {
        if *model != ReducedModelKind::Direct {
            let key = model_key(*model);
            out.lower(
                format!("core.identify_s.{key}"),
                "s",
                sum(&format!("core.identify.{key}")),
            );
        }
    }
    out.lower("core.rebuild_s", "s", sum("core.rebuild"));
    let glue: f64 = cases
        .iter()
        .map(|c| {
            let enc_parts: f64 = c
                .spans
                .keys()
                .filter(|k| k.starts_with("core.identify.") || k.ends_with(".encode"))
                .map(|k| c.med(k))
                .sum::<f64>()
                + c.med("io.artifact_write");
            let dec_parts: f64 = c
                .spans
                .keys()
                .filter(|k| k.ends_with(".decode"))
                .map(|k| c.med(k))
                .sum::<f64>()
                + c.med("io.artifact_parse")
                + c.med("core.rebuild");
            c.med("pipeline.compress") - enc_parts + c.med("pipeline.reconstruct") - dec_parts
        })
        .sum();
    out.lower("core.glue_s", "s", glue);
    for c in cases {
        if c.k > 0 {
            let label = c
                .label
                .rsplit_once('.')
                .map_or(c.label.as_str(), |(l, _)| l);
            out.lower(format!("core.k.{label}"), "count", c.k as f64);
        }
    }

    let mut codec_enc = 0.0;
    let mut codec_dec = 0.0;
    for codec in spec.codecs {
        let mine: Vec<&Case> = cases.iter().filter(|c| c.codec == *codec).collect();
        let raw: f64 = mine.iter().map(|c| c.delta_raw as f64).sum();
        let enc: f64 = mine
            .iter()
            .map(|c| c.med(&format!("compress.{codec}.encode")))
            .sum();
        let dec: f64 = mine
            .iter()
            .map(|c| c.med(&format!("compress.{codec}.decode")))
            .sum();
        codec_enc += enc;
        codec_dec += dec;
        out.higher(
            format!("compress.{codec}.encode_mbps"),
            "MB/s",
            raw / enc / 1e6,
        );
        out.higher(
            format!("compress.{codec}.decode_mbps"),
            "MB/s",
            raw / dec / 1e6,
        );
        let ratios: Vec<f64> = mine
            .iter()
            .map(|c| c.delta_raw as f64 / c.delta_packed.max(1) as f64)
            .collect();
        out.higher(
            format!("compress.{codec}.delta_ratio"),
            "x",
            geomean(&ratios),
        );
    }
    out.lower(
        "compress.share_encode",
        "fraction",
        codec_enc / encode_total,
    );
    out.lower(
        "compress.share_decode",
        "fraction",
        codec_dec / decode_total,
    );

    out.lower("io.artifact_write_s", "s", sum("io.artifact_write"));
    out.lower("io.artifact_parse_s", "s", sum("io.artifact_parse"));

    for model in spec.models.iter().filter(|m| in_fig12(**m)) {
        let overheads: Vec<f64> = cases
            .iter()
            .filter(|c| c.model == *model)
            .map(|c| c.med("pipeline.compress") / c.med("fig12.zfp16_encode"))
            .collect();
        out.lower(
            format!("fig12.overhead.{}", model_key(*model)),
            "x",
            geomean(&overheads),
        );
    }

    // Tracing overhead: the traced phase's pipeline calls against the
    // untraced phase's, summed over cases.
    let untraced: f64 = cases
        .iter()
        .map(|c| median(&c.enc_wall) + median(&c.dec_wall))
        .sum();
    out.lower(
        "trace.overhead_frac",
        "fraction",
        (encode_total + decode_total) / untraced - 1.0,
    );
}
