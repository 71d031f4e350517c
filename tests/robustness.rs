//! Robustness integration tests: corrupt inputs, adversarial fields, and
//! failure-injection around the pipeline's parsing layers.

use lrm::core::{Pipeline, PipelineConfig, ReducedModelKind};
use lrm::datasets::Field;
use lrm::io::Artifact;
use lrm_compress::Shape;

fn sample_field() -> Field {
    let shape = Shape::d2(16, 12);
    let data: Vec<f64> = (0..shape.len())
        .map(|i| (i as f64 * 0.21).sin() * 7.0)
        .collect();
    Field::new("robust", data, shape)
}

#[test]
fn reconstruct_rejects_corrupt_magic() {
    let art = Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::OneBase))
        .compress(&sample_field());
    let mut bytes = art.bytes.clone();
    bytes[0] ^= 0xFF;
    // Corruption is reported as a typed error.
    let p = Pipeline::builder().build();
    assert!(
        p.reconstruct(&bytes).is_err(),
        "corrupt magic must not decode silently"
    );
}

#[test]
fn reconstruct_rejects_truncated_artifacts() {
    let art =
        Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::Pca)).compress(&sample_field());
    let p = Pipeline::builder().build();
    // Every strict prefix of the stream must decode to Err, never panic.
    for cut in 0..art.bytes.len() {
        assert!(
            p.reconstruct(&art.bytes[..cut]).is_err(),
            "truncation to {cut} bytes must not decode silently"
        );
    }
}

#[test]
fn artifact_sections_are_inspectable_without_reconstruction() {
    // A storage layer can account sizes without touching codec state.
    let art =
        Pipeline::from_config(PipelineConfig::zfp(ReducedModelKind::Svd)).compress(&sample_field());
    let parsed = Artifact::from_bytes(&art.bytes).expect("parse");
    let rep = parsed.get("rep").expect("rep").len();
    let delta = parsed.get("delta").expect("delta").len();
    assert_eq!(rep, art.report.rep_bytes);
    assert_eq!(delta, art.report.delta_bytes);
}

#[test]
fn adversarial_fields_roundtrip() {
    // Constant, alternating-sign, huge-dynamic-range, and subnormal-laden
    // fields must all survive the full pipeline within loose bounds.
    let shape = Shape::d2(20, 10);
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("constant", vec![3.125; shape.len()]),
        (
            "alternating",
            (0..shape.len())
                .map(|i| if i % 2 == 0 { 1e6 } else { -1e6 })
                .collect(),
        ),
        (
            "wide_range",
            (0..shape.len())
                .map(|i| 10f64.powi((i % 17) as i32 - 8))
                .collect(),
        ),
        (
            "tiny_values",
            (0..shape.len())
                .map(|i| 1e-300 * (i as f64 + 1.0))
                .collect(),
        ),
    ];
    for (name, data) in cases {
        let f = Field::new(name, data, shape);
        for cfg in [
            PipelineConfig::sz(ReducedModelKind::Direct),
            PipelineConfig::sz(ReducedModelKind::OneBase),
            PipelineConfig::sz(ReducedModelKind::Pca),
        ] {
            let pipeline = Pipeline::from_config(cfg);
            let art = pipeline.compress(&f);
            let (rec, _) = pipeline.reconstruct(&art.bytes).expect("valid artifact");
            assert_eq!(rec.len(), f.len(), "{name}/{:?}", cfg.model);
            let max = f.data.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            for (a, b) in f.data.iter().zip(&rec) {
                assert!(
                    (a - b).abs() <= 1e-2 * max + 1e-306,
                    "{name}/{:?}: {a} vs {b}",
                    cfg.model
                );
            }
        }
    }
}

#[test]
fn empty_and_single_point_fields() {
    let one = Field::new("one", vec![5.5], Shape::d1(1));
    for cfg in [
        PipelineConfig::sz(ReducedModelKind::Direct),
        PipelineConfig::sz(ReducedModelKind::Pca),
        PipelineConfig::sz(ReducedModelKind::Wavelet),
    ] {
        let pipeline = Pipeline::from_config(cfg);
        let art = pipeline.compress(&one);
        let (rec, _) = pipeline.reconstruct(&art.bytes).expect("valid artifact");
        assert_eq!(rec.len(), 1);
        assert!((rec[0] - 5.5).abs() < 1e-3, "{:?}: {}", cfg.model, rec[0]);
    }
}

#[test]
fn nan_inputs_do_not_poison_neighbors() {
    let shape = Shape::d1(64);
    let mut data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos() * 10.0).collect();
    data[20] = f64::NAN;
    let f = Field::new("nan", data.clone(), shape);
    let cfg = PipelineConfig::sz(ReducedModelKind::Direct);
    let pipeline = Pipeline::from_config(cfg);
    let art = pipeline.compress(&f);
    let (rec, _) = pipeline.reconstruct(&art.bytes).expect("valid artifact");
    for (i, (a, b)) in data.iter().zip(&rec).enumerate() {
        if i == 20 {
            continue; // the NaN cell itself may decode as NaN or 0
        }
        assert!(
            (a - b).abs() <= 1e-2 * 10.0,
            "index {i}: {a} vs {b} (NaN leaked)"
        );
    }
}
