//! Table IV: end-to-end compression + I/O time, with and without staging.
//!
//! Two complementary reproductions:
//!
//! 1. [`table4_modeled`] feeds the paper's own measured compression times
//!    through the parametric storage model, validating that the model
//!    reproduces every row of Table IV.
//! 2. [`table4_measured`] measures *our* codecs' throughput on a Heat3d
//!    snapshot and runs the same accounting with the I/O model calibrated
//!    to Titan's compute-to-storage speed ratio (the paper's ZFP
//!    throughput vs per-proc effective Lustre bandwidth). Absolute
//!    numbers differ from the paper (different machine on both sides of
//!    the ratio); the *shape* — lightweight codecs beat the baseline,
//!    inline PCA erases the gain, staging wins outright — must hold.
//!
//! A third piece, [`staging_demo`], actually runs the threaded staging
//! pipeline and reports how little the application blocked.

use lrm_core::{Pipeline, PipelineConfig, ReducedModelKind};
use lrm_datasets::{generate, DatasetKind, SizeClass};
use lrm_io::{table4_rows, EndToEndRow, InterconnectModel, StagingPipeline, StorageModel};
use std::time::Instant;

/// The paper's measured inputs for Table IV (16.7 GB per proc, 64 procs).
pub fn table4_modeled() -> Vec<EndToEndRow> {
    table4_rows(
        &StorageModel::default(),
        &InterconnectModel::default(),
        64,
        16.7e9,
        ["ZFP", "SZ", "PCA(ZFP)", "PCA(SZ)"],
        // Ratios implied by the paper's I/O times (I/O scales with size).
        [52.48 / 20.39, 52.48 / 19.36, 52.48 / 9.23, 52.48 / 9.00],
        [12.09, 9.72, 44.87, 42.95],
    )
}

/// Measured variant: times our pipeline on a Heat3d snapshot and scales.
pub fn table4_measured(size: SizeClass, nprocs: usize) -> Vec<EndToEndRow> {
    let field = generate(DatasetKind::Heat3d, size).full;
    let raw = field.nbytes() as f64;

    let mut ratios = [0.0f64; 4];
    let mut times = [0.0f64; 4];
    let configs = [
        ("ZFP", PipelineConfig::zfp(ReducedModelKind::Direct)),
        ("SZ", PipelineConfig::sz(ReducedModelKind::Direct)),
        ("PCA(ZFP)", PipelineConfig::zfp(ReducedModelKind::Pca)),
        ("PCA(SZ)", PipelineConfig::sz(ReducedModelKind::Pca)),
    ];
    for (i, (_, cfg)) in configs.iter().enumerate() {
        let t0 = Instant::now();
        let art = Pipeline::from_config(*cfg).compress(&field);
        times[i] = t0.elapsed().as_secs_f64();
        ratios[i] = art.report.ratio();
    }

    // Calibrate the I/O model to Titan's compute-to-storage ratio: on the
    // paper's testbed, per-proc ZFP throughput (16.7 GB / 12.09 s) is
    // ~4.3x the per-proc effective aggregate bandwidth share
    // (20.4 GB/s / 64). Preserve that ratio around our measured ZFP
    // throughput.
    let zfp_bw = raw / times[0].max(1e-9);
    let titan_ratio = (16.7e9 / 12.09) / (20.4e9 / 64.0);
    let storage = StorageModel {
        aggregate_bw: zfp_bw * nprocs as f64 / titan_ratio,
        per_proc_bw: zfp_bw, // links never the bottleneck at this scale
        latency: 0.002,
    };
    // Staging interconnect: Titan's ratio of injection bandwidth to
    // aggregate storage bandwidth (81 / 20.4).
    let net = InterconnectModel {
        bw_per_node: storage.aggregate_bw * (81.0 / 20.4),
        latency: 0.001,
        staging_nodes: 1,
    };
    table4_rows(
        &storage,
        &net,
        nprocs,
        raw,
        ["ZFP", "SZ", "PCA(ZFP)", "PCA(SZ)"],
        ratios,
        times,
    )
}

/// Result of the live staging demonstration.
#[derive(Debug, Clone)]
pub struct StagingDemo {
    /// Snapshots staged.
    pub snapshots: usize,
    /// Wall time the application spent blocked in submits (s).
    pub app_blocked_s: f64,
    /// Wall time until the staging node finished everything (s).
    pub staging_total_s: f64,
    /// Total bytes stored after compression on the staging node.
    pub stored_bytes: usize,
    /// Total raw bytes shipped.
    pub raw_bytes: usize,
}

/// Runs the real staging pipeline: the "application" submits `count`
/// Heat3d snapshots while the staging thread compresses them with
/// PCA+SZ asynchronously.
pub fn staging_demo(size: SizeClass, count: usize) -> StagingDemo {
    let field = generate(DatasetKind::Heat3d, size).full;
    let shape = field.shape;
    let cfg = PipelineConfig::sz(ReducedModelKind::Pca);
    let pipeline = StagingPipeline::start(count.max(2), move |name, data| {
        let f = lrm_datasets::Field::new(name.to_string(), data.to_vec(), shape);
        Pipeline::from_config(cfg).compress(&f).bytes
    });
    let t0 = Instant::now();
    for i in 0..count {
        pipeline.submit(format!("snap{i}"), field.data.clone());
    }
    let app_blocked = pipeline.application_blocked_time().as_secs_f64();
    let results = pipeline.finish();
    let total = t0.elapsed().as_secs_f64();
    StagingDemo {
        snapshots: results.len(),
        app_blocked_s: app_blocked,
        staging_total_s: total,
        stored_bytes: results.iter().map(|r| r.stored_bytes).sum(),
        raw_bytes: results.iter().map(|r| r.raw_bytes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_rows_match_paper_shape() {
        let rows = table4_modeled();
        assert_eq!(rows.len(), 6);
        let totals: Vec<f64> = rows.iter().map(|r| r.total()).collect();
        // ZFP+I/O and SZ+I/O beat the baseline; staging beats everything.
        assert!(totals[1] < totals[0] && totals[2] < totals[0]);
        assert!(totals[5] < totals.iter().take(5).fold(f64::INFINITY, |a, &b| a.min(b)));
        // PCA rows are near the baseline (the paper's "similar to
        // baseline" observation).
        assert!((totals[3] - totals[0]).abs() / totals[0] < 0.3);
    }

    #[test]
    fn measured_rows_keep_the_shape() {
        let rows = table4_measured(SizeClass::Tiny, 64);
        let totals: Vec<f64> = rows.iter().map(|r| r.total()).collect();
        assert!(totals[1] < totals[0], "ZFP must beat baseline: {totals:?}");
        assert!(
            totals[5] < totals[0],
            "staging must beat baseline: {totals:?}"
        );
    }

    #[test]
    fn staging_demo_keeps_application_unblocked() {
        let demo = staging_demo(SizeClass::Tiny, 4);
        assert_eq!(demo.snapshots, 4);
        assert!(demo.stored_bytes > 0 && demo.raw_bytes > 0);
        // The application must block for far less than the staging node's
        // total processing time.
        assert!(demo.app_blocked_s <= demo.staging_total_s, "{demo:?}");
    }
}
