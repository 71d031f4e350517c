//! Ablations beyond the paper's figures: Table III's fit-time scaling,
//! partitioned and randomized decompositions, and the 2-D vs 3-D Haar
//! wavelet model.

use lrm_core::{Pipeline, PipelineConfig, ReducedModelKind};
use lrm_datasets::{generate, DatasetKind, SizeClass};
use lrm_linalg::{svd, Matrix, Pca};
use lrm_stats::rmse;
use lrm_wavelet::{WaveletModel, WaveletModel3d};
use std::time::Instant;

/// Seconds taken by one call of `f`: the fastest of `reps` runs.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fit times at one column count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Rows of the fitted matrix.
    pub m: usize,
    /// Columns of the fitted matrix.
    pub n: usize,
    /// PCA fit seconds.
    pub pca_s: f64,
    /// Exact SVD seconds.
    pub svd_s: f64,
    /// 2-D Haar wavelet fit seconds.
    pub wavelet_s: f64,
}

/// Table III: fit time of PCA (O(mn² + n³)), SVD (O(m²n + mn² + n³))
/// and the 2-D Haar wavelet (O(4mn² log n)) as the column count `n`
/// grows at fixed `m`. PCA and SVD should grow superlinearly in `n`,
/// SVD the faster of the two; the wavelet roughly n log n.
pub fn table3(size: SizeClass) -> Vec<ScalingRow> {
    let (m, ns) = match size {
        SizeClass::Tiny => (128, [8, 16, 32]),
        SizeClass::Small | SizeClass::Paper => (512, [16, 32, 64]),
    };
    ns.into_iter()
        .map(|n| {
            let mat = Matrix::from_fn(m, n, |r, c| {
                ((r as f64) * 0.11).sin() * ((c as f64) * 0.07).cos()
                    + 0.1 * (((r * 31 + c * 17) % 97) as f64 / 97.0)
            });
            ScalingRow {
                m,
                n,
                pca_s: best_of(5, || Pca::fit(&mat)),
                svd_s: best_of(5, || svd(&mat)),
                wavelet_s: best_of(5, || WaveletModel::fit(mat.as_slice(), m, n, 0.05)),
            }
        })
        .collect()
}

/// One partitioned (or randomized) decomposition run.
#[derive(Debug, Clone)]
pub struct PartitionedRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Reduced-model name.
    pub method: &'static str,
    /// Row blocks (`None` for the randomized sketch).
    pub blocks: Option<usize>,
    /// SZ compression ratio (paper bounds, 1-D scan).
    pub ratio: f64,
    /// Compression wall seconds.
    pub seconds: f64,
}

/// Partitioned PCA/SVD (the paper's future work #1) over 1–16 row
/// blocks, with the randomized SVD sketch for comparison, on Heat3d and
/// Yf17: how the block count trades compression time against ratio.
pub fn partitioned(size: SizeClass) -> Vec<PartitionedRow> {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Heat3d, DatasetKind::Yf17Temp] {
        let field = generate(kind, size).full;
        let mut run = |model: ReducedModelKind, blocks: Option<usize>| {
            let pipeline = Pipeline::from_config(PipelineConfig::sz(model).with_scan_1d(true));
            let t0 = Instant::now();
            let art = pipeline.compress(&field);
            rows.push(PartitionedRow {
                dataset: kind.name(),
                method: model.name(),
                blocks,
                ratio: art.report.ratio(),
                seconds: t0.elapsed().as_secs_f64(),
            });
        };
        for make in [ReducedModelKind::PcaBlocked, ReducedModelKind::SvdBlocked] {
            for blocks in [1, 2, 4, 8, 16] {
                run(make(blocks), Some(blocks));
            }
        }
        run(ReducedModelKind::SvdRandomized, None);
    }
    rows
}

/// The 2-D (paper) and 3-D Haar wavelet models of one volume.
#[derive(Debug, Clone)]
pub struct Wavelet3dRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Retained coefficients of the 2-D matrix-view model.
    pub nnz_2d: usize,
    /// Retained coefficients of the 3-D model.
    pub nnz_3d: usize,
    /// Representation bytes of the 2-D model.
    pub bytes_2d: usize,
    /// Representation bytes of the 3-D model.
    pub bytes_3d: usize,
    /// Reconstruction RMSE of the 2-D model.
    pub rmse_2d: f64,
    /// Reconstruction RMSE of the 3-D model.
    pub rmse_3d: f64,
}

/// 2-D vs 3-D Haar wavelet reduced models (θ = 5%) on the volumetric
/// datasets. The paper flattens every field into a matrix first, which
/// discards the z-correlation the separable 3-D transform keeps.
pub fn wavelet3d(size: SizeClass) -> Vec<Wavelet3dRow> {
    [
        DatasetKind::Heat3d,
        DatasetKind::Astro,
        DatasetKind::SedovPres,
        DatasetKind::Yf17Temp,
    ]
    .into_iter()
    .map(|kind| {
        let field = generate(kind, size).full;
        let [nx, ny, nz] = field.shape.dims;
        let (m, n) = field.matrix_dims();
        let m2 = WaveletModel::fit(&field.data, m, n, 0.05);
        let m3 = WaveletModel3d::fit(&field.data, nx, ny, nz, 0.05);
        Wavelet3dRow {
            dataset: kind.name(),
            nnz_2d: m2.coeffs.nnz(),
            nnz_3d: m3.coeffs.nnz(),
            bytes_2d: m2.representation_bytes(),
            bytes_3d: m3.representation_bytes(),
            rmse_2d: rmse(&field.data, &m2.reconstruct()),
            rmse_3d: rmse(&field.data, &m3.reconstruct()),
        }
    })
    .collect()
}
