//! The correctness checks every timed operation passes through.
//!
//! An operation fails when its reconstruction has the wrong shape, turns
//! finite input into a non-finite value, misses the NRMSE bound of the
//! pipeline round-trip tests, when a repeat of one case yields different
//! artifact bytes, when the server answers with an error frame, or when
//! a served result differs from the in-process one.

use std::collections::BTreeMap;

use lrm_compress::Shape;
use lrm_server::{ClientError, ServerErrorKind};

/// The NRMSE bound of the pipeline round-trip tests.
pub const MAX_NRMSE: f64 = 0.05;

/// The NRMSE is normalized by the value range, but by no less than this
/// share of the largest magnitude. The codecs bound error relative to the
/// values (SZ rel 1e-5, ZFP 16 bit planes: up to ~6e-5 of a constant
/// block), so on a near-constant input, such as a slab of Sedov_pres's
/// ambient region spanning 3e-21 around 1e-5, a range-normalized error
/// measures the range, not the reconstruction.
pub const MIN_RANGE_SHARE: f64 = 1e-2;

/// Why one operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Reconstruction shape or length differs from the input's.
    Shape,
    /// A finite input value came back non-finite.
    NonFinite,
    /// Range-normalized RMSE above [`MAX_NRMSE`].
    Nrmse(f64),
    /// A repeat of one case produced different artifact bytes.
    ArtifactChanged,
    /// The server answered with a typed error frame.
    Server(ServerErrorKind),
    /// A served result differs from the expected one.
    Mismatch(&'static str),
}

impl Failure {
    /// Short label used to count failures by kind.
    pub fn label(&self) -> String {
        match self {
            Failure::Shape => "shape".into(),
            Failure::NonFinite => "non_finite".into(),
            Failure::Nrmse(_) => "nrmse".into(),
            Failure::ArtifactChanged => "artifact_changed".into(),
            Failure::Server(kind) => format!("server_{}", error_name(*kind)),
            Failure::Mismatch(what) => format!("mismatch_{what}"),
        }
    }
}

/// Snake-case name of a server error kind.
pub fn error_name(kind: ServerErrorKind) -> &'static str {
    match kind {
        ServerErrorKind::Busy => "busy",
        ServerErrorKind::TooLarge => "too_large",
        ServerErrorKind::Timeout => "timeout",
        ServerErrorKind::Malformed => "malformed",
        ServerErrorKind::Internal => "internal",
    }
}

/// Checks a reconstruction of `input` against the error contract.
pub fn reconstruction(
    input: &[f64],
    in_shape: Shape,
    output: &[f64],
    out_shape: Shape,
) -> Result<(), Failure> {
    if out_shape != in_shape || output.len() != input.len() {
        return Err(Failure::Shape);
    }
    if input
        .iter()
        .zip(output)
        .any(|(a, b)| a.is_finite() && !b.is_finite())
    {
        return Err(Failure::NonFinite);
    }
    let e = nrmse(input, output);
    if e > MAX_NRMSE {
        return Err(Failure::Nrmse(e));
    }
    Ok(())
}

/// RMSE over the finite pairs, normalized by the input's value range or
/// [`MIN_RANGE_SHARE`] of its largest magnitude, whichever is larger.
pub fn nrmse(input: &[f64], output: &[f64]) -> f64 {
    let (mut lo, mut hi, mut big) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
    for &v in input.iter().filter(|v| v.is_finite()) {
        lo = lo.min(v);
        hi = hi.max(v);
        big = big.max(v.abs());
    }
    let scale = (hi - lo).max(MIN_RANGE_SHARE * big);
    let rmse = lrm_stats::rmse(input, output);
    if scale > 0.0 {
        rmse / scale
    } else {
        rmse
    }
}

/// Checks that a repeat produced the same artifact bytes.
pub fn repeat(first: &[u8], now: &[u8]) -> Result<(), Failure> {
    if first == now {
        Ok(())
    } else {
        Err(Failure::ArtifactChanged)
    }
}

/// Maps a client-side error to a failure; socket errors are not
/// failures of one operation but of the run, so they are returned as
/// `Err` for the caller to abort on.
pub fn client_error(e: ClientError) -> Result<Failure, String> {
    match e {
        ClientError::Server { kind, .. } => Ok(Failure::Server(kind)),
        ClientError::Unexpected { .. } => Ok(Failure::Mismatch("response_kind")),
        ClientError::Decode(_) => Ok(Failure::Mismatch("response_frame")),
        ClientError::Io(e) => Err(format!("socket error: {e}")),
    }
}

/// Attempted and failed operation counts, failures by kind.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub by_kind: BTreeMap<String, u64>,
    /// The first failure seen, for the report.
    pub first: Option<String>,
}

impl Tally {
    /// Counts one operation with its check result.
    pub fn record(&mut self, what: &str, result: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = result {
            self.failed += 1;
            *self.by_kind.entry(f.label()).or_default() += 1;
            self.first.get_or_insert_with(|| format!("{what}: {f:?}"));
        }
    }

    /// Failed / attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Failures of one kind.
    pub fn count(&self, label: &str) -> u64 {
        self.by_kind.get(label).copied().unwrap_or(0)
    }
}
