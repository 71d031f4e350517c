//! Experiment drivers, one module per paper artifact.
//!
//! Every table and figure of the paper's evaluation has a function here
//! that regenerates it; the CLI (`lrm-cli`) and the integration tests
//! both call these same drivers.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Fig. 1 | [`characteristics::fig1`] |
//! | Table II | [`characteristics::table2`] |
//! | Fig. 3 | [`projection::fig3`] |
//! | Fig. 4 | [`projection::fig4`] |
//! | Fig. 6 / 9 / 10 | [`dimred::dimred_grid`] |
//! | Fig. 7 | [`dimred::fig7`] |
//! | Fig. 8 | [`dimred::fig8`] |
//! | Fig. 11 | [`rate_distortion::fig11`] |
//! | Fig. 12 | [`overhead::fig12`] |
//! | Table III | [`ablation::table3`] |
//! | Table IV | [`end_to_end::table4_modeled`] / [`end_to_end::table4_measured`] |
//!
//! [`ablation::partitioned`] and [`ablation::wavelet3d`] measure the
//! extensions beyond the paper.

pub mod ablation;
pub mod characteristics;
pub mod dimred;
pub mod end_to_end;
pub mod overhead;
pub mod projection;
pub mod rate_distortion;
