//! # cuisine-stats
//!
//! Statistics substrate for the cuisine-evolution workspace — the Rust
//! reproduction of *Tuwani et al., "Computational models for the evolution
//! of world cuisines" (ICDE 2019)*.
//!
//! The paper's analysis rests on a handful of statistical tools that this
//! crate provides from first principles:
//!
//! - [`descriptive`] — means, quantiles, moments, sample summaries.
//! - [`histogram`] — continuous and integer histograms (Fig. 1).
//! - [`boxplot`] — Tukey box-and-whisker statistics (Fig. 2).
//! - [`sampling`] — seeded samplers: normal (Marsaglia polar), truncated
//!   discrete normal (the recipe-size law), bounded Zipf, Vose alias
//!   tables, Floyd and Efraimidis–Spirakis without-replacement sampling.
//! - [`fit`] — Gaussian and bounded-Zipf fitting (log-log LSQ and MLE),
//!   linear regression, Pearson correlation.
//! - [`hypothesis`] — Kolmogorov–Smirnov and chi-square goodness of fit.
//! - [`error`] — MAE/MSE/RMSE and the paper's Eq. 2 curve distance, with
//!   pairwise distance matrices (Figs. 3–4 legends).
//! - [`rank`] — rank-frequency curves and replicate aggregation.
//! - [`compare`] — Gini concentration, coefficient of variation.
//!
//! Everything is deterministic under a caller-provided seeded RNG.

#![warn(missing_docs)]

pub mod boxplot;
pub mod compare;
pub mod descriptive;
pub mod error;
pub mod fit;
pub mod histogram;
pub mod hypothesis;
pub mod rank;
pub mod sampling;
pub mod special;

pub use compare::gini;
pub use boxplot::BoxplotStats;
pub use descriptive::Summary;
pub use error::{curve_distance, mean_offdiagonal, pairwise_distance_matrix, ErrorMetric};
pub use fit::{GaussianFit, ZipfFit};
pub use histogram::{Histogram, IntHistogram};
pub use hypothesis::TestResult;
pub use rank::RankFrequency;
pub use sampling::{AliasTable, ZipfSampler};
