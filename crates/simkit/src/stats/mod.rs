//! Statistics used throughout the simulator and the experiment harness:
//! exponentially weighted moving averages (the heart of DYRS's
//! migration-time estimator), histograms, empirical quantiles/CDFs, and a
//! time-series recorder for figures.

mod ewma;
mod histogram;
mod quantile;
mod timeseries;

pub use ewma::Ewma;
pub use histogram::Histogram;
pub use quantile::{cdf_points, percentile, Quantiles};
pub use timeseries::TimeSeries;
