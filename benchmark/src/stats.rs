//! The arithmetic behind every reported number, on plain slices so it can
//! be unit-tested on fixed inputs.

/// The `q`-quantile (`0.0..=1.0`) by the nearest-rank rule: the smallest
/// sample with at least `q` of the samples at or below it.  `NaN` for no
/// samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The quartile on the fast side of repeated measurements of one thing:
/// the lower quartile of times, the upper quartile of rates.  Neighbours
/// on a shared runner only ever slow an epoch down, for seconds at a time
/// and by up to a third, so the fast quartile stays put where the median
/// follows the interference; unlike the extreme it does not rest on one
/// lucky epoch.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Geometric mean; every class weighs the same whatever its magnitude.
/// `NaN` for no values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One pass over the classes: how many ops it ran and the time they took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pass {
    pub ops: usize,
    pub seconds: f64,
}

/// `ops_per_s`: the median over passes of each pass's own rate.  Within a
/// pass the rate is time-weighted, so the heaviest class dominates it.
pub fn pass_median_rate(passes: &[Pass]) -> f64 {
    let rates: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.seconds).collect();
    median(&rates)
}

/// The exponent `k` of `t ∝ n^k` through two measurements.
pub fn data_exponent(t_small: f64, n_small: f64, t_large: f64, n_large: f64) -> f64 {
    (t_large / t_small).ln() / (n_large / n_small).ln()
}

/// A span's self time: its duration minus the part its children cover.
/// Children are `(start, end)` intervals inside the span; overlapping
/// children are counted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut inside: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    inside.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for (s, e) in inside {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

/// Relative difference of `b` against `a`, signed so that positive means
/// worse for a metric where `higher_is_better` says which way is good.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = (b - a) / a;
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.95), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert!(median(&[]).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
    }

    #[test]
    fn fast_quartile_ignores_slowed_epochs() {
        // Eight epochs, five of them slowed by a neighbour.
        let times = [100.0, 131.0, 101.0, 160.0, 99.0, 140.0, 125.0, 118.0];
        assert_eq!(fast_quartile(&times, false), 100.0);
        assert_eq!(median(&times), 118.0);
        let rates = [10.0, 7.6, 9.9, 6.2, 10.1, 7.1, 8.0, 8.5];
        assert_eq!(fast_quartile(&rates, true), 9.9);
    }

    #[test]
    fn geomean_weighs_classes_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        // Doubling the cheap class moves it as much as doubling the dear one.
        let base = geomean(&[1.0, 1000.0]);
        assert!((geomean(&[2.0, 1000.0]) / base - geomean(&[1.0, 2000.0]) / base).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn pass_rate_is_median_of_per_pass_rates() {
        let passes = [
            Pass {
                ops: 10,
                seconds: 1.0,
            },
            Pass {
                ops: 10,
                seconds: 2.0,
            },
            Pass {
                ops: 10,
                seconds: 0.5,
            },
        ];
        assert_eq!(pass_median_rate(&passes), 10.0);
        // One stalled pass does not move the median.
        let mut stalled = passes.to_vec();
        stalled.push(Pass {
            ops: 10,
            seconds: 1.0,
        });
        stalled.push(Pass {
            ops: 10,
            seconds: 50.0,
        });
        assert_eq!(pass_median_rate(&stalled), 10.0);
    }

    #[test]
    fn exponent_of_known_curves() {
        assert!((data_exponent(1.0, 10.0, 10.0, 100.0) - 1.0).abs() < 1e-12);
        assert!((data_exponent(1.0, 10.0, 100.0, 100.0) - 2.0).abs() < 1e-12);
        assert!((data_exponent(2.0, 9528.0, 60.0, 96008.0) - 1.472).abs() < 1e-3);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 90)]), 40);
        // Overlapping and nested children are not subtracted twice.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 90), (50, 55)]), 20);
        // Children are clipped to the span.
        assert_eq!(self_time((10, 20), &[(0, 12), (18, 40)]), 6);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
    }
}
