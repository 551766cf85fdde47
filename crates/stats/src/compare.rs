//! Concentration measures: the Gini coefficient of ingredient usage and
//! the coefficient of variation.

use crate::descriptive::mean;

/// Gini coefficient of a non-negative sample: 0 = perfectly even,
/// → 1 = all mass on one observation. Measures how concentrated a
/// cuisine's ingredient usage is.
///
/// Returns `None` for an empty sample, a negative value, or zero total.
pub fn gini(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x < 0.0) {
        return None;
    }
    let total: f64 = xs.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite data"));
    let n = sorted.len() as f64;
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    Some((2.0 * weighted / (n * total)) - (n + 1.0) / n)
}

/// Coefficient of variation (sd / mean) of a sample with positive mean.
pub fn coefficient_of_variation(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    if m <= 0.0 {
        return None;
    }
    Some(crate::descriptive::std_dev(xs)? / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_extremes() {
        // Perfectly even.
        assert!(gini(&[1.0, 1.0, 1.0, 1.0]).unwrap().abs() < 1e-12);
        // Fully concentrated: (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 10.0]).unwrap();
        assert!((g - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gini_hand_computed() {
        // [1, 3]: G = (2*(1*1 + 2*3)/(2*4)) - 3/2 = 14/8 - 1.5 = 0.25.
        assert!((gini(&[1.0, 3.0]).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gini_rejects_bad_input() {
        assert!(gini(&[]).is_none());
        assert!(gini(&[-1.0, 2.0]).is_none());
        assert!(gini(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn cv_basics() {
        let cv = coefficient_of_variation(&[2.0, 4.0, 6.0]).unwrap();
        assert!((cv - 2.0 / 4.0).abs() < 1e-12);
        assert!(coefficient_of_variation(&[0.0, 0.0]).is_none());
    }
}
