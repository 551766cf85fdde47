//! Order statistics and the body digest shared by the generator, the gate
//! and the trace.

/// Nearest-rank percentile of an ascending sample: `sorted[ceil(p·n) − 1]`,
/// the definition `loadgen` and the server's `/metrics` histogram use.
/// `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sort a sample ascending (total order, so a stray NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values.to_vec()), 0.5).unwrap_or(0.0)
}

/// Cut `(seconds, value)` samples into consecutive `width`-second windows
/// starting at the earliest sample. The trailing partial window is
/// dropped, unless the samples span less than one window, in which case
/// they all form one.
fn windows(samples: &[(f64, f64)], width: f64) -> Vec<Vec<f64>> {
    let start = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let end = samples
        .iter()
        .map(|s| s.0)
        .fold(f64::NEG_INFINITY, f64::max);
    if samples.is_empty() {
        return Vec::new();
    }
    let full = ((end - start) / width).floor().max(1.0) as usize;
    let mut out = vec![Vec::new(); full];
    for &(at, value) in samples {
        if let Some(window) = out.get_mut(((at - start) / width) as usize) {
            window.push(value);
        }
    }
    out
}

/// The median over `width`-second windows of each window's nearest-rank
/// `p` percentile: a tail that one stalled second of the host cannot move
/// (0 when empty).
pub fn windowed_percentile(samples: &[(f64, f64)], width: f64, p: f64) -> f64 {
    let per_window: Vec<f64> = windows(samples, width)
        .into_iter()
        .filter_map(|window| nearest_rank(&sorted(window), p))
        .collect();
    median(&per_window)
}

/// The median over `width`-second windows of completions per second.
pub fn windowed_rate(samples: &[(f64, f64)], width: f64) -> f64 {
    let per_window: Vec<f64> = windows(samples, width)
        .iter()
        .map(|window| window.len() as f64 / width)
        .collect();
    median(&per_window)
}

/// FNV-1a 64-bit offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64-bit digest over `bytes`.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `loadgen`'s percentile, verbatim over integers, as the oracle.
    fn loadgen_pct(sorted: &[u64], p: f64) -> u64 {
        let total = sorted.len();
        sorted[((p * total as f64).ceil() as usize).clamp(1, total) - 1]
    }

    #[test]
    fn nearest_rank_matches_loadgen() {
        for n in 1..=257u64 {
            let ints: Vec<u64> = (0..n).map(|i| (i * 7919) % 1009).collect();
            let mut ints_sorted = ints.clone();
            ints_sorted.sort_unstable();
            let floats = sorted(ints.iter().map(|&v| v as f64).collect());
            for p in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                assert_eq!(
                    nearest_rank(&floats, p),
                    Some(loadgen_pct(&ints_sorted, p) as f64),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[3.0], 0.99), Some(3.0));
        // 100 samples: p99 is the 99th value, so exactly one lies beyond it.
        let hundred = sorted((1..=100).map(f64::from).collect());
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 0.5), Some(50.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_drop_the_partial_tail_and_take_medians() {
        // 10 samples per second for 3.5 s, value = whole second index.
        let samples: Vec<(f64, f64)> = (0..35)
            .map(|i| (100.0 + i as f64 / 10.0, (i / 10) as f64))
            .collect();
        let cut = windows(&samples, 1.0);
        assert_eq!(cut.len(), 3, "the half-second tail is dropped");
        assert!(cut.iter().all(|w| w.len() == 10));
        assert_eq!(windowed_rate(&samples, 1.0), 10.0);
        assert_eq!(windowed_percentile(&samples, 1.0, 0.99), 1.0);
        // One stalled window does not move the median of window tails.
        let mut stalled: Vec<(f64, f64)> = samples.iter().map(|&(at, _)| (at, 5.0)).collect();
        stalled[5].1 = 1e6;
        assert_eq!(windowed_percentile(&stalled, 1.0, 0.99), 5.0);
        // A span shorter than one window is one window.
        assert_eq!(windows(&samples[..4], 1.0).len(), 1);
        assert!(windows(&[], 1.0).is_empty());
        assert_eq!(windowed_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining is concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
