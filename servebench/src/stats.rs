//! Small statistics helpers: percentiles that refuse to extrapolate, and
//! quantiles read back from the server's log2-bucket histograms.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: with fewer, the tail estimate is one or two lucky samples.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Per-bucket counts of one histogram in the server's Prometheus
/// exposition, summed over label sets (for example over shards). Bucket
/// `i` holds values in `[2^(i-1), 2^i - 1]`; bucket 0 holds 0.
pub fn prometheus_buckets(text: &str, name: &str) -> Vec<u64> {
    let prefix = format!("{name}_bucket{{");
    // Cumulative count per `le` bound, per label set (the text lists one
    // label set's buckets in ascending order before the next set).
    let mut counts = vec![0u64; 65];
    let mut previous = 0u64;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let Some((labels, value)) = rest.rsplit_once("} ") else { continue };
        let Ok(cumulative) = value.trim().parse::<u64>() else { continue };
        let Some(le) = labels.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
            continue;
        };
        if le == "+Inf" {
            previous = 0;
            continue;
        }
        let Ok(bound) = le.parse::<u64>() else { continue };
        let bucket = (64 - bound.leading_zeros()) as usize;
        counts[bucket] += cumulative - previous;
        previous = cumulative;
    }
    counts
}

/// The `q`-quantile of a log2-bucket histogram, interpolated linearly
/// inside the bucket that holds the rank-⌈q·count⌉ observation (the
/// server's own readout reports the bucket's upper bound, which moves only
/// in powers of two). `0.0` for an empty histogram.
pub fn bucket_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            if i == 0 {
                return 0.0;
            }
            let low = (1u64 << (i - 1)) as f64;
            let width = low; // [2^(i-1), 2^i)
            return low + width * (rank - seen) as f64 / c as f64;
        }
        seen += c;
    }
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly ten samples beyond it.
        assert_eq!(supported_percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(supported_percentile(&sorted, 0.5), Some(500.0));
        // One sample fewer and p99 has only nine beyond it.
        assert_eq!(supported_percentile(&sorted[..999], 0.99), None);
        // p90 over 100 samples: rank 90, ten beyond.
        assert_eq!(supported_percentile(&sorted[..100], 0.9), Some(90.0));
        assert_eq!(supported_percentile(&sorted[..99], 0.9), None);
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn prometheus_buckets_sum_over_label_sets() {
        let text = "# TYPE cdat_shard_e2e_us histogram\n\
            cdat_shard_e2e_us_bucket{shard=\"0\",le=\"3\"} 2\n\
            cdat_shard_e2e_us_bucket{shard=\"0\",le=\"7\"} 5\n\
            cdat_shard_e2e_us_bucket{shard=\"0\",le=\"+Inf\"} 5\n\
            cdat_shard_e2e_us_sum{shard=\"0\"} 20\n\
            cdat_shard_e2e_us_bucket{shard=\"1\",le=\"7\"} 1\n\
            cdat_shard_e2e_us_bucket{shard=\"1\",le=\"+Inf\"} 1\n\
            cdat_queue_wait_us_bucket{le=\"1\"} 9\n";
        let counts = prometheus_buckets(text, "cdat_shard_e2e_us");
        assert_eq!(counts[2], 2, "values 2..=3");
        assert_eq!(counts[3], 4, "values 4..=7: three from shard 0, one from shard 1");
        assert_eq!(counts.iter().sum::<u64>(), 6);
    }

    #[test]
    fn bucket_quantiles_interpolate_inside_the_bucket() {
        let mut counts = vec![0u64; 65];
        counts[3] = 10; // ten values in [4, 8)
        assert_eq!(bucket_quantile(&counts, 0.5), 6.0);
        assert_eq!(bucket_quantile(&counts, 1.0), 8.0);
        counts[1] = 10; // ten values equal to 1
        assert_eq!(bucket_quantile(&counts, 0.25), 1.5);
        assert_eq!(bucket_quantile(&vec![0; 65], 0.5), 0.0);
    }
}
