//! Order statistics over the samples one run collects.

/// The value at quantile `q` (nearest rank) of an unsorted sample; 0 when
/// the sample is empty.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

pub fn median(samples: &mut [u64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn median_f64(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(median(&mut s), 50.0);
        assert_eq!(quantile(&mut s, 0.99), 99.0);
        assert_eq!(quantile(&mut s, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
