//! Small, dependency-free arithmetic and formatting the benchmark's
//! report is built from: medians and quartiles, the unattributed
//! remainder of a traced wall, metric-name validation and the one-line
//! JSON result.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones a Python script
/// computes from the same numbers. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0, where a share is meaningless).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The part of a traced wall no layer's self time covers: the loop's
/// own bookkeeping between timed calls. By construction the layer self
/// times plus this remainder equal the wall exactly.
pub fn unattributed(wall_s: f64, self_times_s: &[f64]) -> f64 {
    wall_s - self_times_s.iter().sum::<f64>()
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: &'static str,
    /// Measured value, printed with all its digits.
    pub value: f64,
    /// Unit, e.g. `s`, `cycles/s`, `count`.
    pub unit: &'static str,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
///
/// # Panics
///
/// Panics on an invalid or repeated metric name, or a non-finite value:
/// both are bugs in the benchmark, and JSON cannot carry NaN.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(m.name), "bad metric name {:?}", m.name);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {} reported twice",
            m.name
        );
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    out
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn unattributed_closes_the_sum() {
        let selfs = [0.25, 0.125, 0.5];
        let rest = unattributed(1.0, &selfs);
        assert_eq!(rest, 0.125);
        assert_eq!(selfs.iter().sum::<f64>() + rest, 1.0);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in ["cycles_per_s", "dut.tick_s", "a", "9lives", "x-y.z_1"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a\"b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_json_has_the_four_keys_and_full_digits() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric {
                    name: "setup_s",
                    value: 0.000_123_456_789,
                    unit: "s",
                },
                Metric {
                    name: "n",
                    value: 42.0,
                    unit: "count",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.000123456789, \"unit\": \"s\"}, \
             \"n\": {\"value\": 42.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn result_json_rejects_duplicates() {
        let m = Metric {
            name: "x",
            value: 1.0,
            unit: "s",
        };
        result_json(true, 1, 0, &[m.clone(), m]);
    }
}
