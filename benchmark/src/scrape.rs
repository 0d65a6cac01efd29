//! Reads the server's `at-obs` registry through its `MetricsQuery`
//! Prometheus text, and takes deltas between two scrapes.

use std::collections::BTreeMap;

/// One scrape: every series (`name` plus sorted labels) and its value.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    series: BTreeMap<(String, Vec<(String, String)>), f64>,
}

impl Scrape {
    /// Parses Prometheus text exposition. Comment lines are skipped and
    /// malformed lines ignored: the text comes from the program under
    /// test, and a missing series reads as zero.
    pub fn parse(text: &str) -> Self {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((id, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match id.split_once('{') {
                Some((name, rest)) => (name, parse_labels(rest.trim_end_matches('}'))),
                None => (id, Vec::new()),
            };
            series.insert((name.to_string(), labels), value);
        }
        Self { series }
    }

    /// `self - before`, series by series.
    pub fn delta(&self, before: &Scrape) -> Scrape {
        let series = self
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v - before.series.get(k).copied().unwrap_or(0.0)))
            .collect();
        Scrape { series }
    }

    /// Sum over every series named `name` whose labels include all of
    /// `want`.
    pub fn sum(&self, name: &str, want: &[(&str, &str)]) -> f64 {
        self.series
            .iter()
            .filter(|((n, labels), _)| {
                n == name
                    && want
                        .iter()
                        .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|(_, v)| v)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// `(sum seconds, count)` of an `at_stage_seconds` stage histogram.
    pub fn stage(&self, stage: &str) -> (f64, f64) {
        (
            self.sum("at_stage_seconds_sum", &[("stage", stage)]),
            self.sum("at_stage_seconds_count", &[("stage", stage)]),
        )
    }

    /// Mean of a stage histogram in microseconds (0 with no samples).
    pub fn stage_mean_us(&self, stage: &str) -> f64 {
        let (sum, count) = self.stage(stage);
        if count > 0.0 {
            sum / count * 1e6
        } else {
            0.0
        }
    }
}

fn parse_labels(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some((k, after)) = rest.split_once("=\"") {
        let Some(end) = after.find('"') else { break };
        out.push((
            k.trim_start_matches(',').to_string(),
            after[..end].to_string(),
        ));
        rest = &after[end + 1..];
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE at_stage_seconds histogram\n\
        at_stage_seconds_bucket{stage=\"serve_queue\",le=\"+Inf\"} 2\n\
        at_stage_seconds_sum{stage=\"serve_queue\"} 0.002\n\
        at_stage_seconds_count{stage=\"serve_queue\"} 2\n\
        at_serve_shed_total 1\n";
    const AFTER: &str = "at_stage_seconds_sum{stage=\"serve_queue\"} 0.012\n\
        at_stage_seconds_count{stage=\"serve_queue\"} 12\n\
        at_stage_seconds_count{stage=\"serve_batch\",requests=\"2\"} 3\n\
        at_serve_shed_total 1\n";

    #[test]
    fn deltas_and_stage_means() {
        let d = Scrape::parse(AFTER).delta(&Scrape::parse(BEFORE));
        assert_eq!(d.stage("serve_queue"), (0.01, 10.0));
        assert!((d.stage_mean_us("serve_queue") - 1000.0).abs() < 1e-9);
        assert_eq!(d.sum("at_serve_shed_total", &[]), 0.0);
        assert_eq!(
            d.sum("at_stage_seconds_count", &[("stage", "serve_batch")]),
            3.0
        );
        assert_eq!(d.stage_mean_us("absent"), 0.0);
    }
}
