//! `perf compare <a.json> <b.json>`: two result files, one verdict per
//! workload × end-to-end metric against the benchmark's own bounds.

use crate::defs::{Better, EndToEnd, END_TO_END};
use crate::jsonin::{self, Value};
use crate::stats;

/// How side B stands against side A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// One side's run-to-run spread is wider than the bound, so the
    /// runs cannot tell which of the above holds.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge the runs `b` against the runs `a` of one metric. Spread is
/// the distance between the quartiles over the median, per side; the
/// change is B's median over A's, signed so that positive is worse.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (med_a, med_b) = (stats::median_interpolated(a), stats::median_interpolated(b));
    let worse_by = match metric.better {
        Better::Lower => med_b / med_a - 1.0,
        Better::Higher => med_a / med_b - 1.0,
    };
    let spread = stats::quartile_spread(a).max(stats::quartile_spread(b));
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// `metric → one value per run`.
type Runs = Vec<(String, Vec<f64>)>;

/// `workload → metric → values` of one result file's end-to-end
/// section.
fn end_to_end_of(doc: &Value) -> Result<Vec<(String, Runs)>, String> {
    let workloads = doc
        .get("workloads")
        .and_then(Value::arr)
        .ok_or("no \"workloads\" array")?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Value::str)
                .ok_or("workload without a name")?;
            let metrics = w
                .get("end_to_end")
                .and_then(Value::obj)
                .ok_or_else(|| format!("{name}: no \"end_to_end\" object"))?;
            let metrics = metrics
                .iter()
                .map(|(metric, values)| {
                    let values: Option<Vec<f64>> = values
                        .arr()
                        .ok_or_else(|| format!("{name}.{metric}: not an array"))?
                        .iter()
                        .map(Value::num)
                        .collect();
                    let values = values
                        .filter(|v| !v.is_empty())
                        .ok_or_else(|| format!("{name}.{metric}: needs at least one number"))?;
                    Ok((metric.clone(), values))
                })
                .collect::<Result<_, String>>()?;
            Ok((name.to_owned(), metrics))
        })
        .collect()
}

/// Compare two result files; returns the printed table and whether any
/// row came out worse.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = end_to_end_of(&jsonin::parse(a_text)?)?;
    let b = end_to_end_of(&jsonin::parse(b_text)?)?;
    let mut table = format!(
        "{:<22} {:<14} {:>13} {:>13} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "spread", "bound"
    );
    let mut any_worse = false;
    for (workload, metrics_a) in &a {
        let Some((_, metrics_b)) = b.iter().find(|(w, _)| w == workload) else {
            table.push_str(&format!("{workload:<22} only in A\n"));
            continue;
        };
        for metric in &END_TO_END {
            let find = |side: &Runs| {
                side.iter()
                    .find(|(m, _)| m == metric.name)
                    .map(|(_, v)| v.clone())
            };
            let (Some(va), Some(vb)) = (find(metrics_a), find(metrics_b)) else {
                table.push_str(&format!(
                    "{workload:<22} {:<14} missing on one side\n",
                    metric.name
                ));
                continue;
            };
            let (verdict, worse_by) = verdict(metric, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            table.push_str(&format!(
                "{workload:<22} {:<14} {:>13.6e} {:>13.6e} {:>+7.1}% {:>6.1}% {:>5.0}%  {}\n",
                metric.name,
                stats::median_interpolated(&va),
                stats::median_interpolated(&vb),
                worse_by * 100.0,
                stats::quartile_spread(&va).max(stats::quartile_spread(&vb)) * 100.0,
                metric.bound * 100.0,
                verdict.word(),
            ));
        }
    }
    table.push_str("change: B's median against A's, positive = worse. spread: the wider side's quartile distance over its median.\n");
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "op_min_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(verdict(&LATENCY, &a, &[1.05, 1.04, 1.06]).0, Verdict::Same);
        assert_eq!(verdict(&LATENCY, &a, &[1.20, 1.21, 1.19]).0, Verdict::Worse);
        assert_eq!(
            verdict(&LATENCY, &a, &[0.80, 0.81, 0.79]).0,
            Verdict::Better
        );
        // Higher-is-better flips the sign: a lower rate is worse.
        assert_eq!(verdict(&RATE, &a, &[0.80, 0.81, 0.79]).0, Verdict::Worse);
        assert_eq!(verdict(&RATE, &a, &[1.20, 1.21, 1.19]).0, Verdict::Better);
        let (_, worse_by) = verdict(&LATENCY, &a, &[1.10, 1.10, 1.10]);
        assert!((worse_by - 0.10).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        // Medians agree, but side B's quartiles are 30% apart.
        let a = [1.00, 1.01, 0.99];
        assert_eq!(
            verdict(&LATENCY, &a, &[0.85, 1.0, 1.15]).0,
            Verdict::Unresolved
        );
        // A single run per side has no spread to object to.
        assert_eq!(verdict(&LATENCY, &[1.0], &[1.5]).0, Verdict::Worse);
    }

    #[test]
    fn compares_two_result_files() {
        let file = |latency: &str| {
            format!(
                "{{\"workloads\":[{{\"name\":\"w\",\"end_to_end\":{{\"op_min_s\":{latency},\
                 \"ops_per_s\":[5,5,5],\"setup_s\":[1]}}}}]}}"
            )
        };
        let (table, worse) = compare(&file("[1.0,1.0,1.0]"), &file("[1.3,1.3,1.3]")).unwrap();
        assert!(worse);
        assert!(
            table.contains("op_min_s") && table.contains("worse"),
            "{table}"
        );
        assert_eq!(table.matches(" same").count(), 2, "{table}");
        let (_, worse) = compare(&file("[1.0]"), &file("[1.0]")).unwrap();
        assert!(!worse);
        assert!(compare("{}", &file("[1]")).is_err());
        assert!(compare(&file("[]"), &file("[1]")).is_err());
    }
}
