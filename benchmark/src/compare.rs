//! `--compare DIR_A DIR_B`: two sets of runs, metric by metric.
//!
//! Each directory holds the TSV files of several runs (parent commit in
//! A, change in B). Runs pair up in file-name order, which is run
//! order. The verdict follows the rule for a small sandbox: a gain is
//! claimed only when B wins at least nine tenths of the pairs and the
//! medians differ by more than A's own quartile spread; a metric whose
//! median worsens by more than its bound has regressed; a metric whose
//! spread exceeds its bound is unresolved rather than unchanged.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How a metric is judged: its direction and regression bound.
#[derive(Debug, Clone, Copy)]
struct Rule {
    higher_is_better: bool,
    bound: Option<f64>,
}

/// Metric rules from `BENCHMARK.json` (end-to-end and per-layer).
fn rules() -> Result<BTreeMap<String, Rule>, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let text = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found")?;
    let doc = Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for metric in doc.get(key).map(Json::items).unwrap_or_default() {
            let name = metric
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without name")?;
            let better = metric
                .get("better")
                .and_then(Json::str)
                .ok_or("metric without better")?;
            out.insert(
                name.to_string(),
                Rule {
                    higher_is_better: better == "higher",
                    bound: metric.get("bound").and_then(Json::num),
                },
            );
        }
    }
    Ok(out)
}

/// `(workload, metric)` → values, one per run, in run order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".tsv") && !name.ends_with(".spans.tsv")
        })
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines().filter(|l| !l.starts_with('#')).skip(1) {
            let fields: Vec<&str> = line.split('\t').collect();
            if let [workload, metric, _unit, value] = fields[..] {
                if let Ok(v) = value.parse::<f64>() {
                    runs.entry((workload.to_string(), metric.to_string()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// The verdict for one metric: `improved`, `regressed`, `unresolved`
/// or `unchanged`, with the share of pairs B won.
fn verdict(a: &[f64], b: &[f64], rule: Rule) -> (&'static str, f64) {
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return ("unresolved", 0.0);
    }
    let won = (0..pairs).filter(|&i| better(b[i], a[i])).count() as f64 / pairs as f64;
    let lost = (0..pairs).filter(|&i| better(a[i], b[i])).count() as f64 / pairs as f64;
    let (Some(qa), Some(qb)) = (stats::quartiles(a), stats::quartiles(b)) else {
        return ("unresolved", won);
    };
    let own_spread = qa[2] - qa[0];
    let moved = (qb[1] - qa[1]).abs() > own_spread;
    if won >= 0.9 && moved {
        return ("improved", won);
    }
    let Some(bound) = rule.bound else {
        return (
            if lost >= 0.9 && moved {
                "regressed"
            } else {
                "unchanged"
            },
            won,
        );
    };
    let worsened = if rule.higher_is_better {
        (qa[1] - qb[1]) / qa[1].abs()
    } else {
        (qb[1] - qa[1]) / qa[1].abs()
    };
    if worsened > bound {
        return ("regressed", won);
    }
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if (spread(qa) > bound || spread(qb) > bound) && !all_better {
        return ("unresolved", won);
    }
    ("unchanged", won)
}

/// Prints the comparison of the run sets in `a` and `b`.
pub fn run(a: &Path, b: &Path) -> Result<(), String> {
    let rules = rules()?;
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    println!(
        "{:<12} {:<40} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "won"
    );
    for ((workload, metric), values_a) in &runs_a {
        let (Some(rule), Some(values_b)) = (
            rules.get(metric),
            runs_b.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let q = |v: &[f64]| stats::quartiles(v).unwrap_or([f64::NAN; 3]);
        let (qa, qb) = (q(values_a), q(values_b));
        let (label, won) = verdict(values_a, values_b, *rule);
        println!(
            "{workload:<12} {metric:<40} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>5.0}%  {label}",
            qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], won * 100.0
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Rule = Rule {
        higher_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn clear_win_is_improved() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &b, HIGHER), ("improved", 1.0));
    }

    #[test]
    fn worse_median_beyond_bound_is_regressed() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &b, HIGHER).0, "regressed");
        let lower = Rule {
            higher_is_better: false,
            bound: Some(0.1),
        };
        assert_eq!(verdict(&b, &a, lower).0, "regressed");
    }

    #[test]
    fn noise_within_bound_is_unchanged_and_wide_noise_unresolved() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let b = [
            100.1, 99.0, 101.0, 99.6, 100.4, 99.9, 100.3, 100.0, 99.7, 100.2,
        ];
        assert_eq!(verdict(&a, &b, HIGHER).0, "unchanged");
        let wide = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&wide, &b, HIGHER).0, "unresolved");
    }

    #[test]
    fn metrics_without_bound_need_a_consistent_loss_to_regress() {
        let rule = Rule {
            higher_is_better: true,
            bound: None,
        };
        let a = [10.0, 10.0, 10.0, 10.0];
        assert_eq!(verdict(&a, &[5.0; 4], rule).0, "regressed");
        assert_eq!(verdict(&a, &[10.0; 4], rule).0, "unchanged");
    }

    #[test]
    fn loads_run_sets_from_tsv_files() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = |v: f64| {
            format!("# schema=x\nworkload\tmetric\tunit\tvalue\nsim\tops_per_s\t1/s\t{v}\nsim\tx\tus\tnull\n")
        };
        std::fs::write(dir.join("sim-1.tsv"), body(1.0)).unwrap();
        std::fs::write(dir.join("sim-2.tsv"), body(2.0)).unwrap();
        std::fs::write(dir.join("sim.spans.tsv"), "name\n").unwrap();
        let runs = load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            runs[&("sim".to_string(), "ops_per_s".to_string())],
            vec![1.0, 2.0]
        );
        assert!(!runs.contains_key(&("sim".to_string(), "x".to_string())));
    }
}
