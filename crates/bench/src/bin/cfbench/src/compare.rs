//! `cfbench compare A B`: applies `BENCHMARK.json`'s bounds to two sets of
//! repeated runs, one row per workload.

use crate::stats::{quartiles, spread};
use cf_serve::protocol::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric's regression rule.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when smaller values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B's may worsen.
    pub bound: f64,
}

/// How B compares with A on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound and both spreads within it.
    Unchanged,
    /// B better than A by more than the bound.
    Improved,
    /// B worse than A by more than the bound.
    Regressed,
    /// A spread exceeds the bound (and the runs do not separate), or too
    /// few runs to tell.
    Unresolved,
}

/// The verdict for one metric: medians compared against `bound`, unless
/// either side's interquartile spread exceeds the bound, in which case only
/// a complete separation (every B run better, or every B run worse, than
/// every A run, by more than the bound at the medians) resolves it.
pub fn verdict(a: &[f64], b: &[f64], rule: &Bound) -> Verdict {
    let (Some((_, ma, _)), Some((_, mb, _))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| {
        if rule.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    // Positive: B worse than A, as a share of A's median.
    let worse = if rule.lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let wide = [a, b]
        .iter()
        .any(|v| spread(v).is_none_or(|s| s > rule.bound));
    if wide {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
        return if all_better && worse < -rule.bound {
            Verdict::Improved
        } else if all_worse && worse > rule.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > rule.bound {
        Verdict::Regressed
    } else if worse < -rule.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The end-to-end bounds declared in a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Ok(Json::Obj(top)) = parse_json(&text) else {
        return Err(format!("{}: not a JSON object", path.display()));
    };
    let Some(Json::Arr(items)) = top.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    items
        .iter()
        .map(|m| match m {
            Json::Obj(o) => match (o.get("name"), o.get("better"), o.get("bound")) {
                (Some(Json::Str(n)), Some(Json::Str(b)), Some(Json::Num(bound))) => Ok(Bound {
                    name: n.clone(),
                    lower_is_better: b == "lower",
                    bound: *bound,
                }),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            },
            _ => Err(format!("{}: malformed end_to_end entry", path.display())),
        })
        .collect()
}

/// One saved untraced run.
#[derive(Debug, Default)]
struct Run {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Untraced result files in `dir` (`<workload>.seed<S>.trace0.json`),
/// grouped by workload.
fn load_runs(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
        let Some((workload, _)) = file
            .strip_suffix(".trace0.json")
            .and_then(|s| s.split_once(".seed"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let Ok(Json::Obj(o)) = parse_json(text.trim()) else {
            return Err(format!("{}: not a result line", path.display()));
        };
        let num = |k: &str| match o.get(k) {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        };
        let mut run = Run {
            attempted: num("attempted"),
            failed: num("failed"),
            ..Run::default()
        };
        if let Some(Json::Obj(ms)) = o.get("metrics") {
            for (name, m) in ms {
                if let Json::Obj(m) = m {
                    if let Some(Json::Num(v)) = m.get("value") {
                        run.metrics.insert(name.clone(), *v);
                    }
                }
            }
        }
        out.entry(workload.to_string()).or_default().push(run);
    }
    Ok(out)
}

/// Compares the runs in `a` (the base) with those in `b`, printing one row
/// per workload. Returns whether any pair regressed or B failed a larger
/// share of its operations.
pub fn compare(bench: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = load_bounds(bench)?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut worse = false;
    for (workload, ra) in &runs_a {
        let Some(rb) = runs_b.get(workload) else {
            println!("{workload:<16} only in {}", a.display());
            continue;
        };
        let mut row = format!("{workload:<16} runs {}/{}", ra.len(), rb.len());
        for bound in &bounds {
            let col = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (col(ra), col(rb));
            let v = verdict(&va, &vb, bound);
            worse |= v == Verdict::Regressed;
            let med = |v: &[f64]| quartiles(v).map_or(f64::NAN, |q| q.1);
            let _ = write!(
                row,
                " | {} {:?} {:.4}→{:.4}",
                bound.name,
                v,
                med(&va),
                med(&vb)
            );
        }
        let fails = |runs: &[Run]| {
            (
                runs.iter().map(|r| r.failed).sum::<f64>(),
                runs.iter().map(|r| r.attempted).sum::<f64>(),
            )
        };
        let ((fa, na), (fb, nb)) = (fails(ra), fails(rb));
        let more_failures = fb * na.max(1.0) > fa * nb.max(1.0);
        worse |= more_failures;
        let _ = write!(
            row,
            " | failed {fa}/{na} → {fb}/{nb}{}",
            if more_failures { " MORE" } else { "" }
        );
        println!("{row}");
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_apply_the_bound_to_medians() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &a, &lower(0.1)), Verdict::Unchanged);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, &lower(0.1)), Verdict::Regressed);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, &lower(0.1)), Verdict::Improved);
        // Within the bound either way.
        let near: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &near, &lower(0.1)), Verdict::Unchanged);
        // Higher-is-better flips the direction.
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(verdict(&a, &slower, &higher), Verdict::Improved);
        assert_eq!(verdict(&a, &faster, &higher), Verdict::Regressed);
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_the_runs_separate() {
        let a = [10.0, 14.0, 8.0, 12.0, 9.0];
        let b = [11.0, 15.0, 9.0, 13.0, 10.0];
        assert_eq!(verdict(&a, &b, &lower(0.1)), Verdict::Unresolved);
        let far: Vec<f64> = a.iter().map(|x| x * 3.0).collect();
        assert_eq!(verdict(&a, &far, &lower(0.1)), Verdict::Regressed);
        let near_zero: Vec<f64> = a.iter().map(|x| x * 0.2).collect();
        assert_eq!(verdict(&a, &near_zero, &lower(0.1)), Verdict::Improved);
        assert_eq!(verdict(&[10.0], &[10.0], &lower(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn bounds_load_from_the_benchmark_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let bounds = load_bounds(&path).expect("BENCHMARK.json");
        let declared: Vec<&str> = crate::report::END_TO_END.iter().map(|(n, _)| *n).collect();
        let names: Vec<&str> = bounds.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(
            names, declared,
            "BENCHMARK.json and report::END_TO_END agree"
        );
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
