//! `perfbench compare <base.json> <new.json>`: the regression check
//! between two `BENCH.json` files, against the bounds in
//! `BENCHMARK.json`.

use crate::metrics::Summary;
use clip_stats::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// medians cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The change from `base` to `new` as a share of `base`, positive when
/// `new` is better.
pub fn gain(base: &Summary, new: &Summary, higher_is_better: bool) -> f64 {
    let delta = (new.median - base.median) / base.median.abs();
    if higher_is_better {
        delta
    } else {
        -delta
    }
}

/// Judges one metric: a worsening beyond `bound` is a regression, an
/// improvement beyond it is a gain, unless either side's quartile
/// spread exceeds `bound`.
pub fn verdict(base: &Summary, new: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    if base.median == 0.0 || base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let g = gain(base, new, higher_is_better);
    if g < -bound {
        Verdict::Regressed
    } else if g > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn summary(metric: &Json) -> Option<Summary> {
    let f = |k: &str| metric.get(k).and_then(Json::as_f64);
    Some(Summary {
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        n: metric.get("n").and_then(Json::as_u64)? as usize,
    })
}

/// Prints one row per workload and end-to-end metric, then every
/// per-layer count that differs. Returns whether anything regressed.
pub fn run(base: &Path, new: &Path, bounds: &Path) -> Result<bool, String> {
    let (base, new, spec) = (read_json(base)?, read_json(new)?, read_json(bounds)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = |doc: &Json| doc.get("workloads").cloned().unwrap_or(Json::Null);
    let (bw, nw) = (workloads(&base), workloads(&new));
    let mut regressed = false;
    println!(
        "{:<16} {:<18} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "gain", "bound"
    );
    for w in bw.keys() {
        let Some(new_w) = nw.get(w) else {
            println!("{w:<16} missing from the new run");
            continue;
        };
        let base_w = bw.get(w).expect("key listed above");
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let pick = |doc: &Json| doc.get("e2e").and_then(|e| e.get(name)).and_then(summary);
            let (Some(b), Some(n)) = (pick(base_w), pick(new_w)) else {
                println!("{w:<16} {name:<18} not measured on both sides");
                continue;
            };
            let v = verdict(&b, &n, higher, bound);
            regressed |= v == Verdict::Regressed;
            let fmt = |s: &Summary| format!("{:.6e} [{:.4e}, {:.4e}]", s.median, s.q1, s.q3);
            println!(
                "{w:<16} {name:<18} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {}",
                fmt(&b),
                fmt(&n),
                gain(&b, &n, higher) * 100.0,
                bound * 100.0,
                v.word()
            );
        }
        let counts = |doc: &Json| doc.get("layers").cloned().unwrap_or(Json::Null);
        let (bl, nl) = (counts(base_w), counts(new_w));
        for k in bl.keys() {
            let (Some(b), Some(n)) = (bl.get(k), nl.get(k)) else {
                continue;
            };
            let value = |j: &Json| j.get("value").and_then(Json::as_f64);
            if b.get("unit").and_then(Json::as_str) == Some("count") && value(b) != value(n) {
                println!(
                    "{w:<16} {k:<18} count changed: {:?} -> {:?}",
                    value(b),
                    value(n)
                );
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            q1,
            median,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts() {
        let base = s(99.0, 100.0, 101.0);
        let cases = [
            // (new, higher is better, bound, verdict)
            (s(99.0, 100.0, 101.0), true, 0.1, Verdict::Unchanged),
            (s(94.0, 95.0, 96.0), true, 0.1, Verdict::Unchanged),
            (s(85.0, 86.0, 87.0), true, 0.1, Verdict::Regressed),
            (s(119.0, 120.0, 121.0), true, 0.1, Verdict::Improved),
            // Lower is better: the same numbers flip.
            (s(85.0, 86.0, 87.0), false, 0.1, Verdict::Improved),
            (s(119.0, 120.0, 121.0), false, 0.1, Verdict::Regressed),
            // A spread wider than the bound leaves the change unresolved,
            // however large it is.
            (s(60.0, 80.0, 100.0), true, 0.1, Verdict::Unresolved),
            (s(60.0, 80.0, 100.0), true, 0.25, Verdict::Unresolved),
            (s(78.0, 80.0, 82.0), true, 0.25, Verdict::Unchanged),
            (s(78.0, 80.0, 82.0), true, 0.1, Verdict::Regressed),
        ];
        for (new, higher, bound, want) in cases {
            assert_eq!(
                verdict(&base, &new, higher, bound),
                want,
                "{new:?} higher={higher} bound={bound}"
            );
        }
        let noisy_base = s(80.0, 100.0, 120.0);
        assert_eq!(verdict(&noisy_base, &base, true, 0.1), Verdict::Unresolved);
        assert_eq!(
            verdict(&s(0.0, 0.0, 0.0), &base, true, 0.1),
            Verdict::Unresolved
        );
    }
}
