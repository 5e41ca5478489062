//! Paired A/B runs of the end-to-end benchmark (`benchmark/run.sh`): the
//! pure half of the `abpair` binary — reading `BENCHMARK.json` and a run's
//! result line, the order of the runs in each pair, the calibration flag,
//! and the verdict rule — so every rule is unit-tested without running
//! anything.
//!
//! The rule, per workload and end-to-end metric, over `n` pairs of runs
//! (one of the parent tree, one of the change, in random order):
//!
//! * **gain** — the change wins at least 9 in 10 pairs, and its median is
//!   better than the parent's by more than the parent's interquartile
//!   range. This is the only verdict that supports a claim.
//! * **unresolved** — otherwise, when either side's interquartile range
//!   is wider than the metric's bound (as a share of its median): too
//!   noisy to tell.
//! * **loss** — otherwise, when the change's median is worse than the
//!   parent's by more than the bound.
//! * **holds** — otherwise: the metric stayed inside its bound.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A JSON value: as much of JSON as `BENCHMARK.json` and a result line use.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        match p.at == p.s.len() {
            true => Ok(v),
            false => Err(format!("trailing bytes at {}", p.at)),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A recursive-descent reader over the document's bytes.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        match self.s.get(self.at) {
            Some(&c) if c == b => {
                self.at += 1;
                Ok(())
            }
            _ => Err(format!("expected `{}` at {}", b as char, self.at)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.s[self.at..];
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(v);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.s.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    if self.s.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(members));
                    }
                }
            }
            _ => {
                let len = (rest.iter())
                    .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    .count();
                let text = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                let x = text
                    .parse()
                    .map_err(|_| format!("bad value at {}", self.at))?;
                self.at += len;
                Ok(Json::Num(x))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let c = char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER);
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in a result line.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// The largest relative worsening, and spread, the benchmark allows.
    pub bound: f64,
}

/// What `abpair` reads of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// How long each run measures, in seconds.
    pub run_seconds: u64,
    /// The workload names.
    pub workloads: Vec<String>,
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
}

impl Spec {
    /// Reads the workload names and end-to-end metrics of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::arr)
                .ok_or(format!("no `{key}` list"))
        };
        let name = |v: &Json| v.get("name").and_then(Json::str).map(str::to_string);
        let workloads = list("workloads")?.iter().filter_map(name).collect();
        let metric = |v: &Json| {
            Some(Metric {
                name: name(v)?,
                lower_is_better: v.get("better")?.str()? == "lower",
                bound: v.get("bound")?.num()?,
            })
        };
        let metrics = (list("end_to_end")?.iter())
            .map(|v| metric(v).ok_or(format!("bad end_to_end entry {v:?}")))
            .collect::<Result<_, _>>()?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::num)
            .ok_or("no `run_seconds`")?;
        Ok(Spec {
            run_seconds: run_seconds as u64,
            workloads,
            metrics,
        })
    }

    /// The smallest bound of any metric: the calibration tolerance.
    pub fn tightest_bound(&self) -> f64 {
        self.metrics
            .iter()
            .map(|m| m.bound)
            .fold(f64::INFINITY, f64::min)
    }
}

/// What one run of `run.sh` reported on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every answer was right.
    pub correct: bool,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// Reads a result line.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let doc = Json::parse(line)?;
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(members)) => (members.iter())
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
                .collect(),
            _ => return Err("result line has no metrics".into()),
        };
        Ok(RunResult {
            correct: doc.get("correct") == Some(&Json::Bool(true)),
            failed: doc.get("failed").and_then(Json::num).unwrap_or(0.0) as u64,
            metrics,
        })
    }
}

/// First quartile, median and third quartile, interpolated linearly.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (!v.is_empty()).then(|| [at(0.25), at(0.5), at(0.75)])
}

/// The verdict on one metric; see the module docs for the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better, well beyond the parent's own spread.
    Gain,
    /// The change stayed inside the metric's bound.
    Holds,
    /// The change is worse by more than the bound.
    Loss,
    /// A side spreads wider than the bound, or there are no pairs.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Gain => "gain",
            Verdict::Holds => "holds",
            Verdict::Loss => "loss",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One metric over a set of pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// The parent's median and interquartile range.
    pub parent: (f64, f64),
    /// The change's median and interquartile range.
    pub change: (f64, f64),
    /// Pairs the change won, and pairs judged.
    pub wins: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges `metric` on `(parent, change)` value pairs.
pub fn judge(metric: &Metric, pairs: &[(f64, f64)]) -> Judgement {
    let side = |pick: fn(&(f64, f64)) -> f64| {
        let xs: Vec<f64> = pairs.iter().map(pick).collect();
        quartiles(&xs).map_or((f64::NAN, f64::NAN), |[q1, m, q3]| (m, q3 - q1))
    };
    let (parent, change) = (side(|p| p.0), side(|p| p.1));
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let wins = pairs.iter().filter(|(p, c)| sign * (p - c) > 0.0).count();
    let gain = sign * (parent.0 - change.0);
    let spread = |(m, iqr): (f64, f64)| if m == 0.0 { 0.0 } else { iqr / m.abs() };
    let verdict = if pairs.is_empty() {
        Verdict::Unresolved
    } else if wins * 10 >= pairs.len() * 9 && gain > parent.1 {
        Verdict::Gain
    } else if spread(parent).max(spread(change)) > metric.bound {
        Verdict::Unresolved
    } else if -gain > metric.bound * parent.0.abs() {
        Verdict::Loss
    } else {
        Verdict::Holds
    };
    Judgement {
        parent,
        change,
        wins: (wins, pairs.len()),
        verdict,
    }
}

/// Whether a pair's host drifted: its calibration readings (before and
/// after each of its two runs, in ns) differ by more than `bound`, as a
/// share of the fastest.
pub fn drifted(calibrations: &[f64], bound: f64) -> bool {
    let lo = calibrations.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = calibrations.iter().copied().fold(0.0, f64::max);
    hi > lo * (1.0 + bound)
}

/// For each of `pairs` pairs, whether the parent runs first: a SplitMix64
/// stream from `seed`, so an order can be replayed.
pub fn parent_first(seed: u64, pairs: usize) -> Vec<bool> {
    let mut state = seed;
    (0..pairs)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 1
        })
        .collect()
}

/// Escapes text for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn reads_the_benchmark_spec_and_a_result_line() {
        let spec = Spec::parse(
            r#"{"command": ["bash", "run.sh"], "run_seconds": 20, "workloads": [{"name": "a", "why": "x \"y\""}],
               "end_to_end": [{"name": "pass_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
                              {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#,
        )
        .unwrap();
        assert_eq!(
            (spec.run_seconds, &spec.workloads[..]),
            (20, &["a".to_string()][..])
        );
        assert_eq!(spec.metrics[1], metric(false, 0.2).renamed("ops_per_s"));
        assert_eq!(spec.tightest_bound(), 0.2);
        let r = RunResult::parse(
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 1.5e-1, "unit": "s"}}}"#,
        )
        .unwrap();
        assert!(r.correct && r.failed == 0);
        assert_eq!(r.metrics["setup_s"], 0.15);
        assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
        assert!(Json::parse("[1] 2").is_err());
        assert_eq!(Json::parse(r#""é\n""#), Ok(Json::Str("é\n".into())));
    }

    impl Metric {
        fn renamed(mut self, name: &str) -> Metric {
            self.name = name.into();
            self
        }
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some([2.0, 3.0, 4.0]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([1.25, 1.5, 1.75]));
        assert_eq!(quartiles(&[]), None);
    }

    /// Ten pairs: the parent at `parent + i * spread`, the change at
    /// `change + i * spread`.
    fn pairs(parent: f64, change: f64, spread: f64) -> Vec<(f64, f64)> {
        (0..10)
            .map(|i| (parent + i as f64 * spread, change + i as f64 * spread))
            .collect()
    }

    #[test]
    fn a_gain_needs_nine_wins_and_a_gap_beyond_the_parents_spread() {
        let m = metric(true, 0.25);
        let j = judge(&m, &pairs(100.0, 40.0, 1.0));
        assert_eq!((j.verdict, j.wins), (Verdict::Gain, (10, 10)));
        assert_eq!((j.parent.0, j.change.0), (104.5, 44.5));
        // Eight wins are not enough, however large the gap.
        let mut eight = pairs(100.0, 40.0, 1.0);
        eight[0].1 = 200.0;
        eight[1].1 = 200.0;
        assert_ne!(judge(&m, &eight).verdict, Verdict::Gain);
        // Ten wins by less than the parent's interquartile range are not
        // a gain: 10 pairs spread by 4 have an IQR of 18.
        let j = judge(&m, &pairs(100.0, 95.0, 4.0));
        assert_eq!((j.wins.0, j.verdict), (10, Verdict::Holds));
        // Higher-is-better metrics win upwards.
        let j = judge(&metric(false, 0.25), &pairs(100.0, 160.0, 1.0));
        assert_eq!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn a_metric_that_must_not_move_holds_loses_or_is_unresolved() {
        let m = metric(true, 0.25);
        assert_eq!(judge(&m, &pairs(100.0, 110.0, 0.5)).verdict, Verdict::Holds);
        assert_eq!(judge(&m, &pairs(100.0, 130.0, 0.5)).verdict, Verdict::Loss);
        // A spread wider than the bound cannot tell: IQR 45 on a median of 145.
        assert_eq!(
            judge(&m, &pairs(100.0, 100.0, 10.0)).verdict,
            Verdict::Unresolved
        );
        assert_eq!(judge(&m, &[]).verdict, Verdict::Unresolved);
        // Higher-is-better: a fall beyond the bound is a loss.
        let j = judge(&metric(false, 0.25), &pairs(100.0, 70.0, 0.5));
        assert_eq!(j.verdict, Verdict::Loss);
    }

    #[test]
    fn the_same_samples_on_both_sides_make_no_claim() {
        // An A/A run: identical or shuffled samples never show a gain.
        let m = metric(true, 0.25);
        let same: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, 100.0 + i as f64))
            .collect();
        assert_eq!(judge(&m, &same).verdict, Verdict::Holds);
        let shuffled: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, 100.0 + ((i * 7) % 10) as f64))
            .collect();
        assert_ne!(judge(&m, &shuffled).verdict, Verdict::Gain);
    }

    #[test]
    fn calibration_drift_flags_a_pair() {
        assert!(!drifted(&[100.0, 110.0, 105.0, 119.0], 0.2));
        assert!(drifted(&[100.0, 110.0, 105.0, 121.0], 0.2));
    }

    #[test]
    fn run_order_is_seeded_and_mixed() {
        let order = parent_first(42, 64);
        assert_eq!(order, parent_first(42, 64));
        assert_ne!(order, parent_first(7, 64));
        let first = order.iter().filter(|&&p| p).count();
        assert!((16..48).contains(&first), "{first}");
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }
}
