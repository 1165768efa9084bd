//! The four workloads: which job lines each sends, in what order, and
//! when.
//!
//! Every workload is a stream of **decks**. A deck is a fixed multiset of
//! job lines that the seed shuffles; a closed-loop run ends at the first
//! deck boundary after its time is up, and an open-loop schedule is cut
//! at one, so every run sends whole decks. Two runs of one seed send the
//! same lines in the same order, and per-job averages of the program's
//! own counters (hom nodes, chase stages, triggers) repeat exactly
//! whatever the run length. The seed varies order and arrival times but
//! not the multiset, so runs with different seeds measure the same work.
//!
//! Deck 0 of every workload is the warm-up deck, sent closed-loop before
//! timing starts.

use std::collections::HashMap;

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Independent users: Poisson arrivals at a fixed rate, alternating
    /// the two connections, each request timed from when it was due.
    Open {
        /// Mean arrivals per second.
        per_s: f64,
    },
    /// Callers that wait: each of the two connections sends its next
    /// request when the previous reply is in.
    Closed,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
    /// Arrival process.
    pub arrival: Arrival,
    /// Attach a fresh `Store` to the gateway's pool.
    pub store: bool,
    /// Populate the store with every distinct line during set-up, and
    /// require every timed reply to be a hit.
    pub warm: bool,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "interactive",
        why: "open loop of small determine/counterexample/rewrite/creep jobs: per-job fixed costs \
              (ingress, lint gate, pool handoff, classify, render) dominate, hom search does not",
        arrival: Arrival::Open { per_s: 2000.0 },
        store: false,
        warm: false,
    },
    Workload {
        name: "chase_heavy",
        why: "closed loop of Theorem 14 separations and large path-view chases: chase stages and \
              hom search take nearly all the time, the gateway almost none",
        arrival: Arrival::Closed,
        store: false,
        warm: false,
    },
    Workload {
        name: "warm_cache",
        why: "closed loop of Zipf-drawn certified lines all served from a populated store: \
              job_key, entry read and certificate re-check, no chase",
        arrival: Arrival::Closed,
        store: true,
        warm: true,
    },
    Workload {
        name: "cache_churn",
        why: "closed loop against an empty store, half fresh keys (miss, certificate, fsync'd \
              insert) and half repeats (hit): the write side of the store beside its read side",
        arrival: Arrival::Closed,
        store: true,
        warm: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `interactive`: small determinacy inputs (`M ≤ 4`), the chase-model
/// counterexample route, rewriting, and short creeps; each ≲ 0.3 ms.
fn interactive_lines() -> Vec<String> {
    let mut v = Vec::new();
    for mk in [
        "1x2", "1x3", "2x2", "2x4", "2x6", "3x3", "3x6", "4x4", "4x8", "4x12",
    ] {
        v.push(format!("determine instance=path:{mk}"));
    }
    for mk in ["2x3", "2x5", "3x4", "3x5", "4x5", "4x6", "4x7"] {
        v.push(format!("determine instance=mismatch:{mk}"));
    }
    v.push("determine instance=projection".into());
    for mk in ["2x3", "2x5", "3x4", "3x5", "4x6", "4x7"] {
        v.push(format!("counterexample instance=mismatch:{mk}"));
    }
    for mk in ["1x2", "2x2", "2x3", "3x2", "2x4"] {
        v.push(format!("rewrite instance=path:{mk}"));
    }
    for m in 1..=5 {
        v.push(format!("creep worm=counter:{m}"));
    }
    v.push("creep worm=short".into());
    v
}

/// `chase_heavy`: 32 lines whose chases run 0.2–110 ms each; the stage
/// and size ranges are frozen so that no job passes ~300 ms.
fn chase_heavy_lines() -> Vec<String> {
    let mut v = Vec::new();
    for s in [50, 52, 54, 56, 58, 60] {
        v.push(format!("separate stages={s}"));
    }
    for mk in [
        "5x21", "5x22", "5x24", "6x20", "6x23", "6x25", "7x20", "7x23", "7x30", "7x32",
    ] {
        v.push(format!(
            "determine instance=mismatch:{mk} dispatch=semi stages=64"
        ));
    }
    for mk in [
        "2x8", "3x12", "4x16", "5x20", "6x24", "7x28", "4x32", "5x30",
    ] {
        v.push(format!("determine instance=path:{mk} stages=64 cert=1"));
    }
    for mk in ["2x9", "3x10", "5x7", "5x21", "6x31", "7x32", "4x13", "3x20"] {
        v.push(format!("counterexample instance=mismatch:{mk} cert=1"));
    }
    v
}

/// `warm_cache`: 24 certified lines in Zipf rank order (rank 1 first).
/// Every hit but the last costs at most about 0.4 ms; the `separate` hit
/// (a 1195-line certificate, about 1.1 ms) has the lowest rank. With more
/// ~1–4 ms hits in the mix, their share and the requests queued behind
/// them on the reactor put p90 on the steep part of the distribution,
/// where a one-point shift moved it by 5–10%.
pub fn warm_cache_lines() -> Vec<String> {
    [
        "determine instance=path:2x4",
        "creep worm=short",
        "counterexample instance=mismatch:2x3",
        "determine instance=mismatch:2x3",
        "determine instance=projection",
        "creep worm=counter:2",
        "determine instance=path:3x6",
        "counterexample instance=mismatch:3x4",
        "determine instance=mismatch:3x5",
        "creep worm=counter:1",
        "determine instance=path:2x6",
        "counterexample instance=mismatch:2x5",
        "determine instance=mismatch:4x6",
        "determine instance=path:3x9",
        "counterexample instance=mismatch:4x5",
        "creep worm=counter:3",
        "determine instance=path:4x8",
        "counterexample instance=mismatch:5x7",
        "determine instance=mismatch:5x7",
        "determine instance=path:2x8",
        "counterexample instance=mismatch:3x7",
        "determine instance=mismatch:3x7",
        "determine instance=mismatch:2x5",
        "separate stages=50",
    ]
    .iter()
    .map(|l| format!("{l} cert=1"))
    .collect()
}

/// `cache_churn` fresh-key templates: cheap cacheable jobs whose `{}` is
/// a key-relevant budget knob. The knob values used (from
/// [`FIRST_FRESH`] up) never bind, so every fresh key has the same answer
/// and the same cost.
const CHURN_TEMPLATES: &[&str] = &[
    "determine instance=path:2x4 stages={}",
    "determine instance=mismatch:2x3 stages={}",
    "determine instance=projection stages={}",
    "counterexample instance=mismatch:2x3 nodes={}",
    "creep worm=counter:2 steps={}",
    "creep worm=short steps={}",
];

/// The knob value of the first fresh key.
const FIRST_FRESH: u64 = 100;

/// Fresh keys per `cache_churn` deck (the deck also repeats as many).
const CHURN_FRESH_PER_DECK: usize = 48;

/// Copies of each `interactive` line per deck.
const INTERACTIVE_COPIES: usize = 4;

/// Zipf numerator for `warm_cache` deck counts: rank `r` appears
/// `round(ZIPF_C / r)` times.
const ZIPF_C: f64 = 64.0;

/// Interned job lines; requests refer to them by index.
#[derive(Debug, Default)]
pub struct Lines {
    text: Vec<String>,
    index: HashMap<String, usize>,
}

impl Lines {
    /// The index of `line`, interning it on first sight.
    pub fn intern(&mut self, line: &str) -> usize {
        if let Some(&i) = self.index.get(line) {
            return i;
        }
        self.text.push(line.to_string());
        self.index.insert(line.to_string(), self.text.len() - 1);
        self.text.len() - 1
    }

    /// The index of `line`, if it was interned.
    pub fn find(&self, line: &str) -> Option<usize> {
        self.index.get(line).copied()
    }

    /// The line at `i`.
    pub fn get(&self, i: usize) -> &str {
        &self.text[i]
    }

    /// How many distinct lines have been interned.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether no line has been interned.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Index into [`Lines`].
    pub line: usize,
    /// Send only after some earlier request of the same line has been
    /// answered (a `cache_churn` repeat must find its entry stored).
    pub needs_done: bool,
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `salt`.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in salt.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// An exponential inter-arrival gap in seconds at `per_s` arrivals
    /// per second.
    pub fn exp_gap(&mut self, per_s: f64) -> f64 {
        -(1.0 - self.unit()).ln() / per_s
    }
}

/// Generates one workload's decks for one seed.
#[derive(Debug)]
pub struct DeckGen {
    workload: &'static Workload,
    rng: Rng,
    decks: usize,
    fresh_next: u64,
    prev_fresh: Vec<usize>,
}

impl DeckGen {
    /// The deck stream of `workload` under `seed`.
    pub fn new(workload: &'static Workload, seed: u64) -> DeckGen {
        DeckGen {
            workload,
            rng: Rng::new(seed, workload.name),
            decks: 0,
            fresh_next: FIRST_FRESH,
            prev_fresh: Vec::new(),
        }
    }

    /// Decks generated so far; the next deck has this index.
    pub fn decks(&self) -> usize {
        self.decks
    }

    /// The next deck, interning its lines into `lines`.
    pub fn next_deck(&mut self, lines: &mut Lines) -> Vec<Planned> {
        let plain = |lines: &mut Lines, l: &str| Planned {
            line: lines.intern(l),
            needs_done: false,
        };
        let mut deck: Vec<Planned> = match self.workload.name {
            "interactive" => {
                let base = interactive_lines();
                (0..INTERACTIVE_COPIES)
                    .flat_map(|_| base.iter())
                    .map(|l| plain(lines, l))
                    .collect()
            }
            "chase_heavy" => chase_heavy_lines()
                .iter()
                .map(|l| plain(lines, l))
                .collect(),
            "warm_cache" => warm_cache_lines()
                .iter()
                .enumerate()
                .flat_map(|(r, l)| {
                    let copies = (ZIPF_C / (r + 1) as f64).round() as usize;
                    std::iter::repeat_n(l, copies.max(1))
                })
                .map(|l| plain(lines, l))
                .collect(),
            "cache_churn" => {
                let mut deck: Vec<Planned> = self
                    .prev_fresh
                    .iter()
                    .map(|&line| Planned {
                        line,
                        needs_done: true,
                    })
                    .collect();
                let mut fresh = Vec::with_capacity(CHURN_FRESH_PER_DECK);
                for i in 0..CHURN_FRESH_PER_DECK {
                    let template = CHURN_TEMPLATES[i % CHURN_TEMPLATES.len()];
                    let line = template.replace("{}", &self.fresh_next.to_string());
                    self.fresh_next += 1;
                    fresh.push(lines.intern(&line));
                }
                deck.extend(fresh.iter().map(|&line| Planned {
                    line,
                    needs_done: false,
                }));
                self.prev_fresh = fresh;
                deck
            }
            other => unreachable!("no deck for workload `{other}`"),
        };
        self.rng.shuffle(&mut deck);
        self.decks += 1;
        deck
    }

    /// `n` exponential inter-arrival gaps (seconds) for an open loop.
    pub fn gaps(&mut self, n: usize, per_s: f64) -> Vec<f64> {
        (0..n).map(|_| self.rng.exp_gap(per_s)).collect()
    }
}

/// The line whose in-process result is the reference answer for `line`.
/// A `cache_churn` fresh key stands for its template at the first fresh
/// value, since the knob never binds; every other line is its own.
pub fn reference_line(line: &str) -> String {
    for t in CHURN_TEMPLATES {
        let prefix = t.strip_suffix("{}").expect("the knob ends the template");
        if line
            .strip_prefix(prefix)
            .is_some_and(|v| v.parse::<u64>().is_ok())
        {
            return t.replace("{}", &FIRST_FRESH.to_string());
        }
    }
    line.to_string()
}

/// Can `trace=1` be appended to this line? (`rewrite` and `reduce` take
/// no budget keys and reject it.)
pub fn traceable(line: &str) -> bool {
    matches!(
        line.split_whitespace().next(),
        Some("determine" | "creep" | "separate" | "counterexample")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decks(name: &str, seed: u64, n: usize) -> (Lines, Vec<Vec<Planned>>) {
        let mut lines = Lines::default();
        let mut g = DeckGen::new(workload(name).unwrap(), seed);
        let d = (0..n).map(|_| g.next_deck(&mut lines)).collect();
        (lines, d)
    }

    fn multiset(lines: &Lines, deck: &[Planned]) -> Vec<String> {
        let mut v: Vec<String> = deck.iter().map(|p| lines.get(p.line).to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn same_seed_same_lines_other_seed_same_multiset() {
        for w in WORKLOADS {
            let (la, a) = decks(w.name, 1, 3);
            let (lb, b) = decks(w.name, 1, 3);
            let (lc, c) = decks(w.name, 2, 3);
            let text = |l: &Lines, d: &[Planned]| -> Vec<String> {
                d.iter().map(|p| l.get(p.line).to_string()).collect()
            };
            assert_eq!(text(&la, &a[1]), text(&lb, &b[1]), "{}", w.name);
            assert_ne!(text(&la, &a[1]), text(&lc, &c[1]), "{}", w.name);
            assert_eq!(multiset(&la, &a[1]), multiset(&lc, &c[1]), "{}", w.name);
        }
    }

    #[test]
    fn every_line_parses_as_a_job() {
        for w in WORKLOADS {
            let (lines, _) = decks(w.name, 7, 2);
            for i in 0..lines.len() {
                let line = lines.get(i);
                let job = cqfd_service::parse_job(line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert!(job.is_some(), "{line}");
                if traceable(line) {
                    let traced = format!("{line} trace=1");
                    assert!(cqfd_service::parse_job(&traced).is_ok(), "{traced}");
                }
            }
        }
    }

    #[test]
    fn churn_repeats_the_previous_decks_fresh_keys() {
        let (lines, d) = decks("cache_churn", 3, 3);
        assert!(d[0].iter().all(|p| !p.needs_done));
        assert_eq!(d[0].len(), CHURN_FRESH_PER_DECK);
        let fresh0: Vec<usize> = d[0].iter().map(|p| p.line).collect();
        let repeats1: Vec<usize> = d[1]
            .iter()
            .filter(|p| p.needs_done)
            .map(|p| p.line)
            .collect();
        let mut a = fresh0.clone();
        let mut b = repeats1.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Fresh keys never repeat across decks.
        assert_eq!(lines.len(), 3 * CHURN_FRESH_PER_DECK);
    }

    #[test]
    fn fresh_keys_share_their_templates_reference() {
        assert_eq!(
            reference_line("creep worm=short steps=4711"),
            "creep worm=short steps=100"
        );
        for l in [
            "creep worm=short",
            "determine instance=path:2x4 stages=64 cert=1",
        ] {
            assert_eq!(reference_line(l), l);
        }
    }

    #[test]
    fn warm_cache_counts_follow_zipf_ranks() {
        let (lines, d) = decks("warm_cache", 5, 1);
        let first = warm_cache_lines();
        let count = |l: &str| d[0].iter().filter(|p| lines.get(p.line) == l).count();
        assert_eq!(count(&first[0]), 64);
        assert_eq!(count(&first[1]), 32);
        assert_eq!(count(&first[23]), 3);
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut g = DeckGen::new(workload("interactive").unwrap(), 11);
        let gaps = g.gaps(20_000, 2000.0);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.0005).abs() < 0.00002, "{mean}");
    }
}
