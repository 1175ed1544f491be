//! Statistics registry shared across a simulation.
//!
//! Counters, duration accumulators and log₂ histograms keyed by name. The
//! registry is deterministic: reports are emitted in sorted key order.
//! Writes come only from [`crate::Probe`] rows, each bound to its entries
//! once, so a warm record compares no string.

use std::cell::RefCell;
use std::mem::discriminant;
use std::rc::Rc;

use crate::probe::{Probe, Stat};
use crate::time::SimDuration;

/// Accumulated duration statistics for one key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurationStat {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub total: SimDuration,
    /// Smallest sample (zero if no samples).
    pub min: SimDuration,
    /// Largest sample.
    pub max: SimDuration,
}

impl DurationStat {
    /// Arithmetic mean of the samples (zero if none).
    pub fn mean(&self) -> SimDuration {
        SimDuration(self.total.as_ps().checked_div(self.count).unwrap_or(0))
    }

    fn record(&mut self, d: SimDuration) {
        if self.count == 0 {
            self.min = d;
            self.max = d;
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.count += 1;
        self.total += d;
    }

    fn merge(&mut self, other: &DurationStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.total += other.total;
    }
}

/// One kind's entries, in creation order (snapshots sort them by name).
type Table<V> = Vec<(String, V)>;

/// The entry for `key`, created (touched) on first use.
fn cell<V: Default>(table: &mut Table<V>, key: &str) -> usize {
    table.iter().position(|(k, _)| k == key).unwrap_or_else(|| {
        table.push((key.to_string(), V::default()));
        table.len() - 1
    })
}

fn get<'a, V>(table: &'a Table<V>, key: &str) -> Option<&'a V> {
    table.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn sorted<V: Clone>(table: &Table<V>) -> Table<V> {
    let mut t = table.clone();
    t.sort_by(|a, b| a.0.cmp(&b.0));
    t
}

#[derive(Default)]
struct StatsInner {
    counters: Table<u64>,
    durations: Table<DurationStat>,
    histograms: Table<Histogram>,
    /// Row slot → each of its stats with the entries it was bound to (a
    /// duration-histogram has two) on the row's first record.
    rows: Vec<Option<[(Stat, usize, usize); 2]>>,
    /// The kind each row-bound key was bound as: one name, one kind.
    kinds: Vec<Stat>,
}

impl StatsInner {
    fn bind(&mut self, row: &Probe) -> [(Stat, usize, usize); 2] {
        let cells = row.stats.map(|s| {
            let Some(key) = s.key() else {
                return (s, 0, 0);
            };
            match self.kinds.iter().find(|b| b.key() == Some(key)) {
                Some(b) => assert!(
                    discriminant(b) == discriminant(&s),
                    "stats key {key:?} bound as two kinds ({b:?}, {s:?})"
                ),
                None => self.kinds.push(s),
            }
            match s {
                Stat::Count(_) => (s, cell(&mut self.counters, key), 0),
                Stat::Hist(_) => (s, cell(&mut self.histograms, key), 0),
                Stat::Time(_) => (s, cell(&mut self.durations, key), 0),
                _ => {
                    let i = cell(&mut self.durations, key);
                    (s, i, cell(&mut self.histograms, key))
                }
            }
        });
        let slot = row.slot();
        if self.rows.len() <= slot {
            self.rows.resize(slot + 1, None);
        }
        self.rows[slot] = Some(cells);
        cells
    }
}

/// A shared, clonable statistics registry. Written only through
/// [`crate::Probe`] rows (see [`crate::Probes`]); read by name.
#[derive(Clone, Default)]
pub struct Stats {
    inner: Rc<RefCell<StatsInner>>,
}

impl Stats {
    /// Create an empty registry.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Record one sample of `row`'s statistics: counters add `n`, a
    /// histogram records `n`, a duration records `d` (a duration-histogram
    /// also records `d` in ns). A row's first record binds its keys,
    /// creating each entry even when `n` is zero.
    #[inline]
    pub(crate) fn record(&self, row: &Probe, n: u64, d: SimDuration) {
        if row.stats[0] == Stat::None {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let cells = match inner.rows.get(row.slot()) {
            Some(Some(cells)) => *cells,
            _ => inner.bind(row),
        };
        for (stat, i, j) in cells {
            match stat {
                Stat::None => {}
                Stat::Count(_) => inner.counters[i].1 += n,
                Stat::Hist(_) => inner.histograms[i].1.record(n),
                Stat::Time(_) => inner.durations[i].1.record(d),
                Stat::TimeHist(_) => {
                    inner.durations[i].1.record(d);
                    inner.histograms[j].1.record(d.as_ps() / 1000);
                }
            }
        }
    }

    /// Current value of counter `key` (zero if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        get(&self.inner.borrow().counters, key)
            .copied()
            .unwrap_or(0)
    }

    /// Duration statistics for `key`.
    pub fn time(&self, key: &str) -> DurationStat {
        get(&self.inner.borrow().durations, key)
            .copied()
            .unwrap_or_default()
    }

    /// A copy of the histogram under `key` (empty if never touched).
    pub fn hist(&self, key: &str) -> Histogram {
        get(&self.inner.borrow().histograms, key)
            .cloned()
            .unwrap_or_default()
    }

    /// Snapshot every counter, duration stat and histogram into a plain,
    /// serializable value (sorted key order, hence deterministic).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: sorted(&inner.counters),
            durations: sorted(&inner.durations),
            histograms: sorted(&inner.histograms),
        }
    }

    /// Fold a snapshot (e.g. from another simulation run) into this registry.
    /// Counters add, duration stats merge, histograms merge bucket-wise.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        let mut inner = self.inner.borrow_mut();
        for (k, v) in &snap.counters {
            let i = cell(&mut inner.counters, k);
            inner.counters[i].1 += v;
        }
        for (k, d) in &snap.durations {
            let i = cell(&mut inner.durations, k);
            inner.durations[i].1.merge(d);
        }
        for (k, h) in &snap.histograms {
            let i = cell(&mut inner.histograms, k);
            inner.histograms[i].1.merge(h);
        }
    }
}

/// A plain-data snapshot of a [`Stats`] registry: sorted key/value vectors
/// of counters, duration stats and full histograms. Serializes to
/// deterministic JSON with [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(key, value)` counter pairs in sorted key order.
    pub counters: Vec<(String, u64)>,
    /// `(key, stat)` duration pairs in sorted key order.
    pub durations: Vec<(String, DurationStat)>,
    /// `(key, histogram)` pairs in sorted key order.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Serialize as a deterministic JSON document.
    ///
    /// Shape:
    /// `{"counters": {key: u64, ...},
    ///   "durations": {key: {count, total_ps, mean_ps, min_ps, max_ps}, ...},
    ///   "histograms": {key: {count, sum, mean, p50, p99, buckets: [u64; 65]}, ...}}`
    pub fn to_json(&self) -> String {
        use crate::json::{push_f64, push_str, push_u64};
        let mut o = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_str(&mut o, k);
            o.push_str(": ");
            push_u64(&mut o, *v);
        }
        o.push_str("\n  },\n  \"durations\": {");
        for (i, (k, d)) in self.durations.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_str(&mut o, k);
            o.push_str(": {\"count\": ");
            push_u64(&mut o, d.count);
            o.push_str(", \"total_ps\": ");
            push_u64(&mut o, d.total.as_ps());
            o.push_str(", \"mean_ps\": ");
            push_u64(&mut o, d.mean().as_ps());
            o.push_str(", \"min_ps\": ");
            push_u64(&mut o, d.min.as_ps());
            o.push_str(", \"max_ps\": ");
            push_u64(&mut o, d.max.as_ps());
            o.push('}');
        }
        o.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_str(&mut o, k);
            o.push_str(": {\"count\": ");
            push_u64(&mut o, h.count());
            o.push_str(", \"sum\": ");
            o.push_str(&format!("{}", h.sum()));
            o.push_str(", \"mean\": ");
            push_f64(&mut o, h.mean());
            o.push_str(", \"p50\": ");
            push_u64(&mut o, h.quantile(0.5));
            o.push_str(", \"p99\": ");
            push_u64(&mut o, h.quantile(0.99));
            o.push_str(", \"buckets\": [");
            for (j, b) in h.buckets().iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                push_u64(&mut o, *b);
            }
            o.push_str("]}");
        }
        o.push_str("\n  }\n}\n");
        o
    }
}

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Record a sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The raw log₂ bucket counts. Bucket 0 holds samples of value 0 or 1;
    /// bucket `i > 0` holds samples in `[2^(i-1), 2^i - 1]`... precisely:
    /// a sample `v` lands in bucket `64 - v.leading_zeros()` (0 for `v = 0`).
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Inclusive upper bound of bucket `i`, saturating at `u64::MAX` for the
    /// top bucket (whose true bound `2^64 - 1` is exactly `u64::MAX`).
    fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (((1u128 << i) - 1).min(u64::MAX as u128)) as u64
        }
    }

    /// Approximate quantile: upper bound of the bucket containing the
    /// nearest-rank sample for `q`.
    ///
    /// Uses the nearest-rank definition `rank = ceil(q * count)` clamped to
    /// `[1, count]`, so `q = 0.0` returns the bucket of the smallest sample
    /// and `q = 1.0` the bucket of the largest.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static X: Probe = Probe::new().count("x");
    static LAT: Probe = Probe::new().time("lat");
    static T: Probe = Probe::new().time("t");
    static H: Probe = Probe::new().hist("h");
    static LAT_HIST: Probe = Probe::new().hist("lat");
    static GET_BYTES: Probe = Probe::new().count("armci.get_bytes");
    static WAIT_GET: Probe = Probe::new().time_hist("armci.wait.get");

    #[test]
    fn counters_accumulate() {
        let s = Stats::new();
        s.record(&X, 1, SimDuration::ZERO);
        s.record(&X, 4, SimDuration::ZERO);
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn durations_track_min_max_mean() {
        let s = Stats::new();
        s.record(&LAT, 0, SimDuration::from_us(2));
        s.record(&LAT, 0, SimDuration::from_us(4));
        s.record(&LAT, 0, SimDuration::from_us(9));
        let d = s.time("lat");
        assert_eq!(d.count, 3);
        assert_eq!(d.total.as_us(), 15.0);
        assert_eq!(d.mean().as_us(), 5.0);
        assert_eq!(d.min.as_us(), 2.0);
        assert_eq!(d.max.as_us(), 9.0);
    }

    #[test]
    fn empty_duration_stat_is_zero() {
        let s = Stats::new();
        let d = s.time("never");
        assert_eq!(d.count, 0);
        assert_eq!(d.mean(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 185.0).abs() < 1.0);
        assert!(h.quantile(0.5) <= 7);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn stats_histogram_api() {
        let s = Stats::new();
        for v in [1u64, 10, 100, 1000] {
            s.record(&LAT_HIST, v, SimDuration::ZERO);
        }
        let h = s.hist("lat");
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 277.75).abs() < 0.01);
        assert_eq!(s.hist("missing").count(), 0);
    }

    #[test]
    fn quantile_top_bucket_does_not_underflow() {
        // Regression: a sample in the top bucket used to hit
        // `(1u128 << 64) as u64 - 1`, truncating to 0 then underflowing.
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        h.record(u64::MAX / 2 + 1); // also top bucket
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantile_nearest_rank_edges() {
        let mut h = Histogram::default();
        for v in [1u64, 16, 1024] {
            h.record(v);
        }
        // q = 0.0 -> rank clamps to 1 -> bucket of the smallest sample.
        assert_eq!(h.quantile(0.0), 1);
        // q = 1.0 -> rank = count -> bucket of the largest sample; the
        // upper bound of 1024's bucket [1024, 2047] is 2047.
        assert_eq!(h.quantile(1.0), 2047);
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        // rank never exceeds count even with fp rounding near 1.0.
        assert_eq!(h.quantile(0.999_999_999), h.quantile(1.0));
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(3);
        b.record(300);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 303);
        assert_eq!(a.buckets().iter().sum::<u64>(), 3);
    }

    #[test]
    fn snapshot_round_trips_and_absorbs() {
        let s = Stats::new();
        s.record(&X, 1, SimDuration::ZERO);
        s.record(&GET_BYTES, 4096, SimDuration::ZERO);
        s.record(&WAIT_GET, 0, SimDuration::from_us(3));
        assert_eq!(s.hist("armci.wait.get").sum(), 3000, "the ns histogram");
        let snap = s.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.durations.len(), 1);
        assert_eq!(snap.histograms.len(), 1);

        let merged = Stats::new();
        merged.absorb(&snap);
        merged.absorb(&snap);
        assert_eq!(merged.counter("x"), 2);
        assert_eq!(merged.time("armci.wait.get").count, 2);
        assert_eq!(merged.time("armci.wait.get").min.as_us(), 3.0);
        assert_eq!(merged.hist("armci.wait.get").count(), 2);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_complete() {
        let s = Stats::new();
        s.record(&X, 1, SimDuration::ZERO);
        s.record(&T, 0, SimDuration::from_ns(5));
        s.record(&H, u64::MAX, SimDuration::ZERO);
        let j1 = s.snapshot().to_json();
        let j2 = s.snapshot().to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"x\": 1"));
        assert!(j1.contains("\"total_ps\": 5000"));
        assert!(j1.contains("\"p99\": 18446744073709551615"));
        // Full bucket vector: 65 entries -> 64 commas inside the array.
        let buckets = j1.split("\"buckets\": [").nth(1).unwrap();
        let arr = buckets.split(']').next().unwrap();
        assert_eq!(arr.split(',').count(), 65);
    }
}
