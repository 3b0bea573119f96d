//! Order statistics and the answer digest.
//!
//! Percentiles use the nearest-rank definition on a sorted sample. A tail
//! is the highest percentile that still has at least [`TAIL_BEYOND`]
//! samples strictly beyond it, i.e. the 11th-largest sample, so the
//! reported tail is never a handful of outliers.

use jits_common::Value;

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Relative tolerance for floats in the answer check. Aggregates summed in
/// a different join order may differ in the last bits.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // the epsilon keeps an exact product (99.99% of 100000) from rounding up
    let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A tail percentile chosen by the rule in the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used: `100 × (n − 10) / n`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of an ascending slice with [`TAIL_BEYOND`]
/// samples beyond it; `None` when there are not more than that many.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    (n > TAIL_BEYOND).then(|| Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: sorted[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// Order-insensitive digest of a result set. Non-float values are hashed
/// exactly; float columns are kept per row (keyed by the row's exact part)
/// so they can be compared within [`FLOAT_REL_TOL`].
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    rows: usize,
    exact: u64,
    floats: Vec<(u64, Vec<f64>)>,
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Digest {
    /// Digests `rows` regardless of their order.
    pub fn of(rows: &[Vec<Value>]) -> Digest {
        let mut exact = 0u64;
        let mut floats = Vec::new();
        for row in rows {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            let mut fl = Vec::new();
            for v in row {
                h = match v {
                    Value::Null => fnv(h, &[0]),
                    Value::Int(i) => fnv(fnv(h, &[1]), &i.to_le_bytes()),
                    Value::Float(f) => {
                        fl.push(*f);
                        fnv(h, &[2])
                    }
                    Value::Str(s) => fnv(fnv(fnv(h, &[3]), s.as_bytes()), &[0xFF]),
                };
            }
            exact = exact.wrapping_add(h);
            if !fl.is_empty() {
                floats.push((h, fl));
            }
        }
        floats.sort_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| {
                a.1.iter()
                    .zip(&b.1)
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        Digest {
            rows: rows.len(),
            exact,
            floats,
        }
    }

    /// Whether two digests describe the same multiset of rows, floats
    /// compared within [`FLOAT_REL_TOL`].
    pub fn matches(&self, other: &Digest) -> bool {
        self.rows == other.rows
            && self.exact == other.exact
            && self.floats.len() == other.floats.len()
            && self.floats.iter().zip(&other.floats).all(|(a, b)| {
                a.0 == b.0
                    && a.1.len() == b.1.len()
                    && a.1.iter().zip(&b.1).all(|(x, y)| close(*x, *y))
            })
    }
}

fn close(x: f64, y: f64) -> bool {
    x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&sorted(100), 50.0), Some(50.0));
        assert_eq!(percentile(&sorted(100), 99.0), Some(99.0));
        assert_eq!(percentile(&sorted(100), 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[1.0]), None);
        assert_eq!(tail(&sorted(10)), None);
        let t = tail(&sorted(11)).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        let t = tail(&sorted(1000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        // the tail is the nearest-rank percentile it names, with 10 beyond
        for n in [11, 70, 210, 770, 2310, 100_000] {
            let v = sorted(n);
            let t = tail(&v).unwrap();
            assert_eq!(percentile(&v, t.percentile), Some(t.value));
            assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        }
    }

    fn row(vals: &[Value]) -> Vec<Value> {
        vals.to_vec()
    }

    #[test]
    fn digest_is_order_insensitive() {
        let a = vec![
            row(&[Value::Int(1), Value::str("x")]),
            row(&[Value::Int(2), Value::str("y")]),
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        assert!(Digest::of(&a).matches(&Digest::of(&b)));
        let c = vec![a[0].clone(), a[0].clone()];
        assert!(!Digest::of(&a).matches(&Digest::of(&c)));
        // column boundaries matter: ("ab","c") differs from ("a","bc")
        let d = vec![row(&[Value::str("ab"), Value::str("c")])];
        let e = vec![row(&[Value::str("a"), Value::str("bc")])];
        assert!(!Digest::of(&d).matches(&Digest::of(&e)));
    }

    #[test]
    fn digest_empty_and_single() {
        let empty = Digest::of(&[]);
        assert!(empty.matches(&Digest::of(&[])));
        let one = Digest::of(&[row(&[Value::Null])]);
        assert!(!empty.matches(&one));
        assert!(!one.matches(&empty));
        assert!(one.matches(&Digest::of(&[row(&[Value::Null])])));
    }

    #[test]
    fn digest_floats_within_tolerance() {
        let mk = |f: f64| vec![row(&[Value::str("audi"), Value::Int(3), Value::Float(f)])];
        let base = Digest::of(&mk(1234.5));
        assert!(base.matches(&Digest::of(&mk(1234.5 * (1.0 + 1e-12)))));
        assert!(!base.matches(&Digest::of(&mk(1234.5 * (1.0 + 1e-6)))));
        assert!(!base.matches(&Digest::of(&mk(-1234.5))));
        // float rows pair up by their exact part, whatever the row order
        let two = |f: f64, g: f64| {
            vec![
                row(&[Value::str("a"), Value::Float(f)]),
                row(&[Value::str("b"), Value::Float(g)]),
            ]
        };
        let swapped = vec![two(1.0, 2.0)[1].clone(), two(1.0, 2.0)[0].clone()];
        assert!(Digest::of(&two(1.0, 2.0)).matches(&Digest::of(&swapped)));
        assert!(!Digest::of(&two(1.0, 2.0)).matches(&Digest::of(&two(2.0, 1.0))));
    }
}
