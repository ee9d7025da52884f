//! Seeded inputs of the tcp workloads.
//!
//! Every row batch and query rectangle is a pure function of
//! `(seed, stream, k)`, so a closed loop can draw item `k` without knowing
//! in advance how many it will send, and verification can regenerate
//! exactly what was sent.

use mind_types::{HyperRect, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper bound of the `x` attribute of `load_schema`.
pub const X_MAX: u64 = (1 << 20) - 1;
/// Upper bound of the `timestamp` attribute.
pub const TS_MAX: u64 = 86_399;
/// Upper bound of the `size` attribute.
pub const SIZE_MAX: u64 = (1 << 20) - 1;
/// Rows per control-protocol `Insert` request of a closed loop.
pub const BATCH: usize = 64;
/// Timestamp width of a narrow (monitoring) query: five minutes.
pub const NARROW_S: u64 = 300;
/// Timestamp width of a wide query: one hour.
pub const WIDE_S: u64 = 3_600;

/// Independent input streams of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// `ingest` rows.
    Ingest = 1,
    /// `query_mixed` rows stored during set-up.
    Preload = 2,
    /// `query_mixed` open-loop insert trickle.
    Trickle = 3,
    /// `query_mixed` closed-loop queries.
    MixedQuery = 4,
    /// `ingest` post-drain spot-check queries.
    SpotQuery = 5,
}

/// Which half of the `query_mixed` query mix a rectangle belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// A five-minute window: the paper's monitoring query.
    Narrow,
    /// A one-hour window.
    Wide,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng(seed: u64, stream: Stream, k: u64) -> StdRng {
    let key = mix(mix(seed) ^ (stream as u64)).wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    StdRng::seed_from_u64(mix(key))
}

/// Batch `k` of `stream`: `rows` rows spread uniformly over the cube.
pub fn batch(seed: u64, stream: Stream, k: u64, rows: usize) -> Vec<Record> {
    let mut r = rng(seed, stream, k);
    (0..rows)
        .map(|_| {
            Record::new(vec![
                r.random_range(0..=X_MAX),
                r.random_range(0..=TS_MAX),
                r.random_range(0..=SIZE_MAX),
            ])
        })
        .collect()
}

/// The first `batches` batches of `rows` rows of `stream`, in order.
pub fn batches(seed: u64, stream: Stream, batches: u64, rows: usize) -> Vec<Vec<Record>> {
    (0..batches).map(|k| batch(seed, stream, k, rows)).collect()
}

/// A `width`-second timestamp window over the full `x` and `size` ranges.
fn window(mut r: StdRng, width: u64) -> HyperRect {
    let t = r.random_range(0..=TS_MAX + 1 - width);
    HyperRect::new(vec![0, t, 0], vec![X_MAX, t + width - 1, SIZE_MAX])
}

/// Query `k` of the `query_mixed` closed loop: three narrow windows to one
/// wide one, over the full `x` and `size` ranges.
pub fn mixed_query(seed: u64, k: u64) -> (QueryKind, HyperRect) {
    let (kind, width) = if k % 4 == 3 {
        (QueryKind::Wide, WIDE_S)
    } else {
        (QueryKind::Narrow, NARROW_S)
    };
    (kind, window(rng(seed, Stream::MixedQuery, k), width))
}

/// Spot-check query `k` of `ingest`: a narrow (monitoring) window over the
/// full `x` and `size` ranges, the shape of `query_mixed`'s narrow queries.
pub fn spot_query(seed: u64, k: u64) -> HyperRect {
    window(rng(seed, Stream::SpotQuery, k), NARROW_S)
}

/// Rows of `rows` inside `rect`, as an ascending multiset of value vectors.
pub fn in_rect<'a>(rows: impl IntoIterator<Item = &'a Record>, rect: &HyperRect) -> Vec<Vec<u64>> {
    let mut v: Vec<Vec<u64>> = rows
        .into_iter()
        .filter(|r| rect.contains_point(r.values()))
        .map(|r| r.values().to_vec())
        .collect();
    v.sort_unstable();
    v
}

/// `true` when ascending multiset `a` is contained in ascending multiset `b`.
pub fn is_sub_multiset(a: &[Vec<u64>], b: &[Vec<u64>]) -> bool {
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j == b.len() || b[j] != *x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_containment_counts_duplicates() {
        let v = |x: u64| vec![x];
        assert!(is_sub_multiset(&[v(1), v(2)], &[v(1), v(2), v(3)]));
        assert!(!is_sub_multiset(&[v(1), v(1)], &[v(1), v(2)]));
        assert!(is_sub_multiset(&[], &[v(1)]));
    }

    #[test]
    fn rectangles_stay_inside_the_schema() {
        for k in 0..64 {
            let (kind, r) = mixed_query(9, k);
            let width = r.hi(1) - r.lo(1) + 1;
            assert_eq!(
                width,
                if kind == QueryKind::Wide {
                    WIDE_S
                } else {
                    NARROW_S
                }
            );
            assert!(r.hi(1) <= TS_MAX);
        }
    }
}
