//! Seeded k-means clustering over slowdown vectors.
//!
//! Both allocation levels group entities (tasks, then VCPUs) whose
//! slowdown vectors are similar, so that entities sharing a core make
//! similar use of the cache and bandwidth given to that core. The
//! feature space is the flattened slowdown surface (one dimension per
//! `(c, b)` cell); distances are Euclidean.
//!
//! The implementation is deterministic for a given seed: k-means++
//! initialization drives all randomness through the caller's RNG, and
//! Lloyd iterations run to convergence or a fixed cap.
//!
//! Points and centroids live in point-major buffers. The assignment
//! step computes the distances from a pair of points to a block of up
//! to four centroids at once, with one accumulator per
//! (point, centroid) pair. Each accumulator still sums its squared
//! differences over the dimensions in order, with a separate multiply
//! and add, so every distance is bit-identical to the scalar
//! `distance_sq`; the chains are merely independent instead of one
//! long serial one.

use vc2m_rng::Rng;

/// Maximum Lloyd iterations before giving up on convergence.
const MAX_ITERATIONS: usize = 50;

/// Centroids per block of the distance kernel.
const LANES: usize = 4;

/// Equal-length feature rows stored point-major in one buffer: row `i`
/// occupies `data[i * dim..(i + 1) * dim]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    data: Vec<f64>,
    dim: usize,
    len: usize,
}

impl Features {
    /// Collects `rows` into one buffer.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent dimensions.
    pub fn from_rows<I>(rows: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[f64]>,
    {
        let mut data = Vec::new();
        let mut dim = None;
        let mut len = 0;
        for row in rows {
            let row = row.as_ref();
            assert_eq!(
                *dim.get_or_insert(row.len()),
                row.len(),
                "all points must share one dimension"
            );
            data.extend_from_slice(row);
            len += 1;
        }
        Features {
            data,
            dim: dim.unwrap_or(0),
            len,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimension shared by every point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature row of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "point {i} out of range ({} points)", self.len);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Result of a clustering run: for each input point, the index of its
/// cluster in `0..k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<usize>,
    k: usize,
}

impl Clustering {
    /// Cluster index of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cluster_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// The assignment vector.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of clusters requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The members of each cluster, as index lists.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k];
        for (i, &c) in self.assignment.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

/// Runs k-means over `points`, producing at most `k` clusters.
///
/// Empty inputs yield an empty clustering; `k` is clamped to the
/// number of points. Duplicate points are fine (k-means++ falls back
/// to uniform choice when all remaining distances are zero).
///
/// # Panics
///
/// Panics if `k` is zero while points are non-empty.
pub fn kmeans<R: Rng>(points: &Features, k: usize, rng: &mut R) -> Clustering {
    let n = points.len();
    if n == 0 {
        return Clustering {
            assignment: Vec::new(),
            k: 0,
        };
    }
    assert!(k > 0, "k must be positive for a non-empty point set");
    let dim = points.dim();
    let k = k.min(n);

    let mut centroids = init_plus_plus(points, k, rng);
    let mut assignment = vec![0usize; n];
    let mut distances = Vec::with_capacity(n * k);
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];
    for _ in 0..MAX_ITERATIONS {
        let mut changed = false;
        distance_table(points, &centroids, k, &mut distances);
        for (i, row) in distances.chunks_exact(k).enumerate() {
            let closest = nearest(row);
            if assignment[i] != closest {
                assignment[i] = closest;
                changed = true;
            }
        }
        // Recompute centroids; refill an empty cluster by stealing the
        // point farthest from its centroid — but only when that point
        // is at a strictly positive distance and leaves at least one
        // point behind. (With identical points there is nothing
        // meaningful to split; empty clusters are then left empty and
        // callers skip them.)
        sums.fill(0.0);
        counts.fill(0);
        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            for (s, v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(points.row(i)) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let candidate = (0..n)
                    .filter(|&i| counts[assignment[i]] >= 2)
                    .map(|i| {
                        let own = assignment[i];
                        (
                            i,
                            distance_sq(points.row(i), &centroids[own * dim..(own + 1) * dim]),
                        )
                    })
                    .max_by(|(i, a), (j, b)| {
                        a.partial_cmp(b)
                            .expect("distances are finite")
                            .then(i.cmp(j))
                    });
                if let Some((far, dist)) = candidate {
                    if dist > 0.0 {
                        counts[assignment[far]] -= 1;
                        assignment[far] = c;
                        counts[c] = 1;
                        centroids[c * dim..(c + 1) * dim].copy_from_slice(points.row(far));
                        changed = true;
                    }
                }
            } else {
                let count = counts[c] as f64;
                for (d, s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *d = s / count;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Clustering { assignment, k }
}

/// k-means++ seeding. Returns `k` centroids, point-major.
///
/// Each point keeps its squared distance to the nearest centroid so
/// far, lowered as each centroid is chosen: the same running
/// `f64::min` the from-scratch fold over all centroids computes.
fn init_plus_plus<R: Rng>(points: &Features, k: usize, rng: &mut R) -> Vec<f64> {
    let (n, dim) = (points.len(), points.dim());
    let mut centroids = Vec::with_capacity(k * dim);
    centroids.extend_from_slice(points.row(rng.gen_range(0..n)));
    let mut weights = vec![f64::INFINITY; n];
    let mut newest = Vec::with_capacity(n);
    for _ in 1..k {
        let last = &centroids[centroids.len() - dim..];
        distance_table(points, last, 1, &mut newest);
        for (w, d) in weights.iter_mut().zip(&newest) {
            *w = w.min(*d);
        }
        let total: f64 = weights.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_f64() * total;
            let mut chosen = n - 1;
            for (i, w) in weights.iter().enumerate() {
                if target < *w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centroids.extend_from_slice(points.row(chosen));
    }
    centroids
}

/// Index of the smallest distance in `row`, the first on ties.
fn nearest(row: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &d) in row.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Squared Euclidean distance, summed over the dimensions in order.
fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Squared distance from every point to each of the `k` centroids
/// (point-major, `k × dim`), written to `out[i * k + c]`. Every entry
/// is bit-identical to `distance_sq(points.row(i), centroid c)`.
fn distance_table(points: &Features, centroids: &[f64], k: usize, out: &mut Vec<f64>) {
    let (n, dim) = (points.len(), points.dim());
    debug_assert_eq!(centroids.len(), k * dim);
    out.clear();
    out.resize(n * k, 0.0);
    // Centroids transposed into blocks of LANES: entry `d` of block `b`
    // holds dimension `d` of centroids `b * LANES ..`. Lanes past `k`
    // stay zero and their distances are dropped.
    let blocks = k.div_ceil(LANES);
    let mut lanes = vec![[0.0; LANES]; blocks * dim];
    for c in 0..k {
        let (block, lane) = (c / LANES, c % LANES);
        for (d, &v) in centroids[c * dim..(c + 1) * dim].iter().enumerate() {
            lanes[block * dim + d][lane] = v;
        }
    }
    for i in (0..n).step_by(2) {
        // An odd last point is paired with itself.
        let j = (i + 1).min(n - 1);
        for block in 0..blocks {
            let acc = pair_distances(
                points.row(i),
                points.row(j),
                &lanes[block * dim..(block + 1) * dim],
            );
            let first = block * LANES;
            let width = LANES.min(k - first);
            out[i * k + first..i * k + first + width].copy_from_slice(&acc[0][..width]);
            out[j * k + first..j * k + first + width].copy_from_slice(&acc[1][..width]);
        }
    }
}

/// The distance kernel: squared distances from points `a` and `b` to
/// the `LANES` centroids of one transposed block, with one independent
/// accumulator per (point, lane).
#[inline]
fn pair_distances(a: &[f64], b: &[f64], block: &[[f64; LANES]]) -> [[f64; LANES]; 2] {
    let mut acc = [[0.0; LANES]; 2];
    for ((&x, &y), lane) in a.iter().zip(b).zip(block) {
        for l in 0..LANES {
            let dx = x - lane[l];
            acc[0][l] += dx * dx;
            let dy = y - lane[l];
            acc[1][l] += dy * dy;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_rng::{cases::check, DetRng};

    fn rng() -> DetRng {
        DetRng::seed_from_u64(17)
    }

    fn features(raw: &[Vec<f64>]) -> Features {
        Features::from_rows(raw)
    }

    #[test]
    fn empty_input() {
        let c = kmeans(&Features::from_rows(Vec::<Vec<f64>>::new()), 3, &mut rng());
        assert_eq!(c.k(), 0);
        assert!(c.assignment().is_empty());
    }

    #[test]
    fn k_clamped_to_point_count() {
        let c = kmeans(&features(&[vec![0.0], vec![1.0]]), 5, &mut rng());
        assert_eq!(c.k(), 2);
    }

    #[test]
    fn separates_two_obvious_blobs() {
        let raw: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                if i < 5 {
                    vec![0.0 + i as f64 * 0.01, 0.0]
                } else {
                    vec![10.0 + i as f64 * 0.01, 10.0]
                }
            })
            .collect();
        let c = kmeans(&features(&raw), 2, &mut rng());
        let first = c.cluster_of(0);
        assert!((0..5).all(|i| c.cluster_of(i) == first));
        let second = c.cluster_of(5);
        assert!((5..10).all(|i| c.cluster_of(i) == second));
        assert_ne!(first, second);
    }

    #[test]
    fn no_cluster_is_empty() {
        // 6 points, 3 clusters, two far blobs: the third centroid must
        // steal a point rather than stay empty.
        let raw: Vec<Vec<f64>> = vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![9.0],
            vec![9.1],
            vec![9.2],
        ];
        let c = kmeans(&features(&raw), 3, &mut rng());
        let members = c.members();
        assert_eq!(members.len(), 3);
        assert!(members.iter().all(|m| !m.is_empty()), "{members:?}");
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn identical_points_collapse_to_one_cluster() {
        // Nothing meaningful separates identical points: they all land
        // in one cluster and the other clusters stay empty (callers
        // skip empty clusters).
        let raw: Vec<Vec<f64>> = vec![vec![1.0, 2.0]; 8];
        let c = kmeans(&features(&raw), 3, &mut rng());
        assert_eq!(c.assignment().len(), 8);
        let non_empty: Vec<_> = c.members().into_iter().filter(|m| !m.is_empty()).collect();
        assert_eq!(non_empty.len(), 1);
        assert_eq!(non_empty[0].len(), 8);
    }

    #[test]
    fn deterministic_for_seed() {
        let raw: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i * i % 7) as f64, i as f64])
            .collect();
        let points = features(&raw);
        let a = kmeans(&points, 4, &mut DetRng::seed_from_u64(5));
        let b = kmeans(&points, 4, &mut DetRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn mismatched_dimensions_panic() {
        let _ = Features::from_rows([vec![0.0], vec![0.0, 1.0]]);
    }

    #[test]
    fn single_cluster_contains_everything() {
        let raw: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let c = kmeans(&features(&raw), 1, &mut rng());
        assert!(c.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn interleaved_distances_match_scalar_bitwise() {
        check(64, |rng| {
            let n = rng.gen_range(1usize..12); // odd and even counts
            let dim = rng.gen_range(1usize..40);
            let raw: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f64..5.0)).collect())
                .collect();
            let points = features(&raw);
            for k in 1..=8 {
                let centroids: Vec<f64> =
                    (0..k * dim).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
                let mut table = Vec::new();
                distance_table(&points, &centroids, k, &mut table);
                assert_eq!(table.len(), n * k);
                for i in 0..n {
                    for c in 0..k {
                        let scalar = distance_sq(points.row(i), &centroids[c * dim..(c + 1) * dim]);
                        assert_eq!(
                            table[i * k + c].to_bits(),
                            scalar.to_bits(),
                            "point {i} of {n}, centroid {c} of {k}, dim {dim}"
                        );
                    }
                }
            }
        });
    }
}
