//! Output checks computed apart from the program: cosine similarity in
//! f64, brute-force top-k, and a rank-sum AUC. Nothing here calls into the
//! crates under test, so a fault in their scoring paths cannot hide itself.

use std::collections::{HashMap, HashSet};

/// Absolute tolerance between a served f32 score and the f64 cosine.
pub const SCORE_TOL: f64 = 1e-4;

/// Cosine similarity accumulated in f64 (0 when either vector is zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (x as f64, y as f64);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Every vector the server may return, by external id: the exported rows
/// (ids `0..n`) plus the rows the benchmark upserted.
pub struct VectorBook {
    pub dim: usize,
    base: Vec<f32>,
    extra: HashMap<u64, Vec<f32>>,
}

impl VectorBook {
    pub fn new(base: Vec<f32>, dim: usize) -> Self {
        Self { dim, base, extra: HashMap::new() }
    }

    pub fn base_len(&self) -> usize {
        self.base.len() / self.dim
    }

    pub fn insert(&mut self, id: u64, vector: Vec<f32>) {
        self.extra.insert(id, vector);
    }

    pub fn get(&self, id: u64) -> Option<&[f32]> {
        if (id as usize) < self.base_len() {
            let i = id as usize * self.dim;
            Some(&self.base[i..i + self.dim])
        } else {
            self.extra.get(&id).map(Vec::as_slice)
        }
    }
}

/// Brute-force top-`k` of `query` over the base rows by f64 cosine,
/// excluding `exclude`; ties broken by ascending id, as the server does.
pub fn brute_topk(
    book: &VectorBook,
    query: &[f32],
    exclude: Option<u64>,
    k: usize,
) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> = (0..book.base_len() as u64)
        .filter(|&id| Some(id) != exclude)
        .map(|id| (id, cosine(query, book.get(id).expect("base row"))))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Every returned score must equal the f64 cosine between the query and
/// the returned row (the exact-f32 rerank promise), and no id may repeat.
pub fn check_scores(book: &VectorBook, query: &[f32], answer: &[(u64, f32)]) -> Result<(), String> {
    let mut seen = HashSet::new();
    for &(id, score) in answer {
        if !seen.insert(id) {
            return Err(format!("id {id} returned twice"));
        }
        let row = book.get(id).ok_or_else(|| format!("unknown id {id} returned"))?;
        let exact = cosine(query, row);
        if (score as f64 - exact).abs() > SCORE_TOL {
            return Err(format!("id {id}: served score {score} but cosine is {exact}"));
        }
    }
    Ok(())
}

/// An exact kNN answer must be the brute-force top-k up to ties: the same
/// length, and position by position a score within tolerance of the
/// ground truth's (which, with [`check_scores`], pins the ids).
pub fn check_exact(
    book: &VectorBook,
    query: &[f32],
    answer: &[(u64, f32)],
    truth: &[(u64, f64)],
) -> Result<(), String> {
    check_scores(book, query, answer)?;
    if answer.len() != truth.len() {
        return Err(format!("{} neighbors returned, {} expected", answer.len(), truth.len()));
    }
    for (i, (&(id, score), &(tid, tscore))) in answer.iter().zip(truth).enumerate() {
        if (score as f64 - tscore).abs() > SCORE_TOL {
            return Err(format!(
                "rank {i}: id {id} scores {score}, brute force has id {tid} at {tscore}"
            ));
        }
    }
    Ok(())
}

/// A full answer of `k` neighbours that holds none of the ids in `gone`
/// (deleted before the question was asked).
pub fn check_absent(answer: &[(u64, f32)], gone: &[u64], k: usize) -> Result<(), String> {
    if answer.len() != k {
        return Err(format!("{} neighbors, {k} expected", answer.len()));
    }
    match answer.iter().find(|(id, _)| gone.contains(id)) {
        Some((id, _)) => Err(format!("deleted id {id} answered")),
        None => Ok(()),
    }
}

/// Share of the ground-truth ids present in the answer.
pub fn recall(answer: &[(u64, f32)], truth: &[(u64, f64)]) -> f64 {
    let got: HashSet<u64> = answer.iter().map(|a| a.0).collect();
    truth.iter().filter(|t| got.contains(&t.0)).count() as f64 / truth.len().max(1) as f64
}

/// Area under the ROC curve by the Mann-Whitney rank sum: the probability
/// that a random positive outscores a random negative, ties counting half.
///
/// # Panics
/// Panics when either class is empty.
pub fn rank_sum_auc(pos: &[f64], neg: &[f64]) -> f64 {
    assert!(!pos.is_empty() && !neg.is_empty(), "AUC needs both classes");
    let mut all: Vec<(f64, bool)> =
        pos.iter().map(|&s| (s, true)).chain(neg.iter().map(|&s| (s, false))).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rank_sum = 0.0f64;
    let mut i = 0;
    while i < all.len() {
        let mut j = i;
        while j < all.len() && all[j].0 == all[i].0 {
            j += 1;
        }
        // Ranks i+1..=j share their average.
        let avg = (i + 1 + j) as f64 / 2.0;
        rank_sum += avg * all[i..j].iter().filter(|e| e.1).count() as f64;
        i = j;
    }
    let (np, nn) = (pos.len() as f64, neg.len() as f64);
    (rank_sum - np * (np + 1.0) / 2.0) / (np * nn)
}

/// Held-out link AUC of an embedding matrix by cosine scores.
pub fn link_auc(z: &[f32], dim: usize, pos: &[(u32, u32)], neg: &[(u32, u32)]) -> f64 {
    let row = |v: u32| &z[v as usize * dim..(v as usize + 1) * dim];
    let score =
        |p: &[(u32, u32)]| p.iter().map(|&(u, v)| cosine(row(u), row(v))).collect::<Vec<_>>();
    rank_sum_auc(&score(pos), &score(neg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> VectorBook {
        // Four 2-d rows: id 0 = (1,0), 1 = (1,1), 2 = (0,1), 3 = (-1,0).
        VectorBook::new(vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0, -1.0, 0.0], 2)
    }

    #[test]
    fn cosine_by_hand() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 1.0]) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert_eq!(cosine(&[1.0, 0.0], &[-2.0, 0.0]), -1.0);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn brute_topk_by_hand() {
        let b = book();
        let top = brute_topk(&b, &[1.0, 0.0], Some(0), 2);
        assert_eq!(top.iter().map(|t| t.0).collect::<Vec<_>>(), vec![1, 2]);
        assert!((top[0].1 - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert_eq!(top[1].1, 0.0);
        // Ties break by ascending id: (0,1)·(1,0) == (0,1)·(-1,0) == 0.
        let tie = brute_topk(&b, &[0.0, 1.0], Some(2), 3);
        assert_eq!(tie.iter().map(|t| t.0).collect::<Vec<_>>(), vec![1, 0, 3]);
    }

    #[test]
    fn rank_sum_auc_by_hand() {
        assert_eq!(rank_sum_auc(&[3.0, 4.0], &[1.0, 2.0]), 1.0);
        assert_eq!(rank_sum_auc(&[1.0, 2.0], &[3.0, 4.0]), 0.0);
        // One tie between a positive and a negative counts half:
        // pairs (2>1) (2=2 → ½) (3>1) (3>2) → 3.5 / 4.
        assert_eq!(rank_sum_auc(&[2.0, 3.0], &[1.0, 2.0]), 0.875);
        assert_eq!(rank_sum_auc(&[5.0], &[5.0]), 0.5);
    }

    #[test]
    fn exact_answer_accepted_and_corruptions_rejected() {
        let b = book();
        let q = [1.0f32, 0.0];
        let truth = brute_topk(&b, &q, Some(0), 2);
        let good = [(1u64, std::f32::consts::FRAC_1_SQRT_2), (2, 0.0)];
        check_exact(&b, &q, &good, &truth).unwrap();
        // A tie swapped in for an equal-scoring id is still correct.
        let tie_truth = brute_topk(&b, &[0.0, 1.0], Some(2), 2);
        check_exact(&b, &[0.0, 1.0], &[(1, std::f32::consts::FRAC_1_SQRT_2), (3, 0.0)], &tie_truth)
            .unwrap();
        // Wrong neighbor, wrong score, short answer, duplicate, unknown id.
        assert!(check_exact(&b, &q, &[(1, 0.70710677), (3, -1.0)], &truth).is_err());
        assert!(check_exact(&b, &q, &[(1, 0.9), (2, 0.0)], &truth).is_err());
        assert!(check_exact(&b, &q, &[(1, 0.70710677)], &truth).is_err());
        assert!(check_exact(&b, &q, &[(1, 0.70710677), (1, 0.70710677)], &truth).is_err());
        assert!(check_scores(&b, &q, &[(9, 0.0)]).is_err());
    }

    #[test]
    fn deleted_ids_rejected() {
        let answer = [(1u64, 0.9f32), (2, 0.5)];
        check_absent(&answer, &[7, 8], 2).unwrap();
        // A deleted id served again, and a short answer.
        assert!(check_absent(&answer, &[2], 2).is_err());
        assert!(check_absent(&answer[..1], &[7], 2).is_err());
    }

    #[test]
    fn recall_and_link_auc_by_hand() {
        let b = book();
        let truth = brute_topk(&b, &[1.0, 0.0], Some(0), 2);
        assert_eq!(recall(&[(1, 0.7), (2, 0.0)], &truth), 1.0);
        assert_eq!(recall(&[(1, 0.7), (3, -1.0)], &truth), 0.5);
        let z = [1.0f32, 0.0, 1.0, 1.0, 0.0, 1.0, -1.0, 0.0];
        // Positive pair (0,1) has cosine 0.707; negative (0,3) has -1.
        assert_eq!(link_auc(&z, 2, &[(0, 1)], &[(0, 3)]), 1.0);
        // A corrupted embedding that swaps rows 1 and 3 inverts the order.
        let bad = [1.0f32, 0.0, -1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        assert_eq!(link_auc(&bad, 2, &[(0, 1)], &[(0, 3)]), 0.0);
    }
}
