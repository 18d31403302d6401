//! The benchmark's own answer check: textbook two-row DPs over the
//! inputs the program generates for each `(problem, n)`.
//!
//! The server fixes one instance per `(problem, n)` (the `with_problem!`
//! registry in `src/cli.rs`): `random_seq(n, 4, seed)` pairs with seeds
//! 1/2 (levenshtein), 3/4 (lcs) and 9/10 (needleman-wunsch), and
//! `DtwKernel::random_walk(n, n, 5)` for dtw. None of the program's
//! solvers run here; only its input generators do.

use lddp::workloads::random_seq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The answer line the server must return for `problem` at size `n`,
/// in the program's wire format.
pub fn expected_answer(problem: &str, n: usize) -> Result<String, String> {
    let seqs = |s1: u64, s2: u64| (random_seq(n, 4, s1), random_seq(n, 4, s2));
    Ok(match problem {
        "lcs" => {
            let (a, b) = seqs(3, 4);
            format!("LCS length = {}", lcs(&a, &b))
        }
        "levenshtein" => {
            let (a, b) = seqs(1, 2);
            format!("edit distance = {}", levenshtein(&a, &b))
        }
        "needleman-wunsch" => {
            let (a, b) = seqs(9, 10);
            format!("global alignment score = {}", needleman_wunsch(&a, &b))
        }
        "dtw" => {
            let (a, b) = random_walks(n, 5);
            format!("DTW distance = {:.3}", dtw(&a, &b))
        }
        other => return Err(format!("no reference DP for problem '{other}'")),
    })
}

/// The two series `DtwKernel::random_walk(n, n, seed)` draws: steps
/// uniform in [-1, 1) from one seeded generator, `a` first.
fn random_walks(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walk = || {
        let mut x = 0.0f32;
        (0..n)
            .map(|_| {
                x += rng.gen_range(-1.0..1.0);
                x
            })
            .collect::<Vec<f32>>()
    };
    let a = walk();
    let b = walk();
    (a, b)
}

/// Longest common subsequence length.
pub fn lcs(a: &[u8], b: &[u8]) -> u32 {
    let mut prev = vec![0u32; b.len() + 1];
    let mut cur = vec![0u32; b.len() + 1];
    for &x in a {
        for (j, &y) in b.iter().enumerate() {
            cur[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Unit-cost edit distance.
pub fn levenshtein(a: &[u8], b: &[u8]) -> u32 {
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    let mut cur = vec![0u32; b.len() + 1];
    for (i, &x) in a.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &y) in b.iter().enumerate() {
            let sub = prev[j] + u32::from(x != y);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Global alignment score: match +1, mismatch −1, gap −1.
pub fn needleman_wunsch(a: &[u8], b: &[u8]) -> i32 {
    let mut prev: Vec<i32> = (0..=b.len() as i32).map(|j| -j).collect();
    let mut cur = vec![0i32; b.len() + 1];
    for (i, &x) in a.iter().enumerate() {
        cur[0] = -(i as i32 + 1);
        for (j, &y) in b.iter().enumerate() {
            let diag = prev[j] + if x == y { 1 } else { -1 };
            cur[j + 1] = diag.max(prev[j + 1] - 1).max(cur[j] - 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Dynamic time warping in f32: each cell is |a−b| plus the least of
/// its W, NW and N neighbours.
pub fn dtw(a: &[f32], b: &[f32]) -> f32 {
    let mut prev = vec![0f32; b.len()];
    let mut cur = vec![0f32; b.len()];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            let local = (x - y).abs();
            cur[j] = match (i, j) {
                (0, 0) => local,
                (0, _) => local + cur[j - 1],
                (_, 0) => local + prev[0],
                _ => local + cur[j - 1].min(prev[j - 1]).min(prev[j]),
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        assert_eq!(lcs(b"ABCBDAB", b"BDCABA"), 4);
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(needleman_wunsch(b"AC", b"AC"), 2);
        assert_eq!(needleman_wunsch(b"A", b"C"), -1);
        assert_eq!(dtw(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0]), 0.0);
        assert_eq!(dtw(&[0.0, 2.0], &[1.0]), 2.0);
    }

    /// The reference DPs agree with the program's sequential oracle on
    /// the program's own instances, so a served answer that differs from
    /// them is wrong.
    #[test]
    fn matches_the_programs_oracle_on_its_instances() {
        for problem in ["lcs", "levenshtein", "needleman-wunsch", "dtw"] {
            for n in [2, 3, 64, 257] {
                assert_eq!(
                    expected_answer(problem, n).unwrap(),
                    lddp::cli::run_solve_seq(problem, n).unwrap(),
                    "{problem} n={n}"
                );
            }
        }
    }
}
