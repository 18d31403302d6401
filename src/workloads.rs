//! Seeded synthetic workload generators shared by the CLI, examples and
//! tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random byte string over `0..alphabet`.
pub fn random_seq(len: usize, alphabet: u8, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
}

/// A radial gradient image (deterministic, structured).
pub fn radial_gradient(rows: usize, cols: usize) -> Vec<u8> {
    let mut image = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let di = i as f64 / rows.max(1) as f64 - 0.5;
            let dj = j as f64 / cols.max(1) as f64 - 0.5;
            let r = (di * di + dj * dj).sqrt() * 2.0;
            image.push((255.0 * (1.0 - r).clamp(0.0, 1.0)) as u8);
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_seq(32, 4, 9), random_seq(32, 4, 9));
        assert_ne!(random_seq(32, 4, 9), random_seq(32, 4, 10));
    }

    #[test]
    fn alphabet_respected() {
        assert!(random_seq(256, 3, 2).iter().all(|&b| b < 3));
    }

    #[test]
    fn gradient_is_bright_in_the_centre() {
        let img = radial_gradient(9, 9);
        assert!(img[4 * 9 + 4] > img[0]);
        assert_eq!(img.len(), 81);
    }
}
