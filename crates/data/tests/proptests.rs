//! Property-based tests for dataset generation and input assembly.

use deepcsi_bfi::BeamformingFeedback;
use deepcsi_data::{clean_phase_offsets, InputSpec};
use deepcsi_linalg::{CMatrix, C64};
use deepcsi_phy::{Codebook, MimoConfig};
use proptest::prelude::*;

fn feedback(n_sc: usize, seed: u64) -> BeamformingFeedback {
    // Spectrally smooth CFR (slow variation across tones), like a real
    // multipath channel — phase unwrapping across tones is well-defined.
    let mimo = MimoConfig::paper_default();
    let cfr: Vec<CMatrix> = (0..n_sc)
        .map(|j| {
            CMatrix::from_fn(3, 2, |r, c| {
                let x = j as f64 * 0.06 + seed as f64 * 0.13 + r as f64 * 1.3 + c as f64 * 2.1;
                C64::new(1.0 + 0.4 * x.sin(), 0.4 * (x * 1.7).cos())
            })
        })
        .collect();
    let sc: Vec<i32> = (0..n_sc as i32).collect();
    BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_HIGH)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tensor_shape_matches_spec(n_sc in 8usize..64, stride in 1usize..4, seed in 0u64..100) {
        let fb = feedback(n_sc, seed);
        let spec = InputSpec { stride, ..InputSpec::default() };
        let t = spec.tensor(&fb);
        prop_assert_eq!(t.shape()[0], 5);
        prop_assert_eq!(t.shape()[1], 1);
        prop_assert_eq!(t.shape()[2], n_sc.div_ceil(stride));
        prop_assert!(t.is_finite());
    }

    #[test]
    fn tensor_values_bounded_by_unitarity(n_sc in 4usize..32, seed in 0u64..100) {
        let fb = feedback(n_sc, seed);
        let t = InputSpec::default().tensor(&fb);
        prop_assert!(t.as_slice().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn cleaning_is_contractive(n_sc in 8usize..48, seed in 0u64..100) {
        // Exact idempotency does not hold (phase unwrapping can resolve
        // differently after the first pass near ±π), but re-cleaning must
        // change the series far less than the first cleaning did.
        let fb = feedback(n_sc, seed);
        let raw = fb.reconstruct();
        let mut once = raw.clone();
        clean_phase_offsets(&mut once);
        let mut twice = once.clone();
        clean_phase_offsets(&mut twice);
        let delta = |a: &deepcsi_bfi::VSeries, b: &deepcsi_bfi::VSeries| -> f64 {
            a.v.iter().zip(b.v.iter()).map(|(x, y)| x.sub(y).fro_norm()).sum()
        };
        let first = delta(&raw, &once);
        let second = delta(&once, &twice);
        prop_assert!(
            second <= 0.5 * first + 1e-9,
            "second pass ({second}) not much smaller than first ({first})"
        );
    }

    #[test]
    fn cleaning_preserves_magnitudes(n_sc in 8usize..48, seed in 0u64..100) {
        let fb = feedback(n_sc, seed);
        let raw = fb.reconstruct();
        let mut cleaned = raw.clone();
        clean_phase_offsets(&mut cleaned);
        for (a, b) in raw.v.iter().zip(cleaned.v.iter()) {
            for m in 0..3 {
                for s in 0..2 {
                    prop_assert!((a[(m, s)].abs() - b[(m, s)].abs()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn subband_then_stride_compose(n_sc in 24usize..64, seed in 0u64..50) {
        let fb = feedback(n_sc, seed);
        let positions: Vec<usize> = (4..n_sc - 4).collect();
        let spec = InputSpec {
            subcarrier_positions: Some(positions.clone()),
            stride: 2,
            ..InputSpec::default()
        };
        let t = spec.tensor(&fb);
        prop_assert_eq!(t.shape()[2], positions.len().div_ceil(2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `tensor` reconstructs only the kept tones; every kept tone must run
    /// the same arithmetic as the full `reconstruct` (+ cleaning) path.
    #[test]
    fn tensor_is_bit_identical_to_the_full_reconstruction(
        n_sc in 1usize..=64,
        stride in 0usize..=8,
        seed in 0u64..100,
        selection in 0u8..4,
        raw_positions in collection::vec(0usize..64, 1..40),
        streams in 0u8..3,
        antenna_mask in 1u8..8,
        reversed_antennas in any::<bool>(),
        offset_cleaning in any::<bool>(),
    ) {
        let fb = feedback(n_sc, seed);
        let mut positions: Vec<usize> = raw_positions.iter().map(|&p| p % n_sc).collect();
        let subcarrier_positions = match selection {
            0 => None,
            1 => {
                positions.sort_unstable();
                positions.dedup();
                Some(positions)
            }
            2 => Some(positions),
            _ => {
                positions.push(positions[0]);
                positions.insert(0, positions[positions.len() / 2]);
                Some(positions)
            }
        };
        let mut antennas: Vec<usize> = (0..3).filter(|a| antenna_mask & (1 << a) != 0).collect();
        if reversed_antennas {
            antennas.reverse();
        }
        let spec = InputSpec {
            streams: [vec![0], vec![1], vec![0, 1]][streams as usize].clone(),
            antennas,
            subcarrier_positions,
            stride,
            offset_cleaning,
        };
        let mut series = fb.reconstruct();
        if offset_cleaning {
            clean_phase_offsets(&mut series);
        }
        let reference = spec.tensor_from_series(&series, fb.mimo.m_tx(), fb.mimo.n_ss());
        let t = spec.tensor(&fb);
        prop_assert_eq!(t.shape(), reference.shape());
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(t.as_slice()), bits(reference.as_slice()), "{:?}", spec);
    }
}
