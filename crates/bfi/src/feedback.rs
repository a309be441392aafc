//! Per-sounding feedback containers spanning all sounded subcarriers.

use crate::{beamforming_matrix, decompose, dequantize, quantize, v_from_angles, QuantizedAngles};
use deepcsi_linalg::{CMatrix, C64};
use deepcsi_phy::{Codebook, MimoConfig};
use serde::{Deserialize, Serialize};

/// The compressed beamforming feedback of one sounding event: quantized
/// (φ, ψ) angles for every sounded subcarrier.
///
/// This is exactly the payload a monitor extracts from a captured VHT
/// Compressed Beamforming frame (minus the MAC framing, which lives in
/// `deepcsi-frame`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeamformingFeedback {
    /// MIMO dimensioning of the link.
    pub mimo: MimoConfig,
    /// Quantization codebook used by the beamformee.
    pub codebook: Codebook,
    /// Sounded subcarrier indices (ascending).
    pub subcarriers: Vec<i32>,
    /// Quantized angles, one entry per subcarrier.
    pub angles: Vec<QuantizedAngles>,
}

impl BeamformingFeedback {
    /// Beamformee-side computation (steps 1–3 of Fig. 3): per-subcarrier
    /// `H_k → V_k → angles → quantized angles`.
    ///
    /// `cfr[j]` must be the M×N CFR of subcarrier `subcarriers[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `cfr` and `subcarriers` lengths differ, or if any CFR
    /// sub-matrix disagrees with `mimo`.
    pub fn from_cfr(
        cfr: &[CMatrix],
        subcarriers: &[i32],
        mimo: MimoConfig,
        codebook: Codebook,
    ) -> Self {
        assert_eq!(
            cfr.len(),
            subcarriers.len(),
            "one CFR matrix per subcarrier required"
        );
        let angles = cfr
            .iter()
            .map(|h_k| {
                assert_eq!(
                    h_k.shape(),
                    (mimo.m_tx(), mimo.n_rx()),
                    "CFR shape must be M×N"
                );
                let v = beamforming_matrix(h_k, mimo.n_ss());
                let dec = decompose(&v);
                quantize(&dec.angles, codebook)
            })
            .collect();
        BeamformingFeedback {
            mimo,
            codebook,
            subcarriers: subcarriers.to_vec(),
            angles,
        }
    }

    /// Observer-side reconstruction (step 4 of Fig. 3) of one tone:
    /// dequantizes the angles at position `j` and rebuilds `Ṽ_k` for
    /// subcarrier `subcarriers[j]` via Eq. (7).
    ///
    /// Tones are independent, so a consumer that reads only some of them
    /// (a sub-band or strided input view) rebuilds only those.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or the angle set at `j` does not
    /// match `mimo` (see [`v_from_angles`]).
    pub fn v_at(&self, j: usize) -> CMatrix {
        let a = dequantize(&self.angles[j], self.codebook);
        v_from_angles(&a, self.mimo.m_tx(), self.mimo.n_ss())
    }

    /// Observer-side reconstruction (step 4 of Fig. 3) of every tone:
    /// [`BeamformingFeedback::v_at`] over all sounded subcarriers.
    pub fn reconstruct(&self) -> VSeries {
        VSeries {
            subcarriers: self.subcarriers.clone(),
            v: (0..self.angles.len()).map(|j| self.v_at(j)).collect(),
        }
    }

    /// Number of sounded subcarriers in this feedback.
    pub fn len(&self) -> usize {
        self.subcarriers.len()
    }

    /// Returns `true` when the feedback carries no subcarriers.
    pub fn is_empty(&self) -> bool {
        self.subcarriers.is_empty()
    }
}

/// The beamforming matrix Ṽ stacked over subcarriers: the paper's
/// `K × M × N_SS` tensor, stored as one M×N_SS matrix per subcarrier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VSeries {
    /// Sounded subcarrier indices (ascending).
    pub subcarriers: Vec<i32>,
    /// `v[j]` is the M×N_SS beamforming matrix of subcarrier
    /// `subcarriers[j]`.
    pub v: Vec<CMatrix>,
}

impl VSeries {
    /// Computes the **unquantized** Ṽ series straight from the CFR — the
    /// reference used to measure quantization error (Fig. 13).
    pub fn exact_from_cfr(cfr: &[CMatrix], subcarriers: &[i32], mimo: MimoConfig) -> Self {
        assert_eq!(cfr.len(), subcarriers.len());
        let v = cfr
            .iter()
            .map(|h_k| {
                let vk = beamforming_matrix(h_k, mimo.n_ss());
                let dec = decompose(&vk);
                v_from_angles(&dec.angles, mimo.m_tx(), mimo.n_ss())
            })
            .collect();
        VSeries {
            subcarriers: subcarriers.to_vec(),
            v,
        }
    }

    /// Number of subcarriers.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Returns `true` when the series is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The per-subcarrier series of one Ṽ element `[Ṽ]_{row,col}`
    /// (0-based), e.g. for the Fig. 14 time-evolution plots.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty or the element is out of range.
    pub fn element_series(&self, row: usize, col: usize) -> Vec<C64> {
        assert!(!self.v.is_empty(), "empty series");
        self.v.iter().map(|m| m[(row, col)]).collect()
    }

    /// Mean element-wise reconstruction error vs. a reference series:
    /// `mean_j |[Ṽ]_{row,col}(j) − [Ṽref]_{row,col}(j)|`.
    ///
    /// # Panics
    ///
    /// Panics if the two series have different lengths.
    pub fn element_error(&self, reference: &VSeries, row: usize, col: usize) -> f64 {
        assert_eq!(self.len(), reference.len(), "series length mismatch");
        let n = self.len().max(1);
        self.v
            .iter()
            .zip(reference.v.iter())
            .map(|(a, b)| (a[(row, col)] - b[(row, col)]).abs())
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_cfr(seed: u64, n_sc: usize, m: usize, n: usize) -> Vec<CMatrix> {
        // Small deterministic pseudo-random CFR series (xorshift).
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n_sc)
            .map(|_| CMatrix::from_fn(m, n, |_, _| C64::new(next(), next())))
            .collect()
    }

    #[test]
    fn from_cfr_builds_one_angle_set_per_subcarrier() {
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..8).collect();
        let cfr = random_cfr(7, 8, 3, 2);
        let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_HIGH);
        assert_eq!(fb.len(), 8);
        assert!(!fb.is_empty());
        for q in &fb.angles {
            assert_eq!(q.q_phi.len(), 3);
            assert_eq!(q.q_psi.len(), 3);
        }
    }

    #[test]
    fn reconstruction_close_to_exact() {
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..16).collect();
        let cfr = random_cfr(42, 16, 3, 2);
        let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_HIGH);
        let quantized = fb.reconstruct();
        let exact = VSeries::exact_from_cfr(&cfr, &sc, mimo);
        // At (bψ=7, bφ=9) quantization the element error is small (Fig. 13b
        // shows it concentrated below 1e-2).
        for row in 0..3 {
            for col in 0..2 {
                let e = quantized.element_error(&exact, row, col);
                assert!(e < 0.05, "element ({row},{col}) error {e}");
            }
        }
    }

    #[test]
    fn stream1_reconstruction_error_exceeds_stream0() {
        // The recursive structure of Algorithm 1 propagates quantization
        // error into higher-order columns (Fig. 13): averaged over the
        // matrix rows, column 1 must reconstruct worse than column 0.
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..64).collect();
        let cfr = random_cfr(1234, 64, 3, 2);
        let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_LOW);
        let quantized = fb.reconstruct();
        let exact = VSeries::exact_from_cfr(&cfr, &sc, mimo);
        let err_col0: f64 = (0..3).map(|r| quantized.element_error(&exact, r, 0)).sum();
        let err_col1: f64 = (0..3).map(|r| quantized.element_error(&exact, r, 1)).sum();
        assert!(
            err_col1 > err_col0,
            "stream-1 error {err_col1} ≤ stream-0 error {err_col0}"
        );
    }

    #[test]
    fn element_series_extracts_the_right_entry() {
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..4).collect();
        let cfr = random_cfr(5, 4, 3, 2);
        let series = VSeries::exact_from_cfr(&cfr, &sc, mimo);
        let e = series.element_series(2, 0);
        assert_eq!(e.len(), 4);
        for (j, z) in e.iter().enumerate() {
            assert_eq!(*z, series.v[j][(2, 0)]);
        }
    }

    #[test]
    fn reconstruct_is_v_at_over_every_tone() {
        for (mimo, cb) in [
            (MimoConfig::paper_default(), Codebook::MU_HIGH),
            (MimoConfig::new(3, 1, 1).unwrap(), Codebook::MU_LOW),
        ] {
            let sc: Vec<i32> = (0..24).collect();
            let cfr = random_cfr(99, 24, mimo.m_tx(), mimo.n_rx());
            let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, cb);
            let series = fb.reconstruct();
            assert_eq!(series.subcarriers, fb.subcarriers);
            assert_eq!(series.len(), fb.len());
            for (j, v) in series.v.iter().enumerate() {
                assert_eq!(*v, fb.v_at(j), "tone {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one CFR matrix per subcarrier")]
    fn mismatched_lengths_panic() {
        let mimo = MimoConfig::paper_default();
        let cfr = random_cfr(5, 4, 3, 2);
        let _ = BeamformingFeedback::from_cfr(&cfr, &[0, 1], mimo, Codebook::MU_HIGH);
    }

    #[test]
    fn empty_feedback_reports_empty() {
        let fb = BeamformingFeedback {
            mimo: MimoConfig::paper_default(),
            codebook: Codebook::MU_HIGH,
            subcarriers: vec![],
            angles: vec![],
        };
        assert!(fb.is_empty());
        assert!(fb.reconstruct().is_empty());
    }
}
