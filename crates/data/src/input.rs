//! DNN input assembly: Ṽ → `Nch × Nrow × Ncol` I/Q tensors (§III-C).

use deepcsi_bfi::BeamformingFeedback;
use deepcsi_linalg::CMatrix;
use deepcsi_nn::Tensor;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Selection of which parts of Ṽ feed the classifier.
///
/// The paper's ablations all map onto this:
/// * Fig. 12a (bandwidth) — `subcarrier_positions` restricted to a
///   sub-band.
/// * Fig. 12b (number of TX antennas) — `antennas` restricted.
/// * Fig. 15 (spatial stream) — `streams = [1]` instead of `[0]`.
///
/// Channels are the I/Q components of the selected Ṽ rows; the last TX
/// antenna's row is real by construction so it contributes only an I
/// channel (`Nch < 2M`, Fig. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputSpec {
    /// Ṽ columns (spatial streams) used, each becoming one image row.
    pub streams: Vec<usize>,
    /// Ṽ rows (TX antennas) used, each contributing I (and Q unless it is
    /// the last antenna) channels.
    pub antennas: Vec<usize>,
    /// Optional subcarrier *positions* (into the feedback's subcarrier
    /// list) to keep — the Fig. 12a sub-band selection. `None` keeps all.
    pub subcarrier_positions: Option<Vec<usize>>,
    /// Keep every `stride`-th subcarrier after selection (laptop-scale
    /// decimation; 1 = full resolution).
    pub stride: usize,
    /// Apply the phase-offset cleaning of \[36\] (Meneghello et al.) to Ṽ
    /// before tensorization: per Ṽ element series, fit and remove a
    /// constant + linear-in-k phase. This is the Fig. 16 baseline — it
    /// deletes part of the hardware fingerprint, which is the point.
    pub offset_cleaning: bool,
}

impl Default for InputSpec {
    fn default() -> Self {
        InputSpec {
            streams: vec![0],
            antennas: vec![0, 1, 2],
            subcarrier_positions: None,
            stride: 1,
            offset_cleaning: false,
        }
    }
}

/// Removes a fitted constant + linear-in-k phase from every Ṽ element
/// series (the CSI "sanitization" of \[36\], applied to the beamforming
/// feedback domain).
///
/// CFO/PPO contribute the intercept and SFO/PDD the slope of the phase
/// across subcarriers (Eq. (9)); so do the *device-specific* per-chain
/// phase intercepts and group delays — cleaning removes both nuisance and
/// fingerprint, which is why DeepCSI deliberately skips it.
pub fn clean_phase_offsets(series: &mut deepcsi_bfi::VSeries) {
    let n = series.len();
    if n < 2 {
        return;
    }
    let ks: Vec<f64> = series.subcarriers.iter().map(|&k| k as f64).collect();
    let (m, n_ss) = series.v[0].shape();
    for a in 0..m {
        for s in 0..n_ss {
            // Unwrapped phase across subcarriers.
            let mut phases = Vec::with_capacity(n);
            let mut prev = 0.0f64;
            let mut offset = 0.0f64;
            for (j, vk) in series.v.iter().enumerate() {
                let raw = vk[(a, s)].arg();
                if j > 0 {
                    let mut d = raw + offset - prev;
                    while d > std::f64::consts::PI {
                        offset -= std::f64::consts::TAU;
                        d -= std::f64::consts::TAU;
                    }
                    while d < -std::f64::consts::PI {
                        offset += std::f64::consts::TAU;
                        d += std::f64::consts::TAU;
                    }
                }
                let unwrapped = raw + offset;
                phases.push(unwrapped);
                prev = unwrapped;
            }
            // Least-squares line fit θ ≈ slope·k + intercept.
            let kn = n as f64;
            let mean_k = ks.iter().sum::<f64>() / kn;
            let mean_p = phases.iter().sum::<f64>() / kn;
            let mut num = 0.0;
            let mut den = 0.0;
            for (k, p) in ks.iter().zip(phases.iter()) {
                num += (k - mean_k) * (p - mean_p);
                den += (k - mean_k) * (k - mean_k);
            }
            let slope = if den > 0.0 { num / den } else { 0.0 };
            let intercept = mean_p - slope * mean_k;
            for (j, vk) in series.v.iter_mut().enumerate() {
                let corr = deepcsi_linalg::C64::cis(-(slope * ks[j] + intercept));
                let v = vk[(a, s)];
                vk[(a, s)] = v * corr;
            }
        }
    }
}

impl InputSpec {
    /// The paper's default view: stream 0, all 3 TX antennas, all
    /// subcarriers.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// A decimated view for fast laptop-scale training.
    pub fn fast() -> Self {
        InputSpec {
            stride: 2,
            ..Self::default()
        }
    }

    /// Number of I/Q channels this spec produces for an AP with `m_tx`
    /// antennas.
    pub fn num_channels(&self, m_tx: usize) -> usize {
        self.antennas
            .iter()
            .map(|&a| if a + 1 == m_tx { 1 } else { 2 })
            .sum()
    }

    /// `true` when [`InputSpec::tensor`] can convert this feedback
    /// without panicking: every selected stream/antenna/subcarrier exists
    /// and at least one subcarrier survives selection. Online consumers
    /// (the serving engine) gate arbitrary over-the-air feedback on this
    /// before tensorizing.
    pub fn compatible(&self, fb: &BeamformingFeedback) -> bool {
        let streams_ok = self.streams.iter().all(|&s| s < fb.mimo.n_ss());
        let antennas_ok = self.antennas.iter().all(|&a| a < fb.mimo.m_tx());
        let subcarriers_ok = match &self.subcarrier_positions {
            Some(p) => !p.is_empty() && p.iter().all(|&i| i < fb.len()),
            None => !fb.is_empty(),
        };
        streams_ok && antennas_ok && subcarriers_ok
    }

    /// Converts one captured feedback into a classifier input tensor of
    /// shape `(Nch, Nrow, Ncol)`.
    ///
    /// Without offset cleaning only the kept tones (the sub-band
    /// selection, then every `stride`-th) are reconstructed, each with
    /// [`BeamformingFeedback::v_at`]: the tensor is bit-identical to
    /// [`InputSpec::tensor_from_series`] over the full
    /// [`BeamformingFeedback::reconstruct`], without rebuilding the tones
    /// the classifier never reads. With `offset_cleaning` every tone is
    /// reconstructed, because the phase fit of [`clean_phase_offsets`]
    /// runs across the whole sounded band.
    ///
    /// # Panics
    ///
    /// Panics if a selected stream/antenna is out of range for the
    /// feedback's MIMO dimensions, or no subcarriers survive selection
    /// (see [`InputSpec::compatible`]).
    pub fn tensor(&self, fb: &BeamformingFeedback) -> Tensor {
        let (m, n_ss) = (fb.mimo.m_tx(), fb.mimo.n_ss());
        if self.offset_cleaning {
            let mut series = fb.reconstruct();
            clean_phase_offsets(&mut series);
            return self.tensor_from_series(&series, m, n_ss);
        }
        self.fill(&self.positions(fb.len()), m, n_ss, |p| fb.v_at(p))
    }

    /// Converts an already-reconstructed Ṽ series into an input tensor —
    /// the hook the offset-cleaning baseline uses to pre-process Ṽ before
    /// tensorization.
    ///
    /// # Panics
    ///
    /// Same conditions as [`InputSpec::tensor`].
    pub fn tensor_from_series(
        &self,
        series: &deepcsi_bfi::VSeries,
        m: usize,
        n_ss: usize,
    ) -> Tensor {
        self.fill(&self.positions(series.len()), m, n_ss, |p| &series.v[p])
    }

    /// Positions (into a feedback of `n_sc` tones) of the kept tones, in
    /// tensor column order: the sub-band selection (all tones when
    /// `None`), then every `stride`-th of it.
    fn positions(&self, n_sc: usize) -> Vec<usize> {
        let step = self.stride.max(1);
        match &self.subcarrier_positions {
            Some(p) => p.iter().copied().step_by(step).collect(),
            None => (0..n_sc).step_by(step).collect(),
        }
    }

    /// Builds the `(Nch, Nrow, Ncol)` tensor, column `col` from the Ṽ
    /// matrix `tone(positions[col])`.
    fn fill<V: Borrow<CMatrix>>(
        &self,
        positions: &[usize],
        m: usize,
        n_ss: usize,
        tone: impl Fn(usize) -> V,
    ) -> Tensor {
        for &s in &self.streams {
            assert!(s < n_ss, "stream {s} out of range (n_ss={n_ss})");
        }
        for &a in &self.antennas {
            assert!(a < m, "antenna {a} out of range (m={m})");
        }
        assert!(!positions.is_empty(), "no subcarriers selected");

        let n_ch = self.num_channels(m);
        let n_row = self.streams.len();
        let mut t = Tensor::zeros(vec![n_ch, n_row, positions.len()]);
        for (col, &p) in positions.iter().enumerate() {
            let v = tone(p);
            let v = v.borrow();
            let mut ch = 0usize;
            for &a in &self.antennas {
                let has_q = a + 1 != m;
                for (row, &s) in self.streams.iter().enumerate() {
                    let z = v[(a, s)];
                    *t.at3_mut(ch, row, col) = z.re as f32;
                    if has_q {
                        *t.at3_mut(ch + 1, row, col) = z.im as f32;
                    }
                }
                ch += if has_q { 2 } else { 1 };
            }
        }
        t
    }
}

/// A labelled sample set ready for `deepcsi-nn`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabeledSamples {
    /// Input tensors.
    pub x: Vec<Tensor>,
    /// Class labels (module ids).
    pub y: Vec<usize>,
}

impl LabeledSamples {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Appends another set.
    pub fn extend(&mut self, other: LabeledSamples) {
        self.x.extend(other.x);
        self.y.extend(other.y);
    }

    /// Appends one sample.
    pub fn push(&mut self, x: Tensor, y: usize) {
        self.x.push(x);
        self.y.push(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcsi_linalg::{CMatrix, C64};
    use deepcsi_phy::{Codebook, MimoConfig};

    fn sample_feedback(n_sc: usize) -> BeamformingFeedback {
        let mimo = MimoConfig::paper_default();
        let cfr: Vec<CMatrix> = (0..n_sc)
            .map(|j| {
                CMatrix::from_fn(3, 2, |r, c| {
                    C64::new(
                        ((j + r * 2 + c) as f64 * 0.7).sin(),
                        ((j * 3 + r + c * 5) as f64 * 0.3).cos(),
                    )
                })
            })
            .collect();
        let sc: Vec<i32> = (0..n_sc as i32).collect();
        BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_HIGH)
    }

    #[test]
    fn default_spec_shape() {
        let fb = sample_feedback(20);
        let t = InputSpec::default().tensor(&fb);
        // 3 antennas → I,Q,I,Q,I = 5 channels; 1 stream; 20 tones.
        assert_eq!(t.shape(), &[5, 1, 20]);
        assert!(t.is_finite());
    }

    #[test]
    fn last_antenna_row_is_real_only() {
        let fb = sample_feedback(8);
        let spec = InputSpec {
            antennas: vec![2],
            ..InputSpec::default()
        };
        let t = spec.tensor(&fb);
        assert_eq!(t.shape(), &[1, 1, 8]);
        // All values are the real part of the (canonical, non-negative)
        // last Ṽ row.
        assert!(t.as_slice().iter().all(|&v| v >= -1e-6));
    }

    #[test]
    fn stride_decimates_subcarriers() {
        let fb = sample_feedback(21);
        let spec = InputSpec {
            stride: 2,
            ..InputSpec::default()
        };
        let t = spec.tensor(&fb);
        assert_eq!(t.shape()[2], 11);
    }

    #[test]
    fn subband_selection_limits_columns() {
        let fb = sample_feedback(20);
        let spec = InputSpec {
            subcarrier_positions: Some((5..15).collect()),
            ..InputSpec::default()
        };
        let t = spec.tensor(&fb);
        assert_eq!(t.shape()[2], 10);
    }

    #[test]
    fn two_streams_make_two_rows() {
        let fb = sample_feedback(6);
        let spec = InputSpec {
            streams: vec![0, 1],
            ..InputSpec::default()
        };
        let t = spec.tensor(&fb);
        assert_eq!(t.shape(), &[5, 2, 6]);
    }

    #[test]
    fn channel_count_formula() {
        let spec = InputSpec::default();
        assert_eq!(spec.num_channels(3), 5);
        let spec2 = InputSpec {
            antennas: vec![0, 1],
            ..InputSpec::default()
        };
        assert_eq!(spec2.num_channels(3), 4);
        let spec1 = InputSpec {
            antennas: vec![0],
            ..InputSpec::default()
        };
        assert_eq!(spec1.num_channels(3), 2);
    }

    #[test]
    fn values_are_bounded_by_unitarity() {
        // Ṽ has orthonormal columns → entries in [−1, 1].
        let fb = sample_feedback(16);
        let t = InputSpec::default().tensor(&fb);
        assert!(t.as_slice().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    #[should_panic(expected = "stream 1 out of range")]
    fn stream_out_of_range_panics() {
        let mimo = MimoConfig::new(3, 1, 1).unwrap();
        let cfr = vec![CMatrix::from_fn(3, 1, |r, _| C64::new(r as f64 + 0.5, 0.2)); 4];
        let fb = BeamformingFeedback::from_cfr(&cfr, &[0, 1, 2, 3], mimo, Codebook::MU_HIGH);
        let spec = InputSpec {
            streams: vec![1],
            ..InputSpec::default()
        };
        let _ = spec.tensor(&fb);
    }

    #[test]
    fn labeled_samples_extend() {
        let mut a = LabeledSamples::default();
        a.push(Tensor::zeros(vec![1]), 0);
        let mut b = LabeledSamples::default();
        b.push(Tensor::zeros(vec![1]), 1);
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.y, vec![0, 1]);
    }
}
