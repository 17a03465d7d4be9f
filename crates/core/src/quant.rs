//! Fixed-point quantization settings shared by the models and the tuner.
//!
//! HE inference computes exactly over integers mod `t`; the plaintext
//! modulus must be wide enough that no layer output overflows. "Setting `t`
//! requires profiling the application to ensure enough bits are used for
//! correctness and no more, as over provisioning causes unnecessary
//! slowdown" (§III-B). [`QuantSpec::required_plain_bits`] is that profile:
//! weight bits + activation bits + accumulation depth + sign.

use cheetah_nn::LinearLayer;

/// How weight values are constrained after quantization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WeightMode {
    /// Plain fixed-point integers in `[-weight_bound, weight_bound]`.
    #[default]
    Integer,
    /// Signed powers of two: every nonzero weight is rounded to the
    /// nearest `±2^k` within the bit budget. A quantiser only: to the
    /// engine such a weight is an integer like any other
    /// (`docs/SPARSE.md`).
    Pow2,
}

/// Bit widths for weights and activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantSpec {
    /// Magnitude bits per weight (sign handled separately).
    pub weight_bits: u32,
    /// Magnitude bits per activation.
    pub activation_bits: u32,
    /// Weight value constraint (plain integers or signed powers of two).
    pub weight_mode: WeightMode,
}

impl Default for QuantSpec {
    fn default() -> Self {
        // 5+5-bit fixed point: enough for the demonstration networks and
        // puts ResNet50's widest layer at a ~24-bit t, in the regime the
        // paper's q ≈ 60-bit parameters target.
        Self {
            weight_bits: 5,
            activation_bits: 5,
            weight_mode: WeightMode::Integer,
        }
    }
}

/// Rounds `w` to the nearest signed power of two (in linear distance,
/// ties toward the smaller magnitude); zero stays zero. The result's
/// magnitude is clamped to `2^max_exp`.
pub fn round_to_pow2(w: i64, max_exp: u32) -> i64 {
    if w == 0 {
        return 0;
    }
    let mag = w.unsigned_abs();
    let floor_exp = 63 - mag.leading_zeros();
    let exp = if floor_exp >= max_exp {
        max_exp
    } else {
        let lo = 1u64 << floor_exp;
        let hi = lo << 1;
        if mag - lo <= hi - mag {
            floor_exp
        } else {
            floor_exp + 1
        }
    };
    let q = 1i64 << exp.min(max_exp);
    if w < 0 {
        -q
    } else {
        q
    }
}

impl QuantSpec {
    /// Minimum plaintext-modulus bits for an overflow-free evaluation of
    /// `layer`.
    pub fn required_plain_bits(&self, layer: &LinearLayer) -> u32 {
        layer.required_plain_bits(self.weight_bits, self.activation_bits)
    }

    /// The worst (widest) requirement across a set of layers — what a
    /// single global parameter set (the Gazelle baseline) must provision.
    pub fn required_plain_bits_network(&self, layers: &[LinearLayer]) -> u32 {
        layers
            .iter()
            .map(|l| self.required_plain_bits(l))
            .max()
            .unwrap_or(self.weight_bits + self.activation_bits + 1)
    }

    /// Statistically profiled plaintext-modulus requirement: real (and our
    /// randomly drawn) weights make the dot product concentrate around
    /// `√(dot_len)·w·a` rather than the worst case `dot_len·w·a`. This is
    /// the "profiling the application" sizing of §III-B that the paper's
    /// systems rely on; 3 extra bits cover sign and tail.
    pub fn statistical_plain_bits(&self, layer: &LinearLayer) -> u32 {
        let dot = layer.dot_length() as f64;
        let spread = dot.sqrt().log2().ceil() as u32;
        self.weight_bits + self.activation_bits + spread + 3
    }

    /// Network-wide statistical requirement (max over layers).
    pub fn statistical_plain_bits_network(&self, layers: &[LinearLayer]) -> u32 {
        layers
            .iter()
            .map(|l| self.statistical_plain_bits(l))
            .max()
            .unwrap_or(self.weight_bits + self.activation_bits + 3)
    }

    /// Largest weight magnitude representable.
    pub fn weight_bound(&self) -> i64 {
        match self.weight_mode {
            WeightMode::Integer => (1i64 << self.weight_bits) - 1,
            // The largest signed power of two under the integer bound.
            WeightMode::Pow2 => 1i64 << self.pow2_max_exp(),
        }
    }

    /// Largest pow2 exponent within the weight bit budget
    /// (`2^e ≤ 2^weight_bits − 1`).
    fn pow2_max_exp(&self) -> u32 {
        self.weight_bits.saturating_sub(1)
    }

    /// Quantizes one already-integer weight into this spec's value set:
    /// clamped to the bound in [`WeightMode::Integer`], rounded to the
    /// nearest signed power of two in [`WeightMode::Pow2`].
    pub fn quantize_weight(&self, w: i64) -> i64 {
        match self.weight_mode {
            WeightMode::Integer => w.clamp(-self.weight_bound(), self.weight_bound()),
            WeightMode::Pow2 => round_to_pow2(w, self.pow2_max_exp()),
        }
    }

    /// Quantizes a weight slice in place (see [`QuantSpec::quantize_weight`]).
    pub fn quantize_weights(&self, weights: &mut [i64]) {
        for w in weights {
            *w = self.quantize_weight(*w);
        }
    }

    /// Largest activation magnitude representable.
    pub fn activation_bound(&self) -> i64 {
        (1i64 << self.activation_bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_nn::models;

    #[test]
    fn resnet50_precision_requirement_is_plausible() {
        let q = QuantSpec::default();
        let layers = models::resnet50().linear_layers();
        let bits = q.required_plain_bits_network(&layers);
        // 5 + 5 + ceil(log2(4608)) + 1 = 24
        assert_eq!(bits, 24);
    }

    #[test]
    fn per_layer_requirements_vary() {
        let q = QuantSpec::default();
        let layers = models::resnet50().linear_layers();
        let reqs: Vec<u32> = layers.iter().map(|l| q.required_plain_bits(l)).collect();
        let min = *reqs.iter().min().unwrap();
        let max = *reqs.iter().max().unwrap();
        assert!(
            max > min + 3,
            "per-layer spread ({min}..{max}) is what makes per-layer tuning pay"
        );
    }

    #[test]
    fn bounds_match_bits() {
        let q = QuantSpec {
            weight_bits: 4,
            activation_bits: 3,
            weight_mode: WeightMode::Integer,
        };
        assert_eq!(q.weight_bound(), 15);
        assert_eq!(q.activation_bound(), 7);
        let p2 = QuantSpec {
            weight_mode: WeightMode::Pow2,
            ..q
        };
        assert_eq!(p2.weight_bound(), 8, "largest pow2 under 15");
    }

    #[test]
    fn pow2_rounding_is_nearest_and_bounded() {
        assert_eq!(round_to_pow2(0, 4), 0);
        assert_eq!(round_to_pow2(1, 4), 1);
        assert_eq!(
            round_to_pow2(3, 4),
            2,
            "equidistant ties keep the smaller magnitude"
        );
        assert_eq!(
            round_to_pow2(6, 4),
            4,
            "equidistant ties keep the smaller magnitude"
        );
        assert_eq!(round_to_pow2(7, 4), 8);
        assert_eq!(round_to_pow2(-5, 4), -4);
        assert_eq!(round_to_pow2(100, 4), 16, "clamped to 2^4");
        assert_eq!(round_to_pow2(-100, 3), -8);
    }

    #[test]
    fn quantize_weight_honors_the_mode() {
        let q = QuantSpec::default();
        assert_eq!(q.quantize_weight(29), 29);
        assert_eq!(q.quantize_weight(77), 31, "integer clamp");
        let p2 = QuantSpec {
            weight_mode: WeightMode::Pow2,
            ..QuantSpec::default()
        };
        assert_eq!(p2.quantize_weight(29), 16, "clamped to the pow2 bound 2^4");
        assert_eq!(p2.quantize_weight(-29), -16);
        assert_eq!(
            p2.quantize_weight(12),
            8,
            "equidistant keeps the smaller magnitude"
        );
        let mut ws = vec![0, 1, -3, 29];
        p2.quantize_weights(&mut ws);
        assert_eq!(ws, vec![0, 1, -2, 16]);
        // Every quantized value classifies as zero or pow2.
        for &w in &ws {
            assert!(w == 0 || w.unsigned_abs().is_power_of_two());
        }
    }
}
