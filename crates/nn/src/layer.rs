//! Layer descriptors — the shapes the HE-PTune models consume.
//!
//! The paper parameterizes CNN layers as `(w, f_w, c_i, c_o)` (input image
//! width, filter width, input/output channels) and FC layers as
//! `(n_i, n_o)` (Table IV). [`ConvSpec`] / [`FcSpec`] carry exactly those
//! plus stride/padding for the plaintext reference.

use std::fmt;

/// A convolutional layer `(w, f_w, c_i, c_o)` with stride and padding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Layer name (e.g. `"conv2_1"`).
    pub name: String,
    /// Input spatial width `w` (inputs are `w × w × c_i`).
    pub w: usize,
    /// Filter width `f_w` (filters are `f_w × f_w`).
    pub fw: usize,
    /// Input channels `c_i`.
    pub ci: usize,
    /// Output channels `c_o`.
    pub co: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
}

impl ConvSpec {
    /// Output spatial width.
    pub fn w_out(&self) -> usize {
        (self.w + 2 * self.pad - self.fw) / self.stride + 1
    }

    /// Plaintext multiply-accumulates: `w_out²·f_w²·c_i·c_o`.
    pub fn macs(&self) -> u64 {
        let wo = self.w_out() as u64;
        wo * wo * (self.fw * self.fw * self.ci * self.co) as u64
    }

    /// Number of activations entering the layer.
    pub fn input_len(&self) -> usize {
        self.w * self.w * self.ci
    }

    /// Number of activations leaving the layer.
    pub fn output_len(&self) -> usize {
        self.w_out() * self.w_out() * self.co
    }

    /// Length of each output neuron's dot product (`f_w²·c_i`) — drives the
    /// plaintext-modulus precision requirement.
    pub fn dot_length(&self) -> usize {
        self.fw * self.fw * self.ci
    }
}

impl fmt::Display for ConvSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: conv {}x{}x{} -> {} (f={}, s={}, p={})",
            self.name, self.w, self.w, self.ci, self.co, self.fw, self.stride, self.pad
        )
    }
}

/// Distinct generalized diagonals of an `n_o × n_i` FC matrix once both
/// sides are zero-padded to powers of two: the shorter side's. Cell
/// `(r, c)` lies on exactly the one diagonal `(c − r) mod` this — the unit
/// the homomorphic layer multiplies by and structured pruning zeroes.
pub fn folded_diagonals(no: usize, ni: usize) -> usize {
    no.next_power_of_two().min(ni.next_power_of_two())
}

/// Channel block-diagonal of conv weight cell `(o, c)`: with the input
/// channels zero-padded to `c_i' = next_pow2(c_i)`, the cell lies on
/// exactly the one diagonal `(c − o) mod c_i'` — with a filter tap, the
/// unit the packed homomorphic convolution multiplies by and structured
/// pruning zeroes.
pub fn channel_diagonal(o: usize, c: usize, ci: usize) -> usize {
    let d = ci.next_power_of_two();
    (c + d - o % d) % d
}

/// A fully connected layer `(n_i, n_o)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FcSpec {
    /// Layer name (e.g. `"fc6"`).
    pub name: String,
    /// Input activations `n_i`.
    pub ni: usize,
    /// Output activations `n_o`.
    pub no: usize,
}

impl FcSpec {
    /// Plaintext multiply-accumulates: `n_i·n_o`.
    pub fn macs(&self) -> u64 {
        (self.ni * self.no) as u64
    }

    /// Length of each output neuron's dot product (`n_i`).
    pub fn dot_length(&self) -> usize {
        self.ni
    }
}

impl fmt::Display for FcSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: fc {} -> {}", self.name, self.ni, self.no)
    }
}

/// A linear (HE-evaluated) layer: the unit HE-PTune tunes parameters for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LinearLayer {
    /// Convolution.
    Conv(ConvSpec),
    /// Fully connected.
    Fc(FcSpec),
}

impl LinearLayer {
    /// The layer name.
    pub fn name(&self) -> &str {
        match self {
            LinearLayer::Conv(c) => &c.name,
            LinearLayer::Fc(f) => &f.name,
        }
    }

    /// Plaintext MAC count.
    pub fn macs(&self) -> u64 {
        match self {
            LinearLayer::Conv(c) => c.macs(),
            LinearLayer::Fc(f) => f.macs(),
        }
    }

    /// Dot-product length (accumulation depth) of one output neuron.
    pub fn dot_length(&self) -> usize {
        match self {
            LinearLayer::Conv(c) => c.dot_length(),
            LinearLayer::Fc(f) => f.dot_length(),
        }
    }

    /// Number of output activations.
    pub fn output_len(&self) -> usize {
        match self {
            LinearLayer::Conv(c) => c.output_len(),
            LinearLayer::Fc(f) => f.no,
        }
    }

    /// Number of input activations.
    pub fn input_len(&self) -> usize {
        match self {
            LinearLayer::Conv(c) => c.input_len(),
            LinearLayer::Fc(f) => f.ni,
        }
    }

    /// Minimum plaintext-modulus bits for a correct (overflow-free) output,
    /// given weight/activation magnitudes of `w_bits`/`a_bits`:
    /// the worst-case dot product is `dot_len · 2^(w_bits + a_bits)`, and
    /// signed values need one more bit.
    pub fn required_plain_bits(&self, w_bits: u32, a_bits: u32) -> u32 {
        let dot_bits = (self.dot_length() as f64).log2().ceil() as u32;
        w_bits + a_bits + dot_bits + 1
    }
}

/// A full network layer (linear layers run under HE on the cloud; the rest
/// run in the client's garbled circuit).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Layer {
    /// HE-evaluated linear layer.
    Linear(LinearLayer),
    /// ReLU (client-side GC).
    Relu,
    /// Max pooling (client-side GC).
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Sum pooling (can run under HE; scale handled by quantizer).
    SumPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Flatten to a vector.
    Flatten,
    /// Residual addition with the *output* of an earlier layer index,
    /// optionally passing the skip branch through a projection (downsample)
    /// convolution first — enough to express ResNet bottleneck blocks in a
    /// sequential layer list.
    ResidualAdd {
        /// Index into the network's layer list whose output is added.
        from: usize,
        /// Optional 1×1 projection applied to the skip activation.
        projection: Option<ConvSpec>,
    },
}

impl Layer {
    /// Convenience constructor for a conv layer.
    pub fn conv(
        name: &str,
        w: usize,
        fw: usize,
        ci: usize,
        co: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Layer::Linear(LinearLayer::Conv(ConvSpec {
            name: name.to_owned(),
            w,
            fw,
            ci,
            co,
            stride,
            pad,
        }))
    }

    /// Convenience constructor for an FC layer.
    pub fn fc(name: &str, ni: usize, no: usize) -> Self {
        Layer::Linear(LinearLayer::Fc(FcSpec {
            name: name.to_owned(),
            ni,
            no,
        }))
    }

    /// The linear layer inside, if any.
    pub fn as_linear(&self) -> Option<&LinearLayer> {
        match self {
            Layer::Linear(l) => Some(l),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> ConvSpec {
        ConvSpec {
            name: "c".into(),
            w: 14,
            fw: 3,
            ci: 16,
            co: 32,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn conv_shapes() {
        let c = conv();
        assert_eq!(c.w_out(), 14); // same padding
        assert_eq!(c.macs(), 14 * 14 * 9 * 16 * 32);
        assert_eq!(c.input_len(), 14 * 14 * 16);
        assert_eq!(c.output_len(), 14 * 14 * 32);
        assert_eq!(c.dot_length(), 9 * 16);
    }

    #[test]
    fn strided_conv_shrinks() {
        let c = ConvSpec {
            name: "s".into(),
            w: 224,
            fw: 7,
            ci: 3,
            co: 64,
            stride: 2,
            pad: 3,
        };
        assert_eq!(c.w_out(), 112);
    }

    #[test]
    fn fc_macs() {
        let f = FcSpec {
            name: "f".into(),
            ni: 784,
            no: 300,
        };
        assert_eq!(f.macs(), 784 * 300);
        assert_eq!(f.dot_length(), 784);
    }

    #[test]
    fn required_plain_bits_grows_with_depth() {
        let shallow = LinearLayer::Fc(FcSpec {
            name: "a".into(),
            ni: 16,
            no: 4,
        });
        let deep = LinearLayer::Fc(FcSpec {
            name: "b".into(),
            ni: 4096,
            no: 4,
        });
        let (wb, ab) = (4, 4);
        assert_eq!(shallow.required_plain_bits(wb, ab), 4 + 4 + 4 + 1);
        assert_eq!(deep.required_plain_bits(wb, ab), 4 + 4 + 12 + 1);
    }

    #[test]
    fn layer_constructors() {
        let l = Layer::conv("c1", 28, 5, 1, 20, 1, 0);
        let lin = l.as_linear().unwrap();
        assert_eq!(lin.name(), "c1");
        assert_eq!(lin.output_len(), 24 * 24 * 20);
        assert!(Layer::Relu.as_linear().is_none());
    }
}
