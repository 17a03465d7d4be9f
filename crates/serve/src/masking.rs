//! The mod-`t` ring operations of the simulated garbled circuit — the
//! client unmasks a download and re-masks its next upload with them —
//! and the centring the server balances its mask shares with.

use cheetah_nn::Tensor;

/// `a - b` with wraparound mod `t`, re-centered. Exactly what the GC's
/// subtraction circuit computes on `t`-bit rings.
pub fn sub_mod_t(a: &Tensor, b: &Tensor, t: u64) -> Tensor {
    let t = t as i64;
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| center(x - y, t))
        .collect();
    Tensor::from_data(a.shape(), data)
}

/// `a + b` with wraparound mod `t`, re-centered.
pub fn add_mod_t(a: &Tensor, b: &Tensor, t: u64) -> Tensor {
    let t = t as i64;
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| center(x + y, t))
        .collect();
    Tensor::from_data(a.shape(), data)
}

/// Re-centers `v` into the symmetric interval around zero mod `t`.
pub fn center(v: i64, t: i64) -> i64 {
    let mut r = v.rem_euclid(t);
    if r > t / 2 {
        r -= t;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_ring_round_trips() {
        let t = 101u64;
        let a = Tensor::from_data(&[4], vec![3, -50, 47, 0]);
        let r = Tensor::from_data(&[4], vec![50, 50, -50, 1]);
        let masked = add_mod_t(&a, &r, t);
        let back = sub_mod_t(&masked, &r, t);
        assert_eq!(back.data(), a.data());
        for &v in masked.data() {
            assert!(v.abs() <= 50, "masked value {v} left the centered ring");
        }
    }

    #[test]
    fn center_is_symmetric() {
        assert_eq!(center(51, 101), -50);
        assert_eq!(center(-51, 101), 50);
        assert_eq!(center(101, 101), 0);
        assert_eq!(center(50, 101), 50);
    }
}
