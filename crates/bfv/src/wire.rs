//! Validated wire format for everything that crosses the protocol
//! boundary.
//!
//! Every message is a canonical little-endian encoding with a fixed
//! 24-byte header:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `b"CHWF"` |
//! | 4      | 2    | format version (`u16`, [`VERSION`] = 3 for every kind) |
//! | 6      | 1    | message kind |
//! | 7      | 1    | reserved (ignored on decode) |
//! | 8      | 8    | parameter-chain fingerprint (`u64`) |
//! | 16     | 4    | level (dropped-limb count, `u32`) |
//! | 20     | 4    | live limb planes per polynomial (`u32`) |
//!
//! followed by the message payload: polynomials in limb-major order, each
//! limb plane **packed at its limb's width**. Plane `i` under modulus
//! `q_i` is `n` little-endian, LSB-first fields of
//! `w_i = 64 − q_i.leading_zeros()` bits — exactly `n·w_i/8` bytes, since
//! `n` is a power of two `≥ 8`, so a plane needs no padding. A
//! Galois key's last plane on a hybrid chain is packed at the width of
//! the special prime `P`. One polynomial over `live` planes is
//! [`poly_bytes`]` = Σ_{i<live} n·w_i/8` bytes; every size function below
//! is built from it, and a level-`ℓ` ciphertext's payload is
//! `2·poly_bytes(live)` — what the transcript accounting charges. The
//! header is the only framing overhead.
//!
//! Four kinds cross the boundary: full ciphertexts (kind 1, downloads),
//! seeded ciphertexts (kind 5, uploads), seeded public keys (kind 6,
//! setup) and seeded Galois key sets (kind 7, setup). Kinds 2 (full
//! public key), 3 (full Galois key set) and 4 (plaintext mask) are
//! **retired**: no round sends them — a session ships its public key and
//! its Galois keys seeded, and masks are added under encryption and never
//! serialized — so their bytes decode as unknown kinds and are never
//! reused.
//!
//! **Seeded compression.** A *fresh* symmetric ciphertext has `c1 = a`
//! drawn uniformly, a public key has `pk1 = a` likewise, and so does every
//! Galois key pair's `k1` — all pure PRNG output, so shipping the full
//! polynomial is waste. Seeded messages (kinds
//! [`Kind::SeededCiphertext`] / [`Kind::SeededPublicKey`]) carry an
//! 8-byte expansion seed followed by `c0` alone; the receiver rebuilds
//! the uniform component with [`crate::sampling::expand_uniform`]
//! (`8 + poly_bytes(live)` payload instead of `2·poly_bytes(live)`). A
//! [`Kind::SeededGaloisKeys`] set carries one seed per key beside its
//! `k0`s; [`crate::keys::SeededGaloisKeys::expand`] rebuilds every
//! pair's `a` from it. A seeded ciphertext is a *fresh* encryption — only
//! those have a uniform `c1`; anything key-switched or mod-switched does
//! not — but a fresh encryption may be made at any level
//! ([`crate::Encryptor::encrypt_seeded_at`]): the header's level says
//! which, `c0` carries that level's live planes, and the receiver expands
//! `c1` over the same level's chain. The ciphertext decoder dispatches on
//! the kind byte.
//!
//! **Versioning.** There is one layout and one version: every kind is
//! written and read as [`VERSION`] 3. Versions 1 and 2 (the retired
//! `u64`-per-residue layout) decode as an unsupported version.
//!
//! `decode_*` enforces, in order and **before any arithmetic**: length,
//! magic/version/kind, fingerprint match against the session's
//! [`BfvParams`] ([`crate::Error::ChainMismatch`]), level validity
//! ([`crate::Error::InvalidLevel`]), header self-consistency, and
//! canonical residues — every packed field `< q_i`, checked as it is
//! unpacked; a field in `[q_i, 2^{w_i})` is [`crate::Error::Malformed`]
//! naming its plane and coefficient. What validation cannot see — a payload
//! bit flip that stays canonical, swapped components, a level lie with a
//! matching truncated payload — lands in a structurally valid but
//! *cryptographically dead* ciphertext whose measured noise budget
//! collapses, so [`crate::Decryptor::decrypt_checked`] catches it as
//! [`crate::Error::NoiseBudgetExhausted`]. The fault-injection harness,
//! [`faults`], pins that two-layer contract: every corruption is
//! either *detected* (typed error) or *provably harmless* (bit-identical
//! decrypt); there is no third outcome.
//!
//! Noise estimates are deliberately **not** serialized: they are model
//! state, and trusting a peer's claimed noise would let a lying client
//! steer the server's level planner. [`decode_ciphertext`] attaches the
//! fresh-encryption estimate — exact for the only thing an honest client
//! sends (fresh encryptions), conservative bookkeeping for everything
//! else (receivers about to decrypt measure the real thing anyway).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ciphertext::Ciphertext;
use crate::error::{Error, Result};
use crate::keys::{check_galois_element, PublicKey, SeededGaloisKey, SeededGaloisKeys};
use crate::noise::NoiseEstimate;
use crate::params::BfvParams;
use crate::rns::{ModulusChain, Representation, RnsPoly};

pub mod faults;

/// Wire magic: the first four bytes of every message.
pub const MAGIC: [u8; 4] = *b"CHWF";
/// The format version every message kind is written and read in.
pub const VERSION: u16 = 3;
/// Fixed header length in bytes.
pub const HEADER_BYTES: usize = 24;
/// Byte length of the expansion seed a seeded payload leads with.
pub const SEED_BYTES: usize = 8;

/// Byte offset of the version field (fault-injection targets).
pub const OFF_VERSION: usize = 4;
/// Byte offset of the kind field.
pub const OFF_KIND: usize = 6;
/// Byte offset of the reserved byte (ignored on decode — the designed
/// *harmless* corruption target).
pub const OFF_RESERVED: usize = 7;
/// Byte offset of the chain fingerprint.
pub const OFF_FINGERPRINT: usize = 8;
/// Byte offset of the level field.
pub const OFF_LEVEL: usize = 16;
/// Byte offset of the live-limb-count field.
pub const OFF_LIVE_LIMBS: usize = 20;

/// Message kinds carried in the header. Bytes 2 (full public key), 3
/// (full Galois key set) and 4 (plaintext mask) are retired kinds: they
/// decode as unknown and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A BFV ciphertext (two evaluation-form polynomials).
    Ciphertext = 1,
    /// A fresh seeded ciphertext: 8-byte expansion seed + `c0`.
    SeededCiphertext = 5,
    /// A seeded public key: 8-byte expansion seed + `pk0`.
    SeededPublicKey = 6,
    /// A seeded Galois key set: per key its element, an 8-byte expansion
    /// seed and the pairs' `k0`.
    SeededGaloisKeys = 7,
}

impl Kind {
    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::Ciphertext),
            5 => Some(Kind::SeededCiphertext),
            6 => Some(Kind::SeededPublicKey),
            7 => Some(Kind::SeededGaloisKeys),
            _ => None,
        }
    }
}

/// FNV-1a fingerprint of a parameter chain: degree, plaintext modulus,
/// every limb prime in order, the decomposition base `A_dcmp`, the
/// retired plaintext-window slot, and the special key-switch prime (0
/// when absent). Two sessions agree on ciphertext semantics iff their
/// fingerprints match (modulo the 64-bit collision bound) — in particular, a hybrid chain and the digit chain over the
/// same data limbs produce bit-identical ciphertexts but *incompatible*
/// key material, so the special prime must separate them on the wire.
pub fn chain_fingerprint(params: &BfvParams) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(params.degree() as u64);
    mix(params.plain_modulus().value());
    mix(params.limbs() as u64);
    for q in params.chain().moduli() {
        mix(q.value());
    }
    mix(params.a_dcmp());
    // The retired `W_dcmp` slot, at the default every chain carried
    // (`next_pow2(t)`): recorded transcripts, key bytes and the
    // `bit_stability.rs` pins depend on it.
    mix(params.plain_modulus().value().next_power_of_two());
    mix(params.special().map_or(0, |p| p.value()));
    h
}

fn malformed(what: &'static str, reason: String) -> Error {
    Error::Malformed { what, reason }
}

// ---------------------------------------------------------------------
// Packed residue planes
// ---------------------------------------------------------------------

/// Width in bits of one packed residue field under modulus `q`:
/// `64 − q.leading_zeros()`, the fewest bits that hold every residue.
pub fn field_bits(q: u64) -> usize {
    (u64::BITS - q.leading_zeros()) as usize
}

/// Bytes of limb plane `i` of `chain` on the wire: `n·w_i/8`.
pub fn plane_bytes(chain: &ModulusChain, i: usize) -> usize {
    chain.degree() * field_bits(chain.modulus(i).value()) / 8
}

/// Bytes of one packed polynomial over the first `live` planes of
/// `chain`: `Σ_{i<live} n·w_i/8`. Plane `i` starts `poly_bytes(chain, i)`
/// bytes into the polynomial. Every message size is built from this.
pub fn poly_bytes(chain: &ModulusChain, live: usize) -> usize {
    (0..live).map(|i| plane_bytes(chain, i)).sum()
}

/// Overwrites field `index` of a packed plane of `bits`-bit fields that
/// starts at `plane[0]` with the low `bits` bits of `value` — any value
/// the layout can express, canonical or not (fault injection and the
/// codec's own tests).
///
/// # Panics
///
/// If the field runs past the end of `plane`.
pub fn write_field(plane: &mut [u8], bits: usize, index: usize, value: u64) {
    for b in 0..bits {
        let at = index * bits + b;
        let mask = 1u8 << (at % 8);
        if (value >> b) & 1 == 1 {
            plane[at / 8] |= mask;
        } else {
            plane[at / 8] &= !mask;
        }
    }
}

/// Appends one limb plane of canonical residues (`< q`) as `n` packed
/// `field_bits(q)`-bit fields, written into space sized up front.
fn push_plane(out: &mut Vec<u8>, residues: &[u64], q: u64) {
    let bits = field_bits(q) as u32;
    let start = out.len();
    out.resize(start + residues.len() * bits as usize / 8, 0);
    let mut words = out[start..].chunks_exact_mut(8);
    // `acc` holds the `held < 64` low bits not yet written.
    let mut acc: u64 = 0;
    let mut held = 0;
    for &r in residues {
        debug_assert!(r < q, "push_plane: residue {r} >= {q}");
        acc |= r << held;
        held += bits;
        if held >= 64 {
            if let Some(word) = words.next() {
                word.copy_from_slice(&acc.to_le_bytes());
            }
            held -= 64;
            // The high `held` bits of `r` that did not fit.
            acc = r >> (bits - held);
        }
    }
    let tail = words.into_remainder();
    let len = tail.len();
    tail.copy_from_slice(&acc.to_le_bytes()[..len]);
}

/// Appends a polynomial's live planes, each packed at its limb's width.
fn push_poly(out: &mut Vec<u8>, poly: &RnsPoly, chain: &ModulusChain) {
    for i in 0..poly.limbs() {
        push_plane(out, poly.limb(i), chain.modulus(i).value());
    }
}

/// Unpacks one plane of `dst.len()` fields under modulus `q` from `src`
/// (exactly `plane_bytes` long), checking each field against `q` as it is
/// read. Returns the first non-canonical `(coefficient, value)`.
fn unpack_plane(src: &[u8], dst: &mut [u64], q: u64) -> std::result::Result<(), (usize, u64)> {
    let bits = field_bits(q) as u32;
    let mask = u64::MAX >> (64 - bits);
    let mut words = src.chunks_exact(8);
    let tail = {
        let rest = words.remainder();
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        u64::from_le_bytes(w)
    };
    let mut next = || {
        words.next().map_or(tail, |c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            u64::from_le_bytes(w)
        })
    };
    // `acc` holds the `held < bits` low bits not yet read.
    let mut acc: u64 = 0;
    let mut held = 0;
    for (j, d) in dst.iter_mut().enumerate() {
        let v = if held >= bits {
            let v = acc & mask;
            acc >>= bits;
            held -= bits;
            v
        } else {
            let w = next();
            let v = (acc | w << held) & mask;
            // The rest of `w` past this field.
            acc = w >> (bits - held);
            held += 64 - bits;
            v
        };
        if v >= q {
            return Err((j, v));
        }
        *d = v;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Little-endian writer / validating reader
// ---------------------------------------------------------------------

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_header(out: &mut Vec<u8>, kind: Kind, fingerprint: u64, level: usize, live: usize) {
    out.extend_from_slice(&MAGIC);
    push_u16(out, VERSION);
    out.push(kind as u8);
    out.push(0); // reserved
    push_u64(out, fingerprint);
    push_u32(out, level as u32);
    push_u32(out, live as u32);
}

/// A bounds-checked cursor over a received buffer. Every read returns a
/// typed error on underrun — nothing in this module indexes past a length
/// it has not proven.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(malformed(
                self.what,
                format!(
                    "truncated: needed {} bytes at offset {}, message has {}",
                    n,
                    self.pos,
                    self.buf.len()
                ),
            )),
        }
    }

    fn u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        let mut w = [0u8; 2];
        w.copy_from_slice(s);
        Ok(u16::from_le_bytes(w))
    }

    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        let mut w = [0u8; 4];
        w.copy_from_slice(s);
        Ok(u32::from_le_bytes(w))
    }

    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(s);
        Ok(u64::from_le_bytes(w))
    }

    /// Reads one packed evaluation-form polynomial over the first `live`
    /// planes of `chain`, unpacking and canonical-checking every field in
    /// the same pass. A hybrid Galois key's `k0`s are read against the
    /// `P`-extended key-switch chain, whose last plane is packed and
    /// checked at the special prime's width.
    fn poly(&mut self, chain: &ModulusChain, live: usize) -> Result<RnsPoly> {
        let n = chain.degree();
        let mut data = vec![0u64; live * n];
        for (i, plane) in data.chunks_exact_mut(n).enumerate() {
            let q = chain.modulus(i).value();
            let bytes = self.take(plane_bytes(chain, i))?;
            unpack_plane(bytes, plane, q).map_err(|(j, v)| {
                malformed(
                    self.what,
                    format!(
                        "non-canonical residue {v} >= q_{i} = {q} in plane {i} at coefficient {j}"
                    ),
                )
            })?;
        }
        Ok(RnsPoly::from_data(data, live, n, Representation::Eval))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Validated header fields.
struct Header {
    level: usize,
    live: usize,
}

/// Reads and validates the common header: magic, version, kind,
/// fingerprint against `params`, level validity, and live-limb
/// consistency with the level.
fn read_header(r: &mut Reader<'_>, kind: Kind, params: &BfvParams) -> Result<Header> {
    let what = r.what;
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(malformed(what, format!("bad magic {magic:02x?}")));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(malformed(
            what,
            format!("unsupported format version {version} (this engine speaks {VERSION})"),
        ));
    }
    let kind_byte = r.take(1)?[0];
    match Kind::from_u8(kind_byte) {
        Some(k) if k == kind => {}
        Some(k) => {
            return Err(malformed(
                what,
                format!("message kind {k:?} where {kind:?} was expected"),
            ))
        }
        None => return Err(malformed(what, format!("unknown message kind {kind_byte}"))),
    }
    let _reserved = r.take(1)?; // ignored: compat padding
    let found = r.u64()?;
    let expected = chain_fingerprint(params);
    if found != expected {
        return Err(Error::ChainMismatch { expected, found });
    }
    let level = r.u32()? as usize;
    if level >= params.levels() {
        return Err(Error::InvalidLevel {
            requested: level,
            current: 0,
            max: params.max_level(),
        });
    }
    let live = r.u32()? as usize;
    if live != params.live_limbs_at(level) {
        return Err(malformed(
            what,
            format!(
                "header claims {live} live limbs at level {level}; the chain has {}",
                params.live_limbs_at(level)
            ),
        ));
    }
    Ok(Header { level, live })
}

/// Errors unless the message has been consumed exactly — trailing bytes
/// are as malformed as missing ones.
fn expect_consumed(r: &Reader<'_>) -> Result<()> {
    if r.remaining() != 0 {
        return Err(malformed(
            r.what,
            format!("{} trailing bytes after payload", r.remaining()),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Ciphertexts
// ---------------------------------------------------------------------

/// Exact encoded size of a level-`level` ciphertext: header + the
/// `2·poly_bytes(live)` payload the transcript accounting charges.
pub fn ciphertext_wire_bytes(params: &BfvParams, level: usize) -> usize {
    HEADER_BYTES + 2 * poly_bytes(params.chain(), params.live_limbs_at(level))
}

/// Encodes a ciphertext canonically: header, then `c0` and `c1`, each
/// limb plane packed at its limb's width.
pub fn encode_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let params = ct.params();
    let mut out = Vec::with_capacity(ciphertext_wire_bytes(params, ct.level()));
    write_header(
        &mut out,
        Kind::Ciphertext,
        chain_fingerprint(params),
        ct.level(),
        ct.live_limbs(),
    );
    push_poly(&mut out, ct.c0(), params.chain());
    push_poly(&mut out, ct.c1(), params.chain());
    out
}

/// Exact encoded size of a seeded (fresh) ciphertext at `level`:
/// header + 8-byte seed + the single packed `c0` polynomial over the
/// level's live planes, `8 + Σ_{i<live} n·w_i/8` payload bytes.
pub fn seeded_ciphertext_wire_bytes(params: &BfvParams, level: usize) -> usize {
    HEADER_BYTES + SEED_BYTES + poly_bytes(params.chain(), params.live_limbs_at(level))
}

/// Encodes a fresh symmetric ciphertext in the seeded format: header
/// (carrying the ciphertext's level), the 8-byte seed, then `c0` alone —
/// `c1` is implied by the seed. The encoder *proves* the compression is
/// lossless before shipping it: re-expanding `seed` over the level's
/// chain must reproduce `c1` bit-for-bit (the pair comes from
/// [`crate::Encryptor::encrypt_seeded_at`]).
///
/// # Errors
///
/// [`Error::Malformed`] if `seed` does not expand to this ciphertext's
/// `c1` (only fresh encryptions have a PRNG-uniform `c1`).
pub fn encode_ciphertext_seeded(ct: &Ciphertext, seed: u64) -> Result<Vec<u8>> {
    let what = "seeded ciphertext";
    let params = ct.params();
    let level = ct.level();
    let a = crate::sampling::expand_uniform(seed, params.chain_at(level));
    if ct.c1() != &a {
        return Err(malformed(
            what,
            "seed does not regenerate c1 — refusing a lossy encoding".to_string(),
        ));
    }
    let mut out = Vec::with_capacity(seeded_ciphertext_wire_bytes(params, level));
    write_header(
        &mut out,
        Kind::SeededCiphertext,
        chain_fingerprint(params),
        level,
        ct.live_limbs(),
    );
    push_u64(&mut out, seed);
    push_poly(&mut out, ct.c0(), params.chain());
    Ok(out)
}

fn decode_ciphertext_seeded(bytes: &[u8], params: &BfvParams) -> Result<Ciphertext> {
    let what = "seeded ciphertext";
    let mut r = Reader::new(bytes, what);
    let h = read_header(&mut r, Kind::SeededCiphertext, params)?;
    let expect = seeded_ciphertext_wire_bytes(params, h.level);
    if bytes.len() != expect {
        return Err(malformed(
            what,
            format!(
                "level {} needs exactly {expect} bytes, message has {}",
                h.level,
                bytes.len()
            ),
        ));
    }
    let seed = r.u64()?;
    let c0 = r.poly(params.chain(), h.live)?;
    expect_consumed(&r)?;
    let c1 = crate::sampling::expand_uniform(seed, params.chain_at(h.level));
    Ciphertext::try_new(c0, c1, params.clone(), NoiseEstimate::fresh(params))
}

/// Decodes and fully validates a ciphertext against the session's
/// parameters, accepting both the full and the seeded kind
/// (dispatching on the header's kind byte). See the module docs
/// for the check order; nothing is constructed before every check
/// passes.
///
/// The returned ciphertext carries the fresh-encryption noise estimate
/// (estimates are never trusted from the wire) — absolute noise, right at
/// whatever level a seeded upload was encrypted.
///
/// # Errors
///
/// [`Error::Malformed`], [`Error::ChainMismatch`], or
/// [`Error::InvalidLevel`].
pub fn decode_ciphertext(bytes: &[u8], params: &BfvParams) -> Result<Ciphertext> {
    if bytes.get(OFF_KIND) == Some(&(Kind::SeededCiphertext as u8)) {
        return decode_ciphertext_seeded(bytes, params);
    }
    let what = "ciphertext";
    let mut r = Reader::new(bytes, what);
    let h = read_header(&mut r, Kind::Ciphertext, params)?;
    let expect = ciphertext_wire_bytes(params, h.level);
    if bytes.len() != expect {
        return Err(malformed(
            what,
            format!(
                "level {} needs exactly {expect} bytes, message has {}",
                h.level,
                bytes.len()
            ),
        ));
    }
    let c0 = r.poly(params.chain(), h.live)?;
    let c1 = r.poly(params.chain(), h.live)?;
    expect_consumed(&r)?;
    Ciphertext::try_new(c0, c1, params.clone(), NoiseEstimate::fresh(params))
}

/// Splits a buffer of back-to-back ciphertext messages into individual
/// message slices, using each header's kind and level fields to compute
/// the exact message length (both kinds are sized by their level). Only
/// the *framing* is
/// derived here — every slice must still pass [`decode_ciphertext`]'s
/// full validation, so a corrupted kind or level field either misframes
/// into a slice that fails validation or errors right here.
///
/// # Errors
///
/// [`Error::Malformed`] for a truncated header, payload, or non-ciphertext
/// kind; [`Error::InvalidLevel`] for a level past the chain.
pub fn split_ciphertext_messages<'a>(bytes: &'a [u8], params: &BfvParams) -> Result<Vec<&'a [u8]>> {
    let what = "ciphertext bundle";
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let header = bytes.get(pos..pos + HEADER_BYTES).ok_or_else(|| {
            malformed(
                what,
                format!("truncated header at offset {pos} of {}", bytes.len()),
            )
        })?;
        let sized: fn(&BfvParams, usize) -> usize = match Kind::from_u8(header[OFF_KIND]) {
            Some(Kind::SeededCiphertext) => seeded_ciphertext_wire_bytes,
            Some(Kind::Ciphertext) => ciphertext_wire_bytes,
            other => {
                return Err(malformed(
                    what,
                    format!(
                        "bundle holds ciphertexts, message at offset {pos} has kind {:?} (byte {})",
                        other, header[OFF_KIND]
                    ),
                ))
            }
        };
        let mut w = [0u8; 4];
        w.copy_from_slice(&header[OFF_LEVEL..OFF_LEVEL + 4]);
        let level = u32::from_le_bytes(w) as usize;
        if level >= params.levels() {
            return Err(Error::InvalidLevel {
                requested: level,
                current: 0,
                max: params.max_level(),
            });
        }
        let len = sized(params, level);
        let msg = bytes.get(pos..pos + len).ok_or_else(|| {
            malformed(
                what,
                format!(
                    "message at offset {pos} claims {len} bytes, {} remain",
                    bytes.len() - pos
                ),
            )
        })?;
        out.push(msg);
        pos += len;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Public keys
// ---------------------------------------------------------------------

/// Exact encoded size of a seeded public key: header + 8-byte seed + the
/// single packed `pk0` polynomial.
pub fn seeded_public_key_wire_bytes(params: &BfvParams) -> usize {
    HEADER_BYTES + SEED_BYTES + poly_bytes(params.chain(), params.limbs())
}

/// Encodes a public key in the seeded format: header, the 8-byte
/// seed, then `pk0` alone — `pk1` is implied by the seed. The pair comes
/// from [`crate::KeyGenerator::public_key_seeded`]; the encoder verifies
/// the seed regenerates `pk1` before shipping.
///
/// # Errors
///
/// [`Error::Malformed`] if `seed` does not expand to this key's `pk1`.
pub fn encode_public_key_seeded(pk: &PublicKey, seed: u64) -> Result<Vec<u8>> {
    let what = "seeded public key";
    let params = pk.params();
    let a = crate::sampling::expand_uniform(seed, params.chain());
    if pk.pk1() != &a {
        return Err(malformed(
            what,
            "seed does not regenerate pk1 — refusing a lossy encoding".to_string(),
        ));
    }
    let mut out = Vec::with_capacity(seeded_public_key_wire_bytes(params));
    write_header(
        &mut out,
        Kind::SeededPublicKey,
        chain_fingerprint(params),
        0,
        params.limbs(),
    );
    push_u64(&mut out, seed);
    push_poly(&mut out, pk.pk0(), params.chain());
    Ok(out)
}

/// Decodes and validates a seeded public key — the only public-key form a
/// session ships — and rebuilds `pk1` from its seed.
///
/// # Errors
///
/// [`Error::Malformed`], [`Error::ChainMismatch`], or
/// [`Error::InvalidLevel`].
pub fn decode_public_key(bytes: &[u8], params: &BfvParams) -> Result<PublicKey> {
    let what = "seeded public key";
    let mut r = Reader::new(bytes, what);
    let h = read_header(&mut r, Kind::SeededPublicKey, params)?;
    if h.level != 0 {
        return Err(malformed(
            what,
            format!(
                "public keys are level-0 objects, header claims level {}",
                h.level
            ),
        ));
    }
    let expect = seeded_public_key_wire_bytes(params);
    if bytes.len() != expect {
        return Err(malformed(
            what,
            format!("needs exactly {expect} bytes, message has {}", bytes.len()),
        ));
    }
    let seed = r.u64()?;
    let pk0 = r.poly(params.chain(), h.live)?;
    expect_consumed(&r)?;
    let pk1 = crate::sampling::expand_uniform(seed, params.chain());
    Ok(PublicKey::from_parts(pk0, pk1, params.clone()))
}

// ---------------------------------------------------------------------
// Galois key sets
// ---------------------------------------------------------------------

/// Exact encoded size of a `count`-key seeded Galois key set: header, key
/// count, then per key its element word, its seed, and `ks_digits_at(0)`
/// packed `k0` polynomials over the `ks_chain_at(0)` planes (on a hybrid
/// chain the last at the width of `P`).
pub fn seeded_galois_keys_wire_bytes(params: &BfvParams, count: usize) -> usize {
    let ks = params.ks_chain_at(0);
    let k0_bytes = params.ks_digits_at(0) * poly_bytes(ks, ks.limbs());
    HEADER_BYTES + 4 + count * (8 + SEED_BYTES + k0_bytes)
}

/// Encodes a seeded Galois key set canonically: keys in
/// ascending element order, each as its element, its expansion seed and
/// its pairs' `k0` polynomials. Neither the pairs' `a` nor the slot
/// permutations are serialized — the receiver expands both from the seed
/// and the element ([`SeededGaloisKeys::expand`]).
pub fn encode_seeded_galois_keys(keys: &SeededGaloisKeys, params: &BfvParams) -> Vec<u8> {
    let mut out = Vec::with_capacity(seeded_galois_keys_wire_bytes(params, keys.len()));
    write_header(
        &mut out,
        Kind::SeededGaloisKeys,
        chain_fingerprint(params),
        0,
        params.limbs(),
    );
    push_u32(&mut out, keys.len() as u32);
    let ks = params.ks_chain_at(0);
    for key in keys.iter() {
        push_u64(&mut out, key.element);
        push_u64(&mut out, key.seed);
        for k0 in key.k0() {
            push_poly(&mut out, k0, ks);
        }
    }
    out
}

/// Decodes and validates a seeded Galois key set, expanding nothing: the
/// exact length for the declared count, every element a valid odd
/// automorphism exponent and the elements strictly ascending (the one
/// order [`encode_seeded_galois_keys`] emits — a repeated element would
/// silently overwrite its first key, and the caller would hold fewer keys
/// than the count the message was sized by; checked before that key's
/// polynomials are read), and every `k0` canonical on every key-switch
/// plane (on a hybrid chain the last against the special prime `P`).
///
/// # Errors
///
/// [`Error::Malformed`], [`Error::ChainMismatch`],
/// [`Error::InvalidLevel`], or [`Error::InvalidGaloisElement`].
pub fn decode_seeded_galois_keys(bytes: &[u8], params: &BfvParams) -> Result<SeededGaloisKeys> {
    let what = "seeded galois keys";
    let mut r = Reader::new(bytes, what);
    let h = read_header(&mut r, Kind::SeededGaloisKeys, params)?;
    if h.level != 0 {
        return Err(malformed(
            what,
            format!(
                "key sets are level-0 objects, header claims level {}",
                h.level
            ),
        ));
    }
    let count = r.u32()? as usize;
    let expect = seeded_galois_keys_wire_bytes(params, count);
    if bytes.len() != expect {
        return Err(malformed(
            what,
            format!(
                "{count} keys need exactly {expect} bytes, message has {}",
                bytes.len()
            ),
        ));
    }
    let (pair_count, ks) = (params.ks_digits_at(0), params.ks_chain_at(0));
    let mut out = SeededGaloisKeys::default();
    let mut previous = 0;
    for _ in 0..count {
        let g = r.u64()?;
        check_galois_element(params.degree(), g)?;
        // Valid elements are odd, so 0 is below every first element.
        if g <= previous {
            return Err(malformed(
                what,
                format!("element {g} after {previous}: elements must be strictly ascending"),
            ));
        }
        previous = g;
        let seed = r.u64()?;
        let k0 = (0..pair_count)
            .map(|_| r.poly(ks, ks.limbs()))
            .collect::<Result<Vec<_>>>()?;
        out.insert(SeededGaloisKey::from_parts(g, seed, k0));
    }
    expect_consumed(&r)?;
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::encoder::BatchEncoder;
    use crate::encryptor::Encryptor;
    use crate::keys::KeyGenerator;

    fn setup(params: &BfvParams) -> (BatchEncoder, Encryptor, KeyGenerator) {
        let mut kg = KeyGenerator::from_seed(params.clone(), 7);
        let pk = kg.public_key().unwrap();
        (
            BatchEncoder::new(params.clone()),
            Encryptor::from_public_key(pk, 8),
            kg,
        )
    }

    /// The codec alone, at every field width an engine limb can have and
    /// at the smallest degrees (whose planes end mid-word): unpacking
    /// inverts packing, a plane is exactly `n·w/8` bytes, `write_field`
    /// addresses the fields the packer wrote, and the first over-range
    /// field is reported with its coefficient.
    #[test]
    fn packed_planes_roundtrip_at_every_width() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |below: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 1) % below
        };
        for bits in 2..=62 {
            let q = (1u64 << (bits - 1)) + 1;
            assert_eq!(field_bits(q), bits);
            for n in [8usize, 16, 64] {
                let mut residues: Vec<u64> = (0..n).map(|_| draw(q)).collect();
                residues[n - 1] = q - 1;
                let mut packed = Vec::new();
                push_plane(&mut packed, &residues, q);
                assert_eq!(packed.len(), n * bits / 8, "w={bits} n={n}");
                let mut back = vec![0; n];
                unpack_plane(&packed, &mut back, q).unwrap();
                assert_eq!(back, residues, "w={bits} n={n}");

                let j = draw(n as u64) as usize;
                let fresh = draw(q);
                residues[j] = fresh;
                write_field(&mut packed, bits, j, fresh);
                let mut repacked = Vec::new();
                push_plane(&mut repacked, &residues, q);
                assert_eq!(packed, repacked, "w={bits} n={n} field {j}");

                let top = u64::MAX >> (64 - bits);
                write_field(&mut packed, bits, j, top);
                assert_eq!(unpack_plane(&packed, &mut back, q), Err((j, top)));
            }
        }
    }

    #[test]
    fn fingerprints_separate_the_presets() {
        let fps: Vec<u64> = BfvParams::presets(4096)
            .unwrap()
            .iter()
            .map(|(_, p)| chain_fingerprint(p))
            .collect();
        let mut dedup = fps.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), fps.len(), "presets must fingerprint apart");
        // Rebuilding the same preset reproduces the fingerprint.
        assert_eq!(
            chain_fingerprint(&BfvParams::preset_single_60(4096).unwrap()),
            chain_fingerprint(&BfvParams::preset_single_60(4096).unwrap()),
        );
    }

    #[test]
    fn ciphertext_roundtrip_is_bit_identical() {
        let params = BfvParams::preset_single_60(4096).unwrap();
        let (encoder, mut enc, _) = setup(&params);
        let ct = enc.encrypt(&encoder.encode(&[1, 2, 3]).unwrap()).unwrap();
        let bytes = encode_ciphertext(&ct);
        assert_eq!(bytes.len(), ciphertext_wire_bytes(&params, 0));
        // One 60-bit limb: 60 of every 64 in-memory bits cross the wire.
        assert_eq!(bytes.len() - HEADER_BYTES, ct.byte_size() / 64 * 60);
        let back = decode_ciphertext(&bytes, &params).unwrap();
        assert_eq!(back.c0().data(), ct.c0().data());
        assert_eq!(back.c1().data(), ct.c1().data());
        // Canonical: re-encoding reproduces the exact bytes.
        assert_eq!(encode_ciphertext(&back), bytes);
    }

    #[test]
    fn truncation_extension_and_garbage_are_typed_errors() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let (encoder, mut enc, _) = setup(&params);
        let ct = enc.encrypt(&encoder.encode(&[5]).unwrap()).unwrap();
        let bytes = encode_ciphertext(&ct);

        assert!(matches!(
            decode_ciphertext(&[], &params),
            Err(Error::Malformed { .. })
        ));
        assert!(matches!(
            decode_ciphertext(&bytes[..bytes.len() - 1], &params),
            Err(Error::Malformed { .. })
        ));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_ciphertext(&extended, &params),
            Err(Error::Malformed { .. })
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            decode_ciphertext(&bad_magic, &params),
            Err(Error::Malformed { .. })
        ));
        let mut bad_version = bytes.clone();
        bad_version[OFF_VERSION] = 99;
        assert!(matches!(
            decode_ciphertext(&bad_version, &params),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn foreign_fingerprint_is_chain_mismatch() {
        let params = BfvParams::preset_single_60(4096).unwrap();
        let other = BfvParams::preset_rns_2x30(4096).unwrap();
        let (encoder, mut enc, _) = setup(&params);
        let ct = enc.encrypt(&encoder.encode(&[5]).unwrap()).unwrap();
        let bytes = encode_ciphertext(&ct);
        assert!(matches!(
            decode_ciphertext(&bytes, &other),
            Err(Error::ChainMismatch { .. })
        ));
    }

    #[test]
    fn non_canonical_residue_is_rejected() {
        let params = BfvParams::preset_single_60(4096).unwrap();
        let (encoder, mut enc, _) = setup(&params);
        let ct = enc.encrypt(&encoder.encode(&[5]).unwrap()).unwrap();
        let mut bytes = encode_ciphertext(&ct);
        let q = params.chain().modulus(0).value();
        write_field(&mut bytes[HEADER_BYTES..], field_bits(q), 5, q);
        match decode_ciphertext(&bytes, &params) {
            Err(Error::Malformed { reason, .. }) => {
                assert!(reason.contains("non-canonical"), "{reason}");
                assert!(reason.contains("plane 0 at coefficient 5"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn level_lies_are_rejected() {
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let (encoder, mut enc, _) = setup(&params);
        let ct = enc.encrypt(&encoder.encode(&[5]).unwrap()).unwrap();
        let mut bytes = encode_ciphertext(&ct);
        // Past the chain: InvalidLevel.
        bytes[OFF_LEVEL..OFF_LEVEL + 4].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            decode_ciphertext(&bytes, &params),
            Err(Error::InvalidLevel { requested: 9, .. })
        ));
        // Valid level whose payload length no longer matches: Malformed.
        bytes[OFF_LEVEL..OFF_LEVEL + 4].copy_from_slice(&1u32.to_le_bytes());
        bytes[OFF_LIVE_LIMBS..OFF_LIVE_LIMBS + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            decode_ciphertext(&bytes, &params),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn reserved_byte_is_ignored_by_design() {
        let params = BfvParams::preset_single_60(4096).unwrap();
        let (encoder, mut enc, _) = setup(&params);
        let ct = enc.encrypt(&encoder.encode(&[9]).unwrap()).unwrap();
        let mut bytes = encode_ciphertext(&ct);
        bytes[OFF_RESERVED] = 0xff;
        let back = decode_ciphertext(&bytes, &params).unwrap();
        assert_eq!(back.c0().data(), ct.c0().data());
        assert_eq!(back.c1().data(), ct.c1().data());
    }

    #[test]
    fn seeded_ciphertext_roundtrip_at_half_the_bytes() {
        for params in [
            BfvParams::preset_single_60(4096).unwrap(),
            BfvParams::preset_rns_2x30(4096).unwrap(),
            BfvParams::preset_rns_3x36(4096).unwrap(),
        ] {
            let kg = KeyGenerator::from_seed(params.clone(), 21);
            let encoder = BatchEncoder::new(params.clone());
            let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 22);
            let (ct, seed) = enc
                .encrypt_seeded(&encoder.encode(&[1, 2, 3]).unwrap())
                .unwrap();

            let bytes = encode_ciphertext_seeded(&ct, seed).unwrap();
            assert_eq!(bytes.len(), seeded_ciphertext_wire_bytes(&params, 0));
            // Payload is seed + c0: (slightly over) half the full payload.
            assert_eq!(
                2 * (bytes.len() - HEADER_BYTES - SEED_BYTES),
                ciphertext_wire_bytes(&params, 0) - HEADER_BYTES
            );
            assert!(bytes.len() < ciphertext_wire_bytes(&params, 0));

            // The generic decoder dispatches on kind and rebuilds c1.
            let back = decode_ciphertext(&bytes, &params).unwrap();
            assert_eq!(back.c0().data(), ct.c0().data());
            assert_eq!(back.c1().data(), ct.c1().data());

            // The full kind still encodes/decodes the same ciphertext.
            let full = encode_ciphertext(&ct);
            let back_full = decode_ciphertext(&full, &params).unwrap();
            assert_eq!(back_full.c1().data(), ct.c1().data());
        }
    }

    #[test]
    fn seeded_encoder_rejects_wrong_seed_and_nonfresh_levels() {
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 23);
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 24);
        let (ct, seed) = enc.encrypt_seeded(&encoder.encode(&[4]).unwrap()).unwrap();
        // A wrong seed cannot silently ship a lossy encoding.
        assert!(matches!(
            encode_ciphertext_seeded(&ct, seed ^ 1),
            Err(Error::Malformed { .. })
        ));
        // A public-key encryption has a non-uniform c1: same refusal.
        let pk = kg.public_key().unwrap();
        let mut enc_pk = Encryptor::from_public_key(pk, 25);
        let ct_pk = enc_pk.encrypt(&encoder.encode(&[4]).unwrap()).unwrap();
        assert!(matches!(
            encode_ciphertext_seeded(&ct_pk, seed),
            Err(Error::Malformed { .. })
        ));
        // So has a switched one: its c1 is the rounded quotient, not the
        // seed's expansion over the deeper chain.
        let switched = crate::evaluator::Evaluator::new(params.clone())
            .mod_switch_to(&ct, 1)
            .unwrap();
        assert!(matches!(
            encode_ciphertext_seeded(&switched, seed),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn seeded_decode_validates_before_expansion() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let kg = KeyGenerator::from_seed(params.clone(), 26);
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 27);
        let (ct, seed) = enc.encrypt_seeded(&encoder.encode(&[6]).unwrap()).unwrap();
        let bytes = encode_ciphertext_seeded(&ct, seed).unwrap();

        // One version for every kind: the retired v1 and v2 headers are
        // unsupported, on the seeded kind and the full one alike.
        let full = encode_ciphertext(&ct);
        for (message, version) in [(&bytes, 1u16), (&bytes, 2), (&full, 1), (&full, 2)] {
            let mut old = message.clone();
            old[OFF_VERSION..OFF_VERSION + 2].copy_from_slice(&version.to_le_bytes());
            match decode_ciphertext(&old, &params) {
                Err(Error::Malformed { reason, .. }) => {
                    assert!(reason.contains("unsupported format version"), "{reason}");
                }
                other => panic!("v{version}: expected Malformed, got {other:?}"),
            }
        }
        // Truncation and trailing garbage are typed errors.
        assert!(matches!(
            decode_ciphertext(&bytes[..bytes.len() - 1], &params),
            Err(Error::Malformed { .. })
        ));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_ciphertext(&extended, &params),
            Err(Error::Malformed { .. })
        ));
        // Non-canonical c0 residue, with the plane offset shifted by the seed.
        let mut bad = bytes.clone();
        let q = params.chain().modulus(0).value();
        write_field(&mut bad[HEADER_BYTES + SEED_BYTES..], field_bits(q), 0, q);
        match decode_ciphertext(&bad, &params) {
            Err(Error::Malformed { reason, .. }) => {
                assert!(reason.contains("non-canonical"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // A level the payload's length does not match is structurally
        // invalid.
        let mut lvl = bytes.clone();
        lvl[OFF_LEVEL..OFF_LEVEL + 4].copy_from_slice(&1u32.to_le_bytes());
        lvl[OFF_LIVE_LIMBS..OFF_LIVE_LIMBS + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_ciphertext(&lvl, &params),
            Err(Error::Malformed { .. })
        ));
        // A flipped seed decodes structurally but the ciphertext is dead:
        // c1 no longer matches what c0 was built against.
        let mut flipped = bytes.clone();
        flipped[HEADER_BYTES] ^= 1;
        let dead = decode_ciphertext(&flipped, &params).unwrap();
        assert_ne!(dead.c1().data(), ct.c1().data());
    }

    #[test]
    fn seeded_public_key_roundtrip_and_mixed_bundle_split() {
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 31);
        let (pk, pk_seed) = kg.public_key_seeded().unwrap();
        let bytes = encode_public_key_seeded(&pk, pk_seed).unwrap();
        assert_eq!(bytes.len(), seeded_public_key_wire_bytes(&params));
        assert_eq!(
            bytes.len() - HEADER_BYTES,
            SEED_BYTES + poly_bytes(params.chain(), params.limbs())
        );
        let back = decode_public_key(&bytes, &params).unwrap();
        assert_eq!(back.pk0().data(), pk.pk0().data());
        assert_eq!(back.pk1().data(), pk.pk1().data());
        assert!(matches!(
            encode_public_key_seeded(&pk, pk_seed ^ 1),
            Err(Error::Malformed { .. })
        ));

        // A bundle mixing seeded and full ciphertexts splits correctly.
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 32);
        let (ct, seed) = enc.encrypt_seeded(&encoder.encode(&[7]).unwrap()).unwrap();
        let seeded_msg = encode_ciphertext_seeded(&ct, seed).unwrap();
        let full_msg = encode_ciphertext(&ct);
        let mut bundle = seeded_msg.clone();
        bundle.extend_from_slice(&full_msg);
        let parts = split_ciphertext_messages(&bundle, &params).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], &seeded_msg[..]);
        assert_eq!(parts[1], &full_msg[..]);
        // A public key in a ciphertext bundle is a framing error.
        assert!(matches!(
            split_ciphertext_messages(&bytes, &params),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn public_key_roundtrip() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 3);
        let (pk, seed) = kg.public_key_seeded().unwrap();
        let bytes = encode_public_key_seeded(&pk, seed).unwrap();
        assert_eq!(bytes.len(), seeded_public_key_wire_bytes(&params));
        let back = decode_public_key(&bytes, &params).unwrap();
        assert_eq!(back.pk0().data(), pk.pk0().data());
        assert_eq!(back.pk1().data(), pk.pk1().data());
        assert_eq!(encode_public_key_seeded(&back, seed).unwrap(), bytes);
        // The retired full kind (byte 2) is an unknown kind, not a key.
        let mut retired = bytes.clone();
        retired[OFF_KIND] = 2;
        match decode_public_key(&retired, &params) {
            Err(Error::Malformed { reason, .. }) => {
                assert!(reason.contains("unknown message kind 2"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn galois_keys_roundtrip_and_reject_bad_elements() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 4);
        let keys = kg.seeded_galois_keys_for_steps(&[1, -1, 8]).unwrap();
        let bytes = encode_seeded_galois_keys(&keys, &params);
        assert_eq!(
            bytes.len(),
            seeded_galois_keys_wire_bytes(&params, keys.len())
        );
        let expanded = keys.clone().expand(&params);
        // Element + seed per key, and the k0 half of the expanded pair
        // material, 30 of every 64 bits of it (two 30-bit limbs).
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + 4 + keys.len() * 16 + expanded.byte_size(&params) / 2 / 64 * 30
        );
        let back = decode_seeded_galois_keys(&bytes, &params).unwrap();
        assert_eq!(back, keys);
        let back = back.expand(&params);
        assert_eq!(back.len(), expanded.len());
        for g in expanded.elements() {
            let a = expanded.get(g).unwrap();
            let b = back.get(g).unwrap();
            assert_eq!(a.permutation(), b.permutation());
            for (pa, pb) in a.pairs().iter().zip(b.pairs()) {
                assert_eq!(pa.0.data(), pb.0.data());
                assert_eq!(pa.1.data(), pb.1.data());
            }
        }
        assert_eq!(encode_seeded_galois_keys(&keys, &params), bytes);

        // An even element in the stream is structurally invalid.
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 4..HEADER_BYTES + 12].copy_from_slice(&4u64.to_le_bytes());
        assert!(matches!(
            decode_seeded_galois_keys(&bad, &params),
            Err(Error::InvalidGaloisElement(4))
        ));
        // The retired full kind (byte 3) is an unknown kind, not a key set.
        let mut retired = bytes.clone();
        retired[OFF_KIND] = 3;
        match decode_seeded_galois_keys(&retired, &params) {
            Err(Error::Malformed { reason, .. }) => {
                assert!(reason.contains("unknown message kind 3"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
