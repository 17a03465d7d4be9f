//! Validated wire format for everything that crosses the protocol
//! boundary.
//!
//! Every message is a canonical little-endian encoding with a fixed
//! 24-byte header:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `b"CHWF"` |
//! | 4      | 2    | format version (`u16`: 1 = full kinds, 2 = seeded kinds) |
//! | 6      | 1    | message kind |
//! | 7      | 1    | reserved (ignored on decode) |
//! | 8      | 8    | parameter-chain fingerprint (`u64`) |
//! | 16     | 4    | level (dropped-limb count, `u32`) |
//! | 20     | 4    | live limb planes per polynomial (`u32`) |
//!
//! followed by the message payload: polynomial words in limb-major
//! little-endian order. A level-`ℓ` ciphertext's payload is exactly the
//! `2·live·n·8` bytes the transcript accounting has always charged —
//! the header is the only framing overhead.
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
//! **Seeded compression (format version 2).** A *fresh* symmetric
//! ciphertext has `c1 = a` drawn uniformly, a public key has `pk1 = a`
//! likewise, and so does every Galois key pair's `k1` — all pure PRNG
//! output, so shipping the full polynomial is waste. Version-2 messages
//! (kinds [`Kind::SeededCiphertext`] / [`Kind::SeededPublicKey`]) carry
//! an 8-byte expansion seed followed by `c0` alone; the receiver rebuilds
//! the uniform component with [`crate::sampling::expand_uniform`],
//! nearly halving upload bytes (`8 + live·n·8` payload instead of
//! `2·live·n·8`). A [`Kind::SeededGaloisKeys`] set carries one seed per
//! key beside its `k0`s; [`crate::keys::SeededGaloisKeys::expand`]
//! rebuilds every pair's `a` from it. Seeded ciphertexts are level-0 by
//! construction (only fresh encryptions have a uniform `c1`; anything
//! key-switched or mod-switched does not). Version negotiation is per
//! message: a ciphertext decoder accepts both formats by kind — version 1
//! for the full kind, version 2 for seeded kinds.
//!
//! `decode_*` enforces, in order and **before any arithmetic**: length,
//! magic/version/kind, fingerprint match against the session's
//! [`BfvParams`] ([`crate::Error::ChainMismatch`]), level validity
//! ([`crate::Error::InvalidLevel`]), header self-consistency, and
//! canonical residues (`c < q_i` on every limb plane,
//! [`crate::Error::Malformed`]). What validation cannot see — a payload
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
use crate::keys::{
    check_galois_element, key_half_bytes, PublicKey, SeededGaloisKey, SeededGaloisKeys,
};
use crate::noise::NoiseEstimate;
use crate::params::BfvParams;
use crate::poly::Representation;
use crate::rns::RnsPoly;

pub mod faults;

/// Wire magic: the first four bytes of every message.
pub const MAGIC: [u8; 4] = *b"CHWF";
/// Format version of full (two-polynomial) messages.
pub const VERSION: u16 = 1;
/// Format version of seeded (seed + one polynomial) messages.
pub const SEEDED_VERSION: u16 = 2;
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
/// decode as unknown and are never reused, so every surviving message
/// keeps its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A BFV ciphertext (two evaluation-form polynomials).
    Ciphertext = 1,
    /// A fresh seeded ciphertext: 8-byte expansion seed + `c0` (v2).
    SeededCiphertext = 5,
    /// A seeded public key: 8-byte expansion seed + `pk0` (v2).
    SeededPublicKey = 6,
    /// A seeded Galois key set: per key its element, an 8-byte expansion
    /// seed and the pairs' `k0` (v2).
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

    /// The format version a kind is defined in: seeded kinds are v2, the
    /// full ciphertext v1. Decoders hold each message to its kind's
    /// version — that pairing *is* the version negotiation.
    fn version(self) -> u16 {
        match self {
            Kind::Ciphertext => VERSION,
            Kind::SeededCiphertext | Kind::SeededPublicKey | Kind::SeededGaloisKeys => {
                SEEDED_VERSION
            }
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

fn push_words(out: &mut Vec<u8>, words: &[u64]) {
    out.reserve(words.len() * 8);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn write_header(out: &mut Vec<u8>, kind: Kind, fingerprint: u64, level: usize, live: usize) {
    out.extend_from_slice(&MAGIC);
    push_u16(out, kind.version());
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

    fn words(&mut self, count: usize) -> Result<Vec<u64>> {
        let s = self.take(count * 8)?;
        let mut out = Vec::with_capacity(count);
        let mut w = [0u8; 8];
        for chunk in s.chunks_exact(8) {
            w.copy_from_slice(chunk);
            out.push(u64::from_le_bytes(w));
        }
        Ok(out)
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
    if version != VERSION && version != SEEDED_VERSION {
        return Err(malformed(
            what,
            format!(
                "unsupported format version {version} (this engine speaks {VERSION} and {SEEDED_VERSION})"
            ),
        ));
    }
    if version != kind.version() {
        return Err(malformed(
            what,
            format!(
                "format version {version} where {kind:?} is a version-{} kind",
                kind.version()
            ),
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

/// Errors unless every word of every live limb plane is a canonical
/// residue (`< q_i`). Runs before the words reach any arithmetic.
fn check_canonical(
    words: &[u64],
    chain: &crate::rns::ModulusChain,
    live: usize,
    what: &'static str,
) -> Result<()> {
    let n = chain.degree();
    for i in 0..live {
        let q = chain.modulus(i).value();
        let plane = words
            .get(i * n..(i + 1) * n)
            .ok_or_else(|| malformed(what, format!("limb plane {i} missing from payload")))?;
        if let Some(j) = plane.iter().position(|&w| w >= q) {
            return Err(malformed(
                what,
                format!(
                    "non-canonical residue {} >= q_{i} = {q} at coefficient {j}",
                    plane[j]
                ),
            ));
        }
    }
    Ok(())
}

/// Reads one evaluation-form polynomial of `live` planes, canonical-checks
/// it, and assembles the `RnsPoly`.
fn read_poly(
    r: &mut Reader<'_>,
    params: &BfvParams,
    live: usize,
    repr: Representation,
) -> Result<RnsPoly> {
    read_poly_on(r, params.chain(), live, repr)
}

/// [`read_poly`] against an explicit chain — a hybrid Galois key's `k0`s
/// live on the `P`-extended key-switch chain, whose last plane is canonical
/// against the special prime, not any data limb.
fn read_poly_on(
    r: &mut Reader<'_>,
    chain: &crate::rns::ModulusChain,
    live: usize,
    repr: Representation,
) -> Result<RnsPoly> {
    let n = chain.degree();
    let words = r.words(live * n)?;
    check_canonical(&words, chain, live, r.what)?;
    Ok(RnsPoly::from_data(words, live, n, repr))
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

/// Exact encoded size of a level-`level` ciphertext:
/// header + the `2·live·n·8` payload the transcript accounting charges.
pub fn ciphertext_wire_bytes(params: &BfvParams, level: usize) -> usize {
    HEADER_BYTES + 2 * params.live_limbs_at(level) * params.degree() * 8
}

/// Encodes a ciphertext canonically: header, then `c0` and `c1` words in
/// limb-major little-endian order.
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
    push_words(&mut out, ct.c0().data());
    push_words(&mut out, ct.c1().data());
    out
}

/// Exact encoded size of a seeded (fresh, level-0) ciphertext:
/// header + 8-byte seed + the single `c0` polynomial.
pub fn seeded_ciphertext_wire_bytes(params: &BfvParams) -> usize {
    HEADER_BYTES + SEED_BYTES + params.limbs() * params.degree() * 8
}

/// Encodes a fresh symmetric ciphertext in the seeded v2 format: header,
/// the 8-byte seed, then `c0` alone — `c1` is implied by the seed. The
/// encoder *proves* the compression is lossless before shipping it:
/// re-expanding `seed` must reproduce `c1` bit-for-bit (the pair comes
/// from [`crate::Encryptor::encrypt_seeded`]).
///
/// # Errors
///
/// [`Error::Malformed`] if the ciphertext is not level-0 (only fresh
/// encryptions have a PRNG-uniform `c1`) or if `seed` does not expand to
/// this ciphertext's `c1`.
pub fn encode_ciphertext_seeded(ct: &Ciphertext, seed: u64) -> Result<Vec<u8>> {
    let what = "seeded ciphertext";
    let params = ct.params();
    if ct.level() != 0 {
        return Err(malformed(
            what,
            format!(
                "only fresh level-0 ciphertexts ship seeded, this one is level {}",
                ct.level()
            ),
        ));
    }
    let a = crate::sampling::expand_uniform(seed, params.chain());
    if ct.c1() != &a {
        return Err(malformed(
            what,
            "seed does not regenerate c1 — refusing a lossy encoding".to_string(),
        ));
    }
    let mut out = Vec::with_capacity(seeded_ciphertext_wire_bytes(params));
    write_header(
        &mut out,
        Kind::SeededCiphertext,
        chain_fingerprint(params),
        0,
        params.limbs(),
    );
    push_u64(&mut out, seed);
    push_words(&mut out, ct.c0().data());
    Ok(out)
}

fn decode_ciphertext_seeded(bytes: &[u8], params: &BfvParams) -> Result<Ciphertext> {
    let what = "seeded ciphertext";
    let mut r = Reader::new(bytes, what);
    let h = read_header(&mut r, Kind::SeededCiphertext, params)?;
    if h.level != 0 {
        return Err(malformed(
            what,
            format!(
                "seeded ciphertexts are fresh level-0 objects, header claims level {}",
                h.level
            ),
        ));
    }
    let expect = seeded_ciphertext_wire_bytes(params);
    if bytes.len() != expect {
        return Err(malformed(
            what,
            format!("needs exactly {expect} bytes, message has {}", bytes.len()),
        ));
    }
    let seed = r.u64()?;
    let c0 = read_poly(&mut r, params, h.live, Representation::Eval)?;
    expect_consumed(&r)?;
    let c1 = crate::sampling::expand_uniform(seed, params.chain());
    Ciphertext::try_new(c0, c1, params.clone(), NoiseEstimate::fresh(params))
}

/// Decodes and fully validates a ciphertext against the session's
/// parameters, accepting both the full v1 format and the seeded v2
/// format (dispatching on the header's kind byte). See the module docs
/// for the check order; nothing is constructed before every check
/// passes.
///
/// The returned ciphertext carries the fresh-encryption noise estimate
/// (estimates are never trusted from the wire).
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
    let c0 = read_poly(&mut r, params, h.live, Representation::Eval)?;
    let c1 = read_poly(&mut r, params, h.live, Representation::Eval)?;
    expect_consumed(&r)?;
    Ciphertext::try_new(c0, c1, params.clone(), NoiseEstimate::fresh(params))
}

/// Splits a buffer of back-to-back ciphertext messages into individual
/// message slices, using each header's kind and level fields to compute
/// the exact message length (full v1 messages are sized by level; seeded
/// v2 messages have one fixed level-0 size). Only the *framing* is
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
        let len = match Kind::from_u8(header[OFF_KIND]) {
            Some(Kind::SeededCiphertext) => seeded_ciphertext_wire_bytes(params),
            Some(Kind::Ciphertext) => {
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
                ciphertext_wire_bytes(params, level)
            }
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
/// single `pk0` polynomial.
pub fn seeded_public_key_wire_bytes(params: &BfvParams) -> usize {
    HEADER_BYTES + SEED_BYTES + params.limbs() * params.degree() * 8
}

/// Encodes a public key in the seeded v2 format: header, the 8-byte
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
    push_words(&mut out, pk.pk0().data());
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
    let pk0 = read_poly(&mut r, params, h.live, Representation::Eval)?;
    expect_consumed(&r)?;
    let pk1 = crate::sampling::expand_uniform(seed, params.chain());
    Ok(PublicKey::from_parts(pk0, pk1, params.clone()))
}

// ---------------------------------------------------------------------
// Galois key sets
// ---------------------------------------------------------------------

/// Exact encoded size of a `count`-key seeded Galois key set: header, key
/// count, then per key its element word, its seed, and `ks_digits_at(0)`
/// `k0` polynomials over the `ks_chain_at(0)` planes — half the pair
/// material the expanded [`crate::GaloisKeys::byte_size`] holds.
pub fn seeded_galois_keys_wire_bytes(params: &BfvParams, count: usize) -> usize {
    HEADER_BYTES + 4 + count * (8 + SEED_BYTES + key_half_bytes(params))
}

/// Encodes a seeded Galois key set canonically (version 2): keys in
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
    for key in keys.iter() {
        push_u64(&mut out, key.element);
        push_u64(&mut out, key.seed);
        for k0 in key.k0() {
            push_words(&mut out, k0.data());
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
            .map(|_| read_poly_on(&mut r, ks, ks.limbs(), Representation::Eval))
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
        assert_eq!(bytes.len() - HEADER_BYTES, ct.byte_size());
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
        bytes[HEADER_BYTES..HEADER_BYTES + 8].copy_from_slice(&q.to_le_bytes());
        match decode_ciphertext(&bytes, &params) {
            Err(Error::Malformed { reason, .. }) => {
                assert!(reason.contains("non-canonical"), "{reason}");
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
            assert_eq!(bytes.len(), seeded_ciphertext_wire_bytes(&params));
            // Payload is seed + c0: (slightly over) half the full payload.
            assert_eq!(bytes.len() - HEADER_BYTES, SEED_BYTES + ct.byte_size() / 2);
            assert!(bytes.len() < ciphertext_wire_bytes(&params, 0));

            // The generic decoder dispatches on kind and rebuilds c1.
            let back = decode_ciphertext(&bytes, &params).unwrap();
            assert_eq!(back.c0().data(), ct.c0().data());
            assert_eq!(back.c1().data(), ct.c1().data());

            // Old full format still encodes/decodes the same ciphertext.
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
    }

    #[test]
    fn seeded_decode_validates_before_expansion() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let kg = KeyGenerator::from_seed(params.clone(), 26);
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 27);
        let (ct, seed) = enc.encrypt_seeded(&encoder.encode(&[6]).unwrap()).unwrap();
        let bytes = encode_ciphertext_seeded(&ct, seed).unwrap();

        // Version/kind pairing: a seeded kind with a v1 version field.
        let mut bad_version = bytes.clone();
        bad_version[OFF_VERSION..OFF_VERSION + 2].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            decode_ciphertext(&bad_version, &params),
            Err(Error::Malformed { .. })
        ));
        // And the converse: a full kind claiming v2.
        let full = encode_ciphertext(&ct);
        let mut bad_full = full.clone();
        bad_full[OFF_VERSION..OFF_VERSION + 2].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(
            decode_ciphertext(&bad_full, &params),
            Err(Error::Malformed { .. })
        ));
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
        let off = HEADER_BYTES + SEED_BYTES;
        bad[off..off + 8].copy_from_slice(&q.to_le_bytes());
        match decode_ciphertext(&bad, &params) {
            Err(Error::Malformed { reason, .. }) => {
                assert!(reason.contains("non-canonical"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // A non-zero level in a seeded header is structurally invalid.
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
        assert_eq!(bytes.len() - HEADER_BYTES, SEED_BYTES + pk.byte_size() / 2);
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
        // Element + seed per key, and half the expanded pair material.
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + 4 + keys.len() * 16 + expanded.byte_size(&params) / 2
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
