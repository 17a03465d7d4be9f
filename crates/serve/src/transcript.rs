//! Communication accounting for the private-inference protocol.
//!
//! Cheetah explicitly scopes itself to the server-side HE compute and
//! "assumes the same communication overheads as Gazelle" (§II-A). The
//! transcript records those overheads so the assumption is a measured
//! quantity rather than a hand wave.

use std::fmt;

/// Who sent a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → cloud.
    ClientToCloud,
    /// Cloud → client.
    CloudToClient,
}

/// One protocol message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender.
    pub direction: Direction,
    /// Short description (e.g. `"enc activations L3"`).
    pub label: String,
    /// Accounted payload size in bytes: the encoded message(s) net of
    /// the 24-byte header each, the wire module's payload size (every
    /// residue packed at its limb's width).
    pub bytes: usize,
    /// The actual encoded message, when the sender captured it
    /// (`cheetah_bfv::wire` format). Empty for size-only records; the
    /// fault-injection harness replays and corrupts these.
    pub payload: Vec<u8>,
}

/// A full protocol transcript.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    messages: Vec<Message>,
}

impl Transcript {
    /// Creates an empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a size-only message (no captured payload).
    pub fn record(&mut self, direction: Direction, label: impl Into<String>, bytes: usize) {
        self.messages.push(Message {
            direction,
            label: label.into(),
            bytes,
            payload: Vec::new(),
        });
    }

    /// Records a message together with its encoded wire payload, keeping
    /// the accounted size (`bytes`) net of the wire framing.
    pub fn record_with_payload(
        &mut self,
        direction: Direction,
        label: impl Into<String>,
        bytes: usize,
        payload: Vec<u8>,
    ) {
        self.messages.push(Message {
            direction,
            label: label.into(),
            bytes,
            payload,
        });
    }

    /// All messages in order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Total bytes sent client → cloud.
    pub fn upload_bytes(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.direction == Direction::ClientToCloud)
            .map(|m| m.bytes)
            .sum()
    }

    /// Total bytes sent cloud → client.
    pub fn download_bytes(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.direction == Direction::CloudToClient)
            .map(|m| m.bytes)
            .sum()
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> usize {
        self.upload_bytes() + self.download_bytes()
    }

    /// Number of protocol rounds (client→cloud messages).
    pub fn rounds(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.direction == Direction::ClientToCloud)
            .count()
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "transcript: {} messages, {:.1} KiB up, {:.1} KiB down",
            self.messages.len(),
            self.upload_bytes() as f64 / 1024.0,
            self.download_bytes() as f64 / 1024.0
        )?;
        for m in &self.messages {
            let arrow = match m.direction {
                Direction::ClientToCloud => "->",
                Direction::CloudToClient => "<-",
            };
            writeln!(f, "  {arrow} {:<28} {:>10} B", m.label, m.bytes)?;
        }
        Ok(())
    }
}

/// Rough size model for a garbled circuit evaluating `values` numbers of
/// `bits` precision: ~2 AND gates per bit for compare/select, 32 bytes of
/// wire label material per gate (free-XOR, half-gates).
pub fn garbled_circuit_bytes(values: usize, bits: u32) -> usize {
    values * bits as usize * 2 * 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_split_by_direction() {
        let mut t = Transcript::new();
        t.record(Direction::ClientToCloud, "a", 100);
        t.record(Direction::CloudToClient, "b", 40);
        t.record(Direction::ClientToCloud, "c", 10);
        assert_eq!(t.upload_bytes(), 110);
        assert_eq!(t.download_bytes(), 40);
        assert_eq!(t.total_bytes(), 150);
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.messages().len(), 3);
        let rendered = t.to_string();
        assert!(rendered.contains("3 messages"));
        assert!(rendered.contains("->"));
    }

    #[test]
    fn gc_size_model() {
        assert_eq!(garbled_circuit_bytes(10, 16), 10 * 16 * 64);
    }
}
