//! CXL 1.1 flit-level packing.
//!
//! CXL.cache/CXL.mem carry protocol messages in flits of four 128-bit
//! slots framed by a header and a 16-bit CRC — 544 bits (68 bytes) on the
//! wire in this layout (the x16 flit format). This module implements a
//! representative packing — field widths (5-bit opcodes, 12-bit CQID
//! tags, 46-bit line addresses) follow the specification's message
//! definitions — with exact encode/decode round-tripping, so higher
//! layers can account link bytes faithfully.

use crate::request::D2hOpcode;

/// Bytes per flit on the wire (544 bits: 2-byte header + four 16-byte
/// slots + 2-byte CRC).
pub const FLIT_BYTES: usize = 68;

/// Bytes per slot (128 bits).
pub(crate) const SLOT_BYTES: usize = 16;

/// A protocol message or data chunk occupying one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// No message (protocol idle / LLCRD).
    Empty,
    /// A D2H request: opcode + CQID tag + 46-bit cache-line address.
    D2hReq {
        /// The CXL.cache opcode.
        opcode: D2hOpcode,
        /// Command queue ID (12 bits).
        cqid: u16,
        /// Cache-line address (46 bits — 52-bit byte address space).
        addr: u64,
    },
    /// An H2D response: CQID + response code.
    H2dResp {
        /// The request's CQID (12 bits).
        cqid: u16,
        /// Response encoding (4 bits; GO / GO-I / WritePull...).
        code: u8,
    },
    /// 16 bytes of a 64-byte data transfer (4 slots per line).
    Data([u8; SLOT_BYTES]),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Empty = 0,
    D2hReq = 1,
    H2dResp = 2,
    Data = 3,
}

impl SlotKind {
    fn from_bits(b: u8) -> Option<SlotKind> {
        match b {
            0 => Some(SlotKind::Empty),
            1 => Some(SlotKind::D2hReq),
            2 => Some(SlotKind::H2dResp),
            3 => Some(SlotKind::Data),
            _ => None,
        }
    }
}

fn opcode_bits(op: D2hOpcode) -> u8 {
    match op {
        D2hOpcode::RdCurr => 0x01,
        D2hOpcode::RdOwn => 0x02,
        D2hOpcode::RdShared => 0x03,
        D2hOpcode::RdOwnNoData => 0x04,
        D2hOpcode::WrCur => 0x05,
        D2hOpcode::ItoMWr => 0x06,
        D2hOpcode::CleanEvict => 0x07,
        D2hOpcode::DirtyEvict => 0x08,
    }
}

fn opcode_from_bits(b: u8) -> Option<D2hOpcode> {
    Some(match b {
        0x01 => D2hOpcode::RdCurr,
        0x02 => D2hOpcode::RdOwn,
        0x03 => D2hOpcode::RdShared,
        0x04 => D2hOpcode::RdOwnNoData,
        0x05 => D2hOpcode::WrCur,
        0x06 => D2hOpcode::ItoMWr,
        0x07 => D2hOpcode::CleanEvict,
        0x08 => D2hOpcode::DirtyEvict,
        _ => return None,
    })
}

/// Error decoding a flit from wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitError {
    /// CRC mismatch.
    BadCrc {
        /// CRC carried in the flit.
        carried: u16,
        /// CRC computed over the slots.
        computed: u16,
    },
    /// Unknown slot-format encoding.
    BadSlotFormat(u8),
    /// Unknown opcode encoding within a slot.
    BadOpcode(u8),
}

impl core::fmt::Display for FlitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlitError::BadCrc { carried, computed } => {
                write!(
                    f,
                    "flit CRC mismatch: carried {carried:#06x}, computed {computed:#06x}"
                )
            }
            FlitError::BadSlotFormat(b) => write!(f, "unknown slot format {b:#x}"),
            FlitError::BadOpcode(b) => write!(f, "unknown opcode encoding {b:#x}"),
        }
    }
}

impl std::error::Error for FlitError {}

/// A 544-bit CXL flit: header + four slots + CRC-16.
///
/// # Examples
///
/// ```
/// use cxl_proto::flit::{Flit, Slot};
/// use cxl_proto::request::D2hOpcode;
///
/// let flit = Flit::new([
///     Slot::D2hReq { opcode: D2hOpcode::RdShared, cqid: 42, addr: 0x1234 },
///     Slot::Data([0xAB; 16]),
///     Slot::Empty,
///     Slot::Empty,
/// ]);
/// let wire = flit.encode();
/// assert_eq!(Flit::decode(&wire).unwrap(), flit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    slots: [Slot; 4],
    poisoned: bool,
}

impl Flit {
    /// Builds a flit from four slots (not poisoned).
    pub fn new(slots: [Slot; 4]) -> Self {
        Flit {
            slots,
            poisoned: false,
        }
    }

    /// CRC-16/CCITT over the slot bytes (the spec's CRC polynomial family).
    fn crc16(bytes: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &b in bytes {
            crc ^= u16::from(b) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    fn encode_slot(slot: &Slot, out: &mut [u8]) {
        out.fill(0);
        match slot {
            Slot::Empty => {}
            Slot::D2hReq { opcode, cqid, addr } => {
                out[0] = opcode_bits(*opcode);
                out[1..3].copy_from_slice(&(cqid & 0x0FFF).to_le_bytes());
                // 46-bit line address in 6 bytes.
                let a = addr & ((1 << 46) - 1);
                out[3..9].copy_from_slice(&a.to_le_bytes()[..6]);
            }
            Slot::H2dResp { cqid, code } => {
                out[0] = code & 0x0F;
                out[1..3].copy_from_slice(&(cqid & 0x0FFF).to_le_bytes());
            }
            Slot::Data(d) => out.copy_from_slice(d),
        }
    }

    fn decode_slot(kind: SlotKind, bytes: &[u8]) -> Result<Slot, FlitError> {
        Ok(match kind {
            SlotKind::Empty => Slot::Empty,
            SlotKind::D2hReq => {
                let opcode = opcode_from_bits(bytes[0]).ok_or(FlitError::BadOpcode(bytes[0]))?;
                let cqid = u16::from_le_bytes(bytes[1..3].try_into().expect("2 bytes")) & 0x0FFF;
                let mut a = [0u8; 8];
                a[..6].copy_from_slice(&bytes[3..9]);
                Slot::D2hReq {
                    opcode,
                    cqid,
                    addr: u64::from_le_bytes(a),
                }
            }
            SlotKind::H2dResp => {
                let code = bytes[0] & 0x0F;
                let cqid = u16::from_le_bytes(bytes[1..3].try_into().expect("2 bytes")) & 0x0FFF;
                Slot::H2dResp { cqid, code }
            }
            SlotKind::Data => Slot::Data(bytes.try_into().expect("slot is 16 bytes")),
        })
    }

    /// Serializes to the 68-byte wire format.
    pub fn encode(&self) -> [u8; FLIT_BYTES] {
        let mut out = [0u8; FLIT_BYTES];
        // Byte 0: slot-format vector (2 bits per slot).
        let mut fmt = 0u8;
        for (i, slot) in self.slots.iter().enumerate() {
            let kind = match slot {
                Slot::Empty => SlotKind::Empty,
                Slot::D2hReq { .. } => SlotKind::D2hReq,
                Slot::H2dResp { .. } => SlotKind::H2dResp,
                Slot::Data(_) => SlotKind::Data,
            };
            fmt |= (kind as u8) << (2 * i);
        }
        out[0] = fmt;
        // Byte 1: header metadata — bit 0 carries the poison bit, the
        // rest is reserved (credits/ak in the real format). The CRC
        // covers this byte, so poison survives link corruption checks.
        out[1] = u8::from(self.poisoned);
        for (i, slot) in self.slots.iter().enumerate() {
            let start = 2 + i * SLOT_BYTES;
            Self::encode_slot(slot, &mut out[start..start + SLOT_BYTES]);
        }
        let crc = Self::crc16(&out[..FLIT_BYTES - 2]);
        out[FLIT_BYTES - 2..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes from the wire format, verifying the CRC.
    ///
    /// # Errors
    ///
    /// Returns [`FlitError`] on CRC mismatch or unknown encodings.
    pub fn decode(wire: &[u8; FLIT_BYTES]) -> Result<Flit, FlitError> {
        let carried = u16::from_le_bytes(wire[FLIT_BYTES - 2..].try_into().expect("2 bytes"));
        let computed = Self::crc16(&wire[..FLIT_BYTES - 2]);
        if carried != computed {
            return Err(FlitError::BadCrc { carried, computed });
        }
        let fmt = wire[0];
        let mut slots = [Slot::Empty; 4];
        for (i, slot) in slots.iter_mut().enumerate() {
            let bits = (fmt >> (2 * i)) & 0b11;
            let kind = SlotKind::from_bits(bits).ok_or(FlitError::BadSlotFormat(bits))?;
            let start = 2 + i * SLOT_BYTES;
            *slot = Self::decode_slot(kind, &wire[start..start + SLOT_BYTES])?;
        }
        Ok(Flit {
            slots,
            poisoned: wire[1] & 1 != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_slot_kinds() {
        let flit = Flit::new([
            Slot::D2hReq {
                opcode: D2hOpcode::ItoMWr,
                cqid: 0x0ABC,
                addr: (1 << 46) - 5,
            },
            Slot::H2dResp { cqid: 7, code: 0x3 },
            Slot::Data([0x5A; 16]),
            Slot::Empty,
        ]);
        let wire = flit.encode();
        assert_eq!(Flit::decode(&wire).unwrap(), flit);
    }

    #[test]
    fn crc_detects_corruption() {
        let flit = Flit::new([Slot::Data([1; 16]), Slot::Empty, Slot::Empty, Slot::Empty]);
        let mut wire = flit.encode();
        wire[5] ^= 0x40;
        match Flit::decode(&wire) {
            Err(FlitError::BadCrc { .. }) => {}
            other => panic!("expected CRC error, got {other:?}"),
        }
    }

    #[test]
    fn cqid_and_addr_are_masked_to_field_widths() {
        let flit = Flit::new([
            Slot::D2hReq {
                opcode: D2hOpcode::RdOwn,
                cqid: 0xFFFF,
                addr: u64::MAX,
            },
            Slot::Empty,
            Slot::Empty,
            Slot::Empty,
        ]);
        let decoded = Flit::decode(&flit.encode()).unwrap();
        match decoded.slots[0] {
            Slot::D2hReq { cqid, addr, .. } => {
                assert_eq!(cqid, 0x0FFF, "12-bit CQID");
                assert_eq!(addr, (1 << 46) - 1, "46-bit address");
            }
            other => panic!("wrong slot {other:?}"),
        }
    }

    #[test]
    fn poison_bit_roundtrips_and_is_crc_covered() {
        let clean = Flit::new([Slot::Data([7; 16]), Slot::Empty, Slot::Empty, Slot::Empty]);
        let poisoned = Flit {
            poisoned: true,
            ..clean
        };
        assert_eq!(Flit::decode(&poisoned.encode()).unwrap(), poisoned);
        assert_ne!(clean.encode(), poisoned.encode());
        // Flipping the poison bit on the wire must trip the CRC — poison
        // cannot be silently gained or lost to link corruption.
        let mut wire = clean.encode();
        wire[1] ^= 1;
        assert!(matches!(Flit::decode(&wire), Err(FlitError::BadCrc { .. })));
    }

    #[test]
    fn all_opcodes_roundtrip() {
        for op in [
            D2hOpcode::RdCurr,
            D2hOpcode::RdOwn,
            D2hOpcode::RdShared,
            D2hOpcode::RdOwnNoData,
            D2hOpcode::WrCur,
            D2hOpcode::ItoMWr,
            D2hOpcode::CleanEvict,
            D2hOpcode::DirtyEvict,
        ] {
            let f = Flit::new([
                Slot::D2hReq {
                    opcode: op,
                    cqid: 1,
                    addr: 64,
                },
                Slot::Empty,
                Slot::Empty,
                Slot::Empty,
            ]);
            let d = Flit::decode(&f.encode()).unwrap();
            match d.slots[0] {
                Slot::D2hReq { opcode, .. } => assert_eq!(opcode, op),
                _ => panic!("slot kind lost"),
            }
        }
    }
}
