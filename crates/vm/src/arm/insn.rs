//! A32 instruction forms and the decoder.

use std::error::Error;
use std::fmt;

/// One decoded A32 instruction (condition field is always `AL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Insn {
    /// `mov rd, #imm`.
    MovImm {
        /// Destination register.
        rd: u8,
        /// Decoded (rotated) immediate.
        imm: u32,
    },
    /// `mvn rd, #imm`.
    MvnImm {
        /// Destination register.
        rd: u8,
        /// Decoded immediate (stored un-negated).
        imm: u32,
    },
    /// `mov rd, rm` — `mov r1, r1` is the paper's ARM NOP.
    MovReg {
        /// Destination register.
        rd: u8,
        /// Source register.
        rm: u8,
    },
    /// `add rd, rn, #imm`.
    AddImm {
        /// Destination register.
        rd: u8,
        /// Base register.
        rn: u8,
        /// Decoded immediate.
        imm: u32,
    },
    /// `sub rd, rn, #imm`.
    SubImm {
        /// Destination register.
        rd: u8,
        /// Base register.
        rn: u8,
        /// Decoded immediate.
        imm: u32,
    },
    /// `orr rd, rn, #imm`.
    OrrImm {
        /// Destination register.
        rd: u8,
        /// First operand register.
        rn: u8,
        /// Decoded immediate.
        imm: u32,
    },
    /// `and rd, rn, #imm`.
    AndImm {
        /// Destination register.
        rd: u8,
        /// First operand register.
        rn: u8,
        /// Decoded immediate.
        imm: u32,
    },
    /// `eor rd, rn, #imm`.
    EorImm {
        /// Destination register.
        rd: u8,
        /// First operand register.
        rn: u8,
        /// Decoded immediate.
        imm: u32,
    },
    /// `lsl rd, rm, #shift` (`mov` with an immediate shift).
    LslImm {
        /// Destination register.
        rd: u8,
        /// Source register.
        rm: u8,
        /// Shift amount (1..=31).
        shift: u8,
    },
    /// `cmp rn, #imm`.
    CmpImm {
        /// Left-hand register.
        rn: u8,
        /// Decoded immediate.
        imm: u32,
    },
    /// `ldr rd, [rn, #offset]`.
    Ldr {
        /// Destination register.
        rd: u8,
        /// Base register.
        rn: u8,
        /// Signed byte offset.
        offset: i32,
    },
    /// `str rd, [rn, #offset]`.
    Str {
        /// Source register.
        rd: u8,
        /// Base register.
        rn: u8,
        /// Signed byte offset.
        offset: i32,
    },
    /// `ldrb rd, [rn, #offset]`.
    Ldrb {
        /// Destination register (byte zero-extended).
        rd: u8,
        /// Base register.
        rn: u8,
        /// Signed byte offset.
        offset: i32,
    },
    /// `strb rd, [rn, #offset]`.
    Strb {
        /// Source register (low byte stored).
        rd: u8,
        /// Base register.
        rn: u8,
        /// Signed byte offset.
        offset: i32,
    },
    /// `push {..}` (`stmdb sp!, {..}`).
    Push {
        /// Register list bitmap (bit n = rn).
        list: u16,
    },
    /// `pop {..}` (`ldmia sp!, {..}`) — with bit 15 set this is the
    /// gadget terminator and function return of the ARM exploits.
    Pop {
        /// Register list bitmap (bit n = rn).
        list: u16,
    },
    /// `bx rm`.
    Bx {
        /// Target register.
        rm: u8,
    },
    /// `blx rm` — the trampoline the ARM ROP chain uses to call
    /// `memcpy@plt` and come back.
    Blx {
        /// Target register.
        rm: u8,
    },
    /// `b target` (offset is bytes relative to this instruction + 8).
    B {
        /// Branch offset in bytes from `pc + 8`.
        offset: i32,
    },
    /// `bl target`.
    Bl {
        /// Branch offset in bytes from `pc + 8`.
        offset: i32,
    },
    /// `beq target` (condition EQ).
    BEq {
        /// Branch offset in bytes from `pc + 8`.
        offset: i32,
    },
    /// `bne target` (condition NE).
    BNe {
        /// Branch offset in bytes from `pc + 8`.
        offset: i32,
    },
    /// `svc #imm` — the EABI syscall gate.
    Svc {
        /// Comment field.
        imm: u32,
    },
}

/// Why a word failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than four bytes were available.
    Truncated,
    /// The word is not in the supported subset (includes any condition
    /// other than `AL`).
    Unsupported(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction word truncated"),
            DecodeError::Unsupported(w) => write!(f, "unsupported instruction {w:#010x}"),
        }
    }
}

impl Error for DecodeError {}

/// Expands the 12-bit rotated-immediate field.
fn decode_imm12(imm12: u32) -> u32 {
    let rotate = (imm12 >> 8) & 0xF;
    let imm8 = imm12 & 0xFF;
    imm8.rotate_right(rotate * 2)
}

/// Encodes `value` as a rotated immediate, if possible.
pub(crate) fn encode_imm12(value: u32) -> Option<u32> {
    for rotate in 0..16u32 {
        let rotated = value.rotate_left(rotate * 2);
        if rotated <= 0xFF {
            return Some((rotate << 8) | rotated);
        }
    }
    None
}

/// The register numbers of a register-list bitmap, ascending, read
/// off the bits without allocating (`list.count_ones()` of them).
pub fn reg_list(list: u16) -> impl Iterator<Item = u8> + Clone {
    (0..16).filter(move |i| list & (1 << i) != 0)
}

/// Decodes one A32 word via the declarative [`A32_RULES`] table.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] if fewer than 4 bytes are given, or
/// [`DecodeError::Unsupported`] for words outside the subset.
pub fn decode(bytes: &[u8]) -> Result<(Insn, usize), DecodeError> {
    decode_with(bytes, decode_word)
}

/// The original hand-rolled decoder, retained as the reference
/// implementation for the decode-table differential tests and the
/// table-vs-hand-rolled bench ablation.
///
/// # Errors
///
/// Same contract as [`decode`].
pub fn decode_reference(bytes: &[u8]) -> Result<(Insn, usize), DecodeError> {
    decode_with(bytes, decode_word_reference)
}

/// Shared front half: byte window → word, condition-field handling
/// (EQ/NE branches are the only conditional forms), then the AL word
/// decoder.
fn decode_with(
    bytes: &[u8],
    word_decoder: fn(u32) -> Option<Insn>,
) -> Result<(Insn, usize), DecodeError> {
    if bytes.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    let w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let cond = w >> 28;
    // Conditional execution is supported for branches only (EQ/NE);
    // everything else must be AL.
    if cond != 0xE {
        if (cond == 0x0 || cond == 0x1) && w & 0x0F00_0000 == 0x0A00_0000 {
            let imm24 = w & 0x00FF_FFFF;
            let offset = ((imm24 << 8) as i32 >> 8) << 2;
            let insn = if cond == 0x0 {
                Insn::BEq { offset }
            } else {
                Insn::BNe { offset }
            };
            return Ok((insn, 4));
        }
        return Err(DecodeError::Unsupported(w));
    }
    let insn = word_decoder(w).ok_or(DecodeError::Unsupported(w))?;
    Ok((insn, 4))
}

fn decode_word(w: u32) -> Option<Insn> {
    crate::decoder::find(A32_RULES, w).and_then(|r| (r.decode)(w))
}

/// Extracts a single-register ldr/str/ldrb/strb (P=1, W=0 immediate
/// addressing; the U bit stays variable and signs the offset).
fn ldst(w: u32, load: bool, byte: bool) -> Insn {
    let up = w & (1 << 23) != 0;
    let rn = ((w >> 16) & 0xF) as u8;
    let rd = ((w >> 12) & 0xF) as u8;
    let imm = (w & 0xFFF) as i32;
    let offset = if up { imm } else { -imm };
    match (load, byte) {
        (true, false) => Insn::Ldr { rd, rn, offset },
        (false, false) => Insn::Str { rd, rn, offset },
        (true, true) => Insn::Ldrb { rd, rn, offset },
        (false, true) => Insn::Strb { rd, rn, offset },
    }
}

/// Extracts `rd`, `rn` and the rotated immediate of a data-processing
/// immediate form.
fn dp_imm(w: u32) -> (u8, u8, u32) {
    (
        ((w >> 12) & 0xF) as u8,
        ((w >> 16) & 0xF) as u8,
        decode_imm12(w & 0xFFF),
    )
}

/// Sign-extends the 24-bit branch field to a byte offset.
fn branch_offset(w: u32) -> i32 {
    (((w & 0x00FF_FFFF) << 8) as i32 >> 8) << 2
}

crate::decode_table! {
    /// The A32 (condition `AL`) subset as a declarative table. Rule
    /// order mirrors the reference decoder's match order; the
    /// first-match-wins contract makes the two interchangeable.
    pub static A32_RULES: u32 => fn(u32) -> Option<Insn> {
        "bx"   => (0x0FFF_FFF0, 0x012F_FF10, |w| Some(Insn::Bx { rm: (w & 0xF) as u8 })),
        "blx"  => (0x0FFF_FFF0, 0x012F_FF30, |w| Some(Insn::Blx { rm: (w & 0xF) as u8 })),
        "svc"  => (0x0F00_0000, 0x0F00_0000, |w| Some(Insn::Svc { imm: w & 0x00FF_FFFF })),
        "b"    => (0x0F00_0000, 0x0A00_0000, |w| Some(Insn::B { offset: branch_offset(w) })),
        "bl"   => (0x0F00_0000, 0x0B00_0000, |w| Some(Insn::Bl { offset: branch_offset(w) })),
        "push" => (0x0FFF_0000, 0x092D_0000, |w| Some(Insn::Push { list: (w & 0xFFFF) as u16 })),
        "pop"  => (0x0FFF_0000, 0x08BD_0000, |w| Some(Insn::Pop { list: (w & 0xFFFF) as u16 })),
        "ldr"  => (0x0F70_0000, 0x0510_0000, |w| Some(ldst(w, true, false))),
        "str"  => (0x0F70_0000, 0x0500_0000, |w| Some(ldst(w, false, false))),
        "ldrb" => (0x0F70_0000, 0x0550_0000, |w| Some(ldst(w, true, true))),
        "strb" => (0x0F70_0000, 0x0540_0000, |w| Some(ldst(w, false, true))),
        "mov"  => (0x0FF0_0000, 0x03A0_0000, |w| {
            let (rd, _, imm) = dp_imm(w);
            Some(Insn::MovImm { rd, imm })
        }),
        "mvn"  => (0x0FF0_0000, 0x03E0_0000, |w| {
            let (rd, _, imm) = dp_imm(w);
            Some(Insn::MvnImm { rd, imm })
        }),
        "add"  => (0x0FF0_0000, 0x0280_0000, |w| {
            let (rd, rn, imm) = dp_imm(w);
            Some(Insn::AddImm { rd, rn, imm })
        }),
        "sub"  => (0x0FF0_0000, 0x0240_0000, |w| {
            let (rd, rn, imm) = dp_imm(w);
            Some(Insn::SubImm { rd, rn, imm })
        }),
        "orr"  => (0x0FF0_0000, 0x0380_0000, |w| {
            let (rd, rn, imm) = dp_imm(w);
            Some(Insn::OrrImm { rd, rn, imm })
        }),
        "and"  => (0x0FF0_0000, 0x0200_0000, |w| {
            let (rd, rn, imm) = dp_imm(w);
            Some(Insn::AndImm { rd, rn, imm })
        }),
        "eor"  => (0x0FF0_0000, 0x0220_0000, |w| {
            let (rd, rn, imm) = dp_imm(w);
            Some(Insn::EorImm { rd, rn, imm })
        }),
        "cmp"  => (0x0FF0_0000, 0x0350_0000, |w| {
            let (rd, rn, imm) = dp_imm(w);
            (rd == 0).then_some(Insn::CmpImm { rn, imm })
        }),
        "mov/lsl" => (0x0FFF_0070, 0x01A0_0000, |w| {
            let rd = ((w >> 12) & 0xF) as u8;
            let rm = (w & 0xF) as u8;
            let shift = ((w >> 7) & 0x1F) as u8;
            Some(if shift == 0 {
                Insn::MovReg { rd, rm }
            } else {
                Insn::LslImm { rd, rm, shift }
            })
        }),
    }
}

fn decode_word_reference(w: u32) -> Option<Insn> {
    // bx / blx (register form)
    if w & 0x0FFF_FFF0 == 0x012F_FF10 {
        return Some(Insn::Bx {
            rm: (w & 0xF) as u8,
        });
    }
    if w & 0x0FFF_FFF0 == 0x012F_FF30 {
        return Some(Insn::Blx {
            rm: (w & 0xF) as u8,
        });
    }
    // svc
    if w & 0x0F00_0000 == 0x0F00_0000 {
        return Some(Insn::Svc {
            imm: w & 0x00FF_FFFF,
        });
    }
    // b / bl
    if w & 0x0E00_0000 == 0x0A00_0000 {
        let imm24 = w & 0x00FF_FFFF;
        // Sign-extend 24 bits, shift to bytes.
        let offset = ((imm24 << 8) as i32 >> 8) << 2;
        return Some(if w & 0x0100_0000 != 0 {
            Insn::Bl { offset }
        } else {
            Insn::B { offset }
        });
    }
    // push (stmdb sp!) / pop (ldmia sp!)
    if w & 0x0FFF_0000 == 0x092D_0000 {
        return Some(Insn::Push {
            list: (w & 0xFFFF) as u16,
        });
    }
    if w & 0x0FFF_0000 == 0x08BD_0000 {
        return Some(Insn::Pop {
            list: (w & 0xFFFF) as u16,
        });
    }
    // ldr/str word or byte immediate, P=1 W=0 (offset addressing)
    if w & 0x0E00_0000 == 0x0400_0000 {
        let p = w & (1 << 24) != 0;
        let wbit = w & (1 << 21) != 0;
        if !p || wbit {
            return None;
        }
        let byte = w & (1 << 22) != 0;
        let up = w & (1 << 23) != 0;
        let load = w & (1 << 20) != 0;
        let rn = ((w >> 16) & 0xF) as u8;
        let rd = ((w >> 12) & 0xF) as u8;
        let imm = (w & 0xFFF) as i32;
        let offset = if up { imm } else { -imm };
        return Some(match (load, byte) {
            (true, false) => Insn::Ldr { rd, rn, offset },
            (false, false) => Insn::Str { rd, rn, offset },
            (true, true) => Insn::Ldrb { rd, rn, offset },
            (false, true) => Insn::Strb { rd, rn, offset },
        });
    }
    // data-processing immediate
    if w & 0x0E00_0000 == 0x0200_0000 {
        let opcode = (w >> 21) & 0xF;
        let s = w & (1 << 20) != 0;
        let rn = ((w >> 16) & 0xF) as u8;
        let rd = ((w >> 12) & 0xF) as u8;
        let imm = decode_imm12(w & 0xFFF);
        return match (opcode, s) {
            (0b1101, false) => Some(Insn::MovImm { rd, imm }),
            (0b1111, false) => Some(Insn::MvnImm { rd, imm }),
            (0b0100, false) => Some(Insn::AddImm { rd, rn, imm }),
            (0b0010, false) => Some(Insn::SubImm { rd, rn, imm }),
            (0b1100, false) => Some(Insn::OrrImm { rd, rn, imm }),
            (0b0000, false) => Some(Insn::AndImm { rd, rn, imm }),
            (0b0001, false) => Some(Insn::EorImm { rd, rn, imm }),
            (0b1010, true) if rd == 0 => Some(Insn::CmpImm { rn, imm }),
            _ => None,
        };
    }
    // mov register (no shift) / lsl immediate
    if w & 0x0FFF_0070 == 0x01A0_0000 {
        let rd = ((w >> 12) & 0xF) as u8;
        let rm = (w & 0xF) as u8;
        let shift = ((w >> 7) & 0x1F) as u8;
        return Some(if shift == 0 {
            Insn::MovReg { rd, rm }
        } else {
            Insn::LslImm { rd, rm, shift }
        });
    }
    None
}

fn fmt_reg(f: &mut fmt::Formatter<'_>, r: u8) -> fmt::Result {
    match r {
        13 => f.write_str("sp"),
        14 => f.write_str("lr"),
        15 => f.write_str("pc"),
        n => write!(f, "r{n}"),
    }
}

fn fmt_list(f: &mut fmt::Formatter<'_>, list: u16) -> fmt::Result {
    f.write_str("{")?;
    let mut first = true;
    for r in reg_list(list) {
        if !first {
            f.write_str(", ")?;
        }
        first = false;
        fmt_reg(f, r)?;
    }
    f.write_str("}")
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::MovImm { rd, imm } => {
                write!(f, "mov ")?;
                fmt_reg(f, rd)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::MvnImm { rd, imm } => {
                write!(f, "mvn ")?;
                fmt_reg(f, rd)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::MovReg { rd, rm } => {
                write!(f, "mov ")?;
                fmt_reg(f, rd)?;
                f.write_str(", ")?;
                fmt_reg(f, rm)
            }
            Insn::AddImm { rd, rn, imm } => {
                write!(f, "add ")?;
                fmt_reg(f, rd)?;
                f.write_str(", ")?;
                fmt_reg(f, rn)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::SubImm { rd, rn, imm } => {
                write!(f, "sub ")?;
                fmt_reg(f, rd)?;
                f.write_str(", ")?;
                fmt_reg(f, rn)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::OrrImm { rd, rn, imm } => {
                write!(f, "orr ")?;
                fmt_reg(f, rd)?;
                f.write_str(", ")?;
                fmt_reg(f, rn)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::AndImm { rd, rn, imm } => {
                write!(f, "and ")?;
                fmt_reg(f, rd)?;
                f.write_str(", ")?;
                fmt_reg(f, rn)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::EorImm { rd, rn, imm } => {
                write!(f, "eor ")?;
                fmt_reg(f, rd)?;
                f.write_str(", ")?;
                fmt_reg(f, rn)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::LslImm { rd, rm, shift } => {
                write!(f, "lsl ")?;
                fmt_reg(f, rd)?;
                f.write_str(", ")?;
                fmt_reg(f, rm)?;
                write!(f, ", #{shift}")
            }
            Insn::CmpImm { rn, imm } => {
                write!(f, "cmp ")?;
                fmt_reg(f, rn)?;
                write!(f, ", #{imm:#x}")
            }
            Insn::Ldr { rd, rn, offset } => {
                write!(f, "ldr ")?;
                fmt_reg(f, rd)?;
                f.write_str(", [")?;
                fmt_reg(f, rn)?;
                if offset != 0 {
                    write!(f, ", #{offset:#x}")?;
                }
                f.write_str("]")
            }
            Insn::Str { rd, rn, offset } => {
                write!(f, "str ")?;
                fmt_reg(f, rd)?;
                f.write_str(", [")?;
                fmt_reg(f, rn)?;
                if offset != 0 {
                    write!(f, ", #{offset:#x}")?;
                }
                f.write_str("]")
            }
            Insn::Ldrb { rd, rn, offset } => {
                write!(f, "ldrb ")?;
                fmt_reg(f, rd)?;
                f.write_str(", [")?;
                fmt_reg(f, rn)?;
                if offset != 0 {
                    write!(f, ", #{offset:#x}")?;
                }
                f.write_str("]")
            }
            Insn::Strb { rd, rn, offset } => {
                write!(f, "strb ")?;
                fmt_reg(f, rd)?;
                f.write_str(", [")?;
                fmt_reg(f, rn)?;
                if offset != 0 {
                    write!(f, ", #{offset:#x}")?;
                }
                f.write_str("]")
            }
            Insn::Push { list } => {
                f.write_str("push ")?;
                fmt_list(f, list)
            }
            Insn::Pop { list } => {
                f.write_str("pop ")?;
                fmt_list(f, list)
            }
            Insn::Bx { rm } => {
                f.write_str("bx ")?;
                fmt_reg(f, rm)
            }
            Insn::Blx { rm } => {
                f.write_str("blx ")?;
                fmt_reg(f, rm)
            }
            Insn::B { offset } => write!(f, "b {offset:+#x}"),
            Insn::Bl { offset } => write!(f, "bl {offset:+#x}"),
            Insn::BEq { offset } => write!(f, "beq {offset:+#x}"),
            Insn::BNe { offset } => write!(f, "bne {offset:+#x}"),
            Insn::Svc { imm } => write!(f, "svc #{imm:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(w: u32) -> Insn {
        decode(&w.to_le_bytes()).unwrap().0
    }

    #[test]
    fn paper_gadget_pop_r0_r7_pc() {
        // pop {r0,r1,r2,r3,r5,r6,r7,pc} → list 0x80EF → e8bd80ef
        let i = d(0xE8BD_80EF);
        assert_eq!(i, Insn::Pop { list: 0x80EF });
        assert_eq!(
            reg_list(0x80EF).collect::<Vec<_>>(),
            [0, 1, 2, 3, 5, 6, 7, 15]
        );
        assert_eq!(i.to_string(), "pop {r0, r1, r2, r3, r5, r6, r7, pc}");
    }

    #[test]
    fn blx_r3_gadget() {
        let i = d(0xE12F_FF33);
        assert_eq!(i, Insn::Blx { rm: 3 });
        assert_eq!(i.to_string(), "blx r3");
    }

    #[test]
    fn bx_lr() {
        assert_eq!(d(0xE12F_FF1E), Insn::Bx { rm: 14 });
    }

    #[test]
    fn mov_r1_r1_is_the_paper_nop() {
        let i = d(0xE1A0_1001);
        assert_eq!(i, Insn::MovReg { rd: 1, rm: 1 });
        assert_eq!(i.to_string(), "mov r1, r1");
    }

    #[test]
    fn data_processing_immediates() {
        assert_eq!(d(0xE3A0_700B), Insn::MovImm { rd: 7, imm: 11 });
        assert_eq!(
            d(0xE280_0004),
            Insn::AddImm {
                rd: 0,
                rn: 0,
                imm: 4
            }
        );
        assert_eq!(
            d(0xE240_D010),
            Insn::SubImm {
                rd: 13,
                rn: 0,
                imm: 16
            }
        );
        assert_eq!(d(0xE350_0000), Insn::CmpImm { rn: 0, imm: 0 });
        assert_eq!(d(0xE3E0_0000), Insn::MvnImm { rd: 0, imm: 0 });
    }

    #[test]
    fn rotated_immediate() {
        // mov r0, #0x1000 → imm8=0x01 rotate such that 1 ror (2*r)=0x1000.
        let imm12 = encode_imm12(0x1000).unwrap();
        let w = 0xE3A0_0000 | imm12;
        assert_eq!(d(w), Insn::MovImm { rd: 0, imm: 0x1000 });
        assert!(encode_imm12(0x1234_5678).is_none());
        assert_eq!(encode_imm12(0xFF), Some(0xFF));
    }

    #[test]
    fn ldr_str_offsets() {
        assert_eq!(
            d(0xE591_2004),
            Insn::Ldr {
                rd: 2,
                rn: 1,
                offset: 4
            }
        );
        assert_eq!(
            d(0xE511_2004),
            Insn::Ldr {
                rd: 2,
                rn: 1,
                offset: -4
            }
        );
        assert_eq!(
            d(0xE581_2008),
            Insn::Str {
                rd: 2,
                rn: 1,
                offset: 8
            }
        );
    }

    #[test]
    fn branches() {
        // b +8 (imm24 = 2): target = pc+8+8
        assert_eq!(d(0xEA00_0002), Insn::B { offset: 8 });
        // bl -4 (imm24 = 0xFFFFFF): offset −4
        assert_eq!(d(0xEBFF_FFFF), Insn::Bl { offset: -4 });
        assert_eq!(d(0xEF00_0000), Insn::Svc { imm: 0 });
    }

    #[test]
    fn push_encoding() {
        // push {r4, lr} → e92d4010
        assert_eq!(d(0xE92D_4010), Insn::Push { list: 0x4010 });
    }

    #[test]
    fn conditional_branches_decoded() {
        assert_eq!(d(0x0A00_0000), Insn::BEq { offset: 0 });
        assert_eq!(d(0x1AFF_FFFE), Insn::BNe { offset: -8 });
    }

    #[test]
    fn non_supported_conditions_rejected() {
        // bgt (cond 0xC) and conditional data processing are outside the
        // subset.
        assert!(matches!(
            decode(&0xCA00_0000u32.to_le_bytes()),
            Err(DecodeError::Unsupported(_))
        ));
        // moveq r0, #1 — conditional non-branch.
        assert!(matches!(
            decode(&0x03A0_0001u32.to_le_bytes()),
            Err(DecodeError::Unsupported(_))
        ));
    }

    #[test]
    fn logic_immediates_and_shift() {
        assert_eq!(
            d(0xE380_1001),
            Insn::OrrImm {
                rd: 1,
                rn: 0,
                imm: 1
            }
        );
        assert_eq!(
            d(0xE200_10FF),
            Insn::AndImm {
                rd: 1,
                rn: 0,
                imm: 0xFF
            }
        );
        assert_eq!(
            d(0xE220_1001),
            Insn::EorImm {
                rd: 1,
                rn: 0,
                imm: 1
            }
        );
        assert_eq!(
            d(0xE1A0_1182),
            Insn::LslImm {
                rd: 1,
                rm: 2,
                shift: 3
            }
        );
        assert_eq!(d(0xE1A0_1182).to_string(), "lsl r1, r2, #3");
    }

    #[test]
    fn byte_transfers() {
        assert_eq!(
            d(0xE5D1_2004),
            Insn::Ldrb {
                rd: 2,
                rn: 1,
                offset: 4
            }
        );
        assert_eq!(
            d(0xE5C1_2004),
            Insn::Strb {
                rd: 2,
                rn: 1,
                offset: 4
            }
        );
    }

    #[test]
    fn truncated() {
        assert_eq!(decode(&[0xEF, 0x00]), Err(DecodeError::Truncated));
        assert_eq!(decode_reference(&[0xEF, 0x00]), Err(DecodeError::Truncated));
    }

    #[test]
    fn table_matches_reference_decoder() {
        // Deterministic LCG sweep; the AL-forced variant exercises the
        // table densely (1/16 of raw draws are condition AL).
        let mut w: u32 = 0x1234_5678;
        for _ in 0..200_000 {
            w = w.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            for cand in [w, (w & 0x0FFF_FFFF) | 0xE000_0000] {
                let bytes = cand.to_le_bytes();
                assert_eq!(
                    decode(&bytes),
                    decode_reference(&bytes),
                    "table and reference disagree on {cand:#010x}"
                );
            }
        }
    }
}
