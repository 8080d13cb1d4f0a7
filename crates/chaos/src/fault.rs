//! The fault model: what can break, and when.
//!
//! A [`FaultPlan`] is a deterministic schedule of hardware-level faults
//! derived entirely from one seed: flip a register bit, flip a memory
//! bit, corrupt the surprise register, garble a page-map entry, raise a
//! spurious interrupt, swallow a pending one, or scribble on an MMIO
//! port. Every fault is pinned to an instruction-count trigger so the
//! same seed replays the same campaign byte-for-byte.
//!
//! The plan names a **victim** process. Hardware keeps no such notion —
//! the victim is the *blast-radius contract*: the fault is aimed at
//! state the victim owns (its registers while it runs, its segment of
//! memory, its page-map entries), and the campaign's verdict asks
//! whether the damage stayed inside that contract.

use mips_core::Reg;
use mips_qc::Rng;
use std::fmt;

/// Never inject before this many instructions: the guest kernel must
/// finish booting (building PCBs, picking the first process) before the
/// blast-radius contract is meaningful.
pub const MIN_TRIGGER: u64 = 500;

/// How a page-map entry is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCorruption {
    /// Flip a low bit of the frame number: the page silently points at
    /// a *different frame of the same process* (the pid field of the
    /// frame number is preserved — a wider flip would be an escape by
    /// construction, not a test of the software).
    FrameFlip {
        /// Bit of the frame number to flip, `0..8`.
        bit: u8,
    },
    /// Point the frame above physical memory: every access faults until
    /// the kernel heals the entry.
    OutOfRange,
    /// Drop the entry outright — a lost mapping the kernel must
    /// re-establish on the resulting soft fault.
    Unmap,
}

/// One injectable hardware fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of one register while the victim is running.
    RegFlip { reg: Reg, bit: u8 },
    /// Flip a bit of the surprise register while the victim is running.
    /// Restricted to the interrupt/overflow enables and the cause/detail
    /// field: flipping SUP or MAP_EN *grants* the victim supervisor
    /// powers, which no software can defend against (see
    /// [`surprise_bits`]).
    SurpriseFlip { bit: u8 },
    /// Flip one bit of a word in the victim's data segment.
    MemFlip { local: u32, bit: u8 },
    /// Corrupt one of the victim's resident page-map entries.
    /// `pick` chooses among resident entries at injection time.
    PageMapCorrupt { pick: u32, mode: PageCorruption },
    /// Assert a device line nobody asked for.
    SpuriousInterrupt { device: u32 },
    /// Clear the timer's pending line — a lost tick.
    DroppedInterrupt,
    /// Scribble a garbage acknowledge into the interrupt controller's
    /// MMIO port.
    PortAckGarbage { value: u32 },
    /// Scribble a garbage mapping through the map unit's MMIO port:
    /// select page `(victim<<8)|page_low`, map it to frame
    /// `(victim<<8)|frame_low`.
    PortMapGarbage { page_low: u8, frame_low: u8 },
}

/// Surprise-register bits the chaos engine may flip: INT_EN (2),
/// OVF_EN (4), and the cause/detail field (8..16). SUP (0) and
/// MAP_EN (6) are excluded — flipping them hands the victim the
/// kernel's own privileges, which is outside any software fault
/// model (the paper's machine has no defense against hardware that
/// *promotes* a process).
pub fn surprise_bits() -> &'static [u8] {
    &[2, 4, 8, 9, 10, 11, 12, 13, 14, 15]
}

impl FaultKind {
    /// Stable identifier for reports and JSON.
    pub fn id(self) -> &'static str {
        match self {
            FaultKind::RegFlip { .. } => "reg-flip",
            FaultKind::SurpriseFlip { .. } => "surprise-flip",
            FaultKind::MemFlip { .. } => "mem-flip",
            FaultKind::PageMapCorrupt { .. } => "page-map",
            FaultKind::SpuriousInterrupt { .. } => "spurious-int",
            FaultKind::DroppedInterrupt => "dropped-int",
            FaultKind::PortAckGarbage { .. } => "mmio-ack",
            FaultKind::PortMapGarbage { .. } => "mmio-map",
        }
    }

    /// All kind identifiers, in report order.
    pub const IDS: [&'static str; 8] = [
        "reg-flip",
        "surprise-flip",
        "mem-flip",
        "page-map",
        "spurious-int",
        "dropped-int",
        "mmio-ack",
        "mmio-map",
    ];

    /// Whether the fault must wait for the victim to actually be on the
    /// CPU in user mode. Register and surprise flips aimed at the
    /// victim would otherwise corrupt whatever pid happens to be
    /// running — including the kernel itself, which is a different
    /// experiment (a deliberate kernel-panic case, not a victim case).
    /// Map-unit port garbage also defers: writing the port mid-kernel
    /// would clobber the page-select latch *between* the kernel's own
    /// select and map writes, racing the handler in a way no real
    /// off-chip unit races itself.
    pub fn needs_user_mode(self) -> bool {
        matches!(
            self,
            FaultKind::RegFlip { .. }
                | FaultKind::SurpriseFlip { .. }
                | FaultKind::PortMapGarbage { .. }
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::RegFlip { reg, bit } => write!(f, "reg-flip {reg} bit {bit}"),
            FaultKind::SurpriseFlip { bit } => write!(f, "surprise-flip bit {bit}"),
            FaultKind::MemFlip { local, bit } => {
                write!(f, "mem-flip local {local:#x} bit {bit}")
            }
            FaultKind::PageMapCorrupt { pick, mode } => match mode {
                PageCorruption::FrameFlip { bit } => {
                    write!(f, "page-map frame-flip bit {bit} (pick {pick})")
                }
                PageCorruption::OutOfRange => write!(f, "page-map out-of-range (pick {pick})"),
                PageCorruption::Unmap => write!(f, "page-map unmap (pick {pick})"),
            },
            FaultKind::SpuriousInterrupt { device } => {
                write!(f, "spurious-int device {device}")
            }
            FaultKind::DroppedInterrupt => write!(f, "dropped-int"),
            FaultKind::PortAckGarbage { value } => write!(f, "mmio-ack value {value}"),
            FaultKind::PortMapGarbage {
                page_low,
                frame_low,
            } => {
                write!(f, "mmio-map page_low {page_low} frame_low {frame_low}")
            }
        }
    }
}

/// A fault pinned to an instruction-count trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Fire at or after this many executed instructions.
    pub at: u64,
    pub kind: FaultKind,
}

/// A deterministic schedule of faults aimed at one victim process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Pid (1-based) whose state the faults target.
    pub victim: u32,
    /// Faults in trigger order.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Draws a plan from the rng: a victim among `nprocs` processes and
    /// `1..=max_faults` faults triggered within `horizon` instructions.
    pub fn generate(rng: &mut Rng, nprocs: u32, horizon: u64, max_faults: usize) -> FaultPlan {
        let victim = rng.u32(1..nprocs.max(1) + 1);
        let n = rng.usize(1..max_faults.max(1) + 1);
        let hi = horizon.max(MIN_TRIGGER + 1);
        let mut faults: Vec<PlannedFault> = (0..n)
            .map(|_| PlannedFault {
                at: rng.u64(MIN_TRIGGER..hi),
                kind: arb_kind(rng),
            })
            .collect();
        faults.sort_by_key(|f| f.at);
        FaultPlan { victim, faults }
    }
}

/// Draws one fault kind. The weights skew toward state corruption
/// (register/memory/page-map) because those exercise the kernel's
/// isolation machinery; interrupt mischief mostly tests the tick path.
fn arb_kind(rng: &mut Rng) -> FaultKind {
    match rng.weighted(&[4, 2, 4, 3, 2, 2, 1, 1]) {
        0 => FaultKind::RegFlip {
            reg: Reg::from_index(rng.usize(0..16)).expect("0..16 are valid registers"),
            bit: rng.u8(0..32),
        },
        1 => FaultKind::SurpriseFlip {
            bit: *rng.pick(surprise_bits()),
        },
        // Globals (0x1000..) and early heap: where compiled programs
        // keep the state whose corruption is actually observable.
        2 => FaultKind::MemFlip {
            local: rng.u32(0x1000..0x2400),
            bit: rng.u8(0..32),
        },
        3 => FaultKind::PageMapCorrupt {
            pick: rng.u32(0..64),
            mode: match rng.weighted(&[3, 2, 2]) {
                0 => PageCorruption::FrameFlip { bit: rng.u8(0..8) },
                1 => PageCorruption::OutOfRange,
                _ => PageCorruption::Unmap,
            },
        },
        4 => FaultKind::SpuriousInterrupt {
            device: rng.u32(1..8),
        },
        5 => FaultKind::DroppedInterrupt,
        6 => FaultKind::PortAckGarbage {
            value: rng.u32(0..32),
        },
        _ => FaultKind::PortMapGarbage {
            page_low: rng.u8(0..16),
            frame_low: rng.u8(0..16),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let mk = || FaultPlan::generate(&mut Rng::new(7), 3, 100_000, 4);
        let a = mk();
        assert_eq!(a, mk());
        assert!(a.faults.windows(2).all(|w| w[0].at <= w[1].at));
        assert!((1..=3).contains(&a.victim));
        assert!(a.faults.iter().all(|f| f.at >= MIN_TRIGGER));
    }

    #[test]
    fn kind_ids_cover_every_kind() {
        let mut rng = Rng::new(99);
        for _ in 0..500 {
            let k = arb_kind(&mut rng);
            assert!(FaultKind::IDS.contains(&k.id()));
        }
    }

    #[test]
    fn surprise_bits_never_grant_privileges() {
        assert!(!surprise_bits().contains(&0), "SUP flip is an auto-escape");
        assert!(
            !surprise_bits().contains(&6),
            "MAP_EN flip exposes kernel memory"
        );
    }
}
