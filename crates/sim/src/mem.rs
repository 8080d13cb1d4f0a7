//! Physical word-addressed memory — the bus — with its memory-mapped
//! devices and the DMA engine that consumes *free memory cycles*.
//!
//! "Since memory cycles are allocated to instructions, just as ALU or
//! register access resources, an instruction that did not include a load
//! or store piece would waste some of the memory bandwidth. … a status pin
//! on the processor indicates the presence of an upcoming free memory
//! cycle. Thus, these cycles can be used for DMA, I/O or cache
//! write-backs." (paper §3.1)
//!
//! [`Memory`] is a sparse paged store of 32-bit words over the 24-bit
//! physical space. It owns the bus's devices as plain optional fields —
//! the console, the interrupt controller ([`IntCtrl`]), the page-map
//! unit and the NIC ([`crate::nic::Nic`]) — each at a fixed window at
//! the top of physical memory ([`NIC_ADDR`], [`INTCTRL_ADDR`],
//! [`MAPUNIT_ADDR`], [`CONSOLE_ADDR`]). An access below the lowest
//! attached window goes straight to RAM; one at or above it is decoded
//! with one `match` on the address. A window whose device is not
//! attached is plain RAM, as is every gap between windows. The machine
//! makes the windows supervisor-only.

use crate::mmu::PageMap;
use crate::nic::{Nic, NIC_WINDOW};
use mips_core::word::MEM_WORDS;
use std::collections::{HashMap, VecDeque};

const PAGE: u32 = 4096;

/// Physical base address of the NIC window ([`NIC_WINDOW`] words).
pub const NIC_ADDR: u32 = MEM_WORDS - 64;
/// Physical address of the interrupt-controller port (one word).
pub const INTCTRL_ADDR: u32 = MEM_WORDS - 16;
/// Physical base address of the page-map-unit port (three words).
pub const MAPUNIT_ADDR: u32 = MEM_WORDS - 8;
/// Physical address of the console output port (one word).
pub const CONSOLE_ADDR: u32 = MEM_WORDS - 4;

const NIC_LAST: u32 = NIC_ADDR + NIC_WINDOW - 1;
const MAPUNIT_LAST: u32 = MAPUNIT_ADDR + 2;

/// A queued DMA transfer, serviced by one free memory cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dma {
    /// Write `value` to physical `addr`.
    Write {
        /// Physical word address.
        addr: u32,
        /// Word to store.
        value: u32,
    },
    /// Read physical `addr` (the value is appended to
    /// [`Memory::dma_read_log`]).
    Read {
        /// Physical word address.
        addr: u32,
    },
}

/// The physical memory system: sparse word storage, the attached
/// devices, and the DMA queue.
pub struct Memory {
    pages: HashMap<u32, Box<[u32; PAGE as usize]>>,
    /// Lowest address of any attached window (`u32::MAX` with none).
    floor: u32,
    /// The console: every word written to its port, in order.
    pub(crate) console: Option<Vec<u32>>,
    pub(crate) int_ctrl: Option<IntCtrl>,
    pub(crate) map_unit: Option<MapUnit>,
    pub(crate) nic: Option<Nic>,
    dma_queue: VecDeque<Dma>,
    dma_read_log: Vec<u32>,
    /// Data-memory reads performed (excludes DMA).
    pub reads: u64,
    /// Data-memory writes performed (excludes DMA).
    pub writes: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("resident_pages", &self.pages.len())
            .field("device_floor", &self.floor)
            .field("dma_queued", &self.dma_queue.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl Memory {
    /// Creates an empty memory (all words read as zero, no devices).
    pub fn new() -> Memory {
        Memory {
            pages: HashMap::new(),
            floor: u32::MAX,
            console: None,
            int_ctrl: None,
            map_unit: None,
            nic: None,
            dma_queue: VecDeque::new(),
            dma_read_log: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Installs the console (keeping its record if already attached).
    pub(crate) fn attach_console(&mut self) {
        self.console.get_or_insert_with(Vec::new);
        self.floor = self.floor.min(CONSOLE_ADDR);
    }

    /// Installs the interrupt controller (keeping its pending mask if
    /// already attached).
    pub(crate) fn attach_int_ctrl(&mut self) {
        self.int_ctrl.get_or_insert_with(IntCtrl::default);
        self.floor = self.floor.min(INTCTRL_ADDR);
    }

    /// Installs the page-map unit over `map`, with both latches clear.
    pub(crate) fn attach_map_unit(&mut self, map: PageMap) {
        self.map_unit = Some(MapUnit {
            map,
            selected: 0,
            fault_addr: 0,
        });
        self.floor = self.floor.min(MAPUNIT_ADDR);
    }

    /// Installs a NIC for fabric address `node`.
    pub(crate) fn attach_nic(&mut self, node: u32) {
        self.nic = Some(Nic::new(node));
        self.floor = self.floor.min(NIC_ADDR);
    }

    /// Whether `pa` falls inside an attached device's window (device
    /// windows are supervisor-only; the machine enforces that).
    pub fn is_device(&self, pa: u32) -> bool {
        pa >= self.floor
            && match pa {
                NIC_ADDR..=NIC_LAST => self.nic.is_some(),
                INTCTRL_ADDR => self.int_ctrl.is_some(),
                MAPUNIT_ADDR..=MAPUNIT_LAST => self.map_unit.is_some(),
                CONSOLE_ADDR => self.console.is_some(),
                _ => false,
            }
    }

    /// The lowest address of any attached window (`u32::MAX` with no
    /// devices): addresses below it go straight to RAM.
    pub fn device_floor(&self) -> u32 {
        self.floor
    }

    /// Every nonzero word as sorted `(address, value)` pairs — a cheap
    /// whole-memory observation for differential tests (zero words and
    /// device windows are excluded; devices have no stored words).
    pub fn snapshot(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut pages: Vec<&u32> = self.pages.keys().collect();
        pages.sort_unstable();
        for &page in pages {
            let words = &self.pages[&page];
            for (i, &w) in words.iter().enumerate() {
                if w != 0 {
                    out.push((page * PAGE + i as u32, w));
                }
            }
        }
        out
    }

    /// Reads the word at physical address `pa` (counted as a memory
    /// cycle). Attached device windows answer for their device.
    pub fn read(&mut self, pa: u32) -> u32 {
        self.reads += 1;
        if pa >= self.floor {
            let port = match pa {
                NIC_ADDR..=NIC_LAST => self.nic.as_ref().map(|n| n.read(pa - NIC_ADDR)),
                INTCTRL_ADDR => self
                    .int_ctrl
                    .as_ref()
                    .map(|c| c.highest_pending().map_or(0, |d| d + 1)),
                MAPUNIT_ADDR..=MAPUNIT_LAST => {
                    self.map_unit.as_ref().map(|u| u.read(pa - MAPUNIT_ADDR))
                }
                CONSOLE_ADDR => self.console.as_ref().map(|c| c.len() as u32),
                _ => None,
            };
            if let Some(v) = port {
                return v;
            }
        }
        self.peek(pa)
    }

    /// Writes the word at physical address `pa` (counted as a memory
    /// cycle). Attached device windows go to their device.
    pub fn write(&mut self, pa: u32, value: u32) {
        self.writes += 1;
        if pa >= self.floor {
            let port = match pa {
                NIC_ADDR..=NIC_LAST => self.nic.as_mut().map(|n| n.write(pa - NIC_ADDR, value)),
                INTCTRL_ADDR => self.int_ctrl.as_mut().map(|c| c.clear(value)),
                MAPUNIT_ADDR..=MAPUNIT_LAST => self
                    .map_unit
                    .as_mut()
                    .map(|u| u.write(pa - MAPUNIT_ADDR, value)),
                CONSOLE_ADDR => self.console.as_mut().map(|c| c.push(value)),
                _ => None,
            };
            if port.is_some() {
                return;
            }
        }
        self.poke(pa, value);
    }

    /// Reads without counting a cycle or touching devices (loader/tests).
    pub fn peek(&self, pa: u32) -> u32 {
        match self.pages.get(&(pa / PAGE)) {
            Some(p) => p[(pa % PAGE) as usize],
            None => 0,
        }
    }

    /// Writes without counting a cycle or touching devices (loader/tests).
    pub fn poke(&mut self, pa: u32, value: u32) {
        let page = self
            .pages
            .entry(pa / PAGE)
            .or_insert_with(|| Box::new([0u32; PAGE as usize]));
        page[(pa % PAGE) as usize] = value;
    }

    /// Queues a DMA transfer to be serviced by the next free memory cycle.
    pub fn queue_dma(&mut self, t: Dma) {
        self.dma_queue.push_back(t);
    }

    /// Number of DMA transfers still waiting.
    pub fn dma_pending(&self) -> usize {
        self.dma_queue.len()
    }

    /// Values captured by serviced DMA reads, in service order.
    pub fn dma_read_log(&self) -> &[u32] {
        &self.dma_read_log
    }

    /// Queued DMA transfers in service order (for snapshot capture).
    pub(crate) fn dma_queue_entries(&self) -> Vec<Dma> {
        self.dma_queue.iter().copied().collect()
    }

    /// Replaces the DMA queue and read log (snapshot restore).
    pub(crate) fn restore_dma(&mut self, queue: Vec<Dma>, read_log: Vec<u32>) {
        self.dma_queue = queue.into();
        self.dma_read_log = read_log;
    }

    /// Drops every stored RAM word (devices stay attached). Used by
    /// snapshot restore before re-poking the captured image.
    pub(crate) fn clear_ram(&mut self) {
        self.pages.clear();
    }

    /// Services one queued DMA transfer, if any. Called by the machine on
    /// each free memory cycle. Returns true when a transfer was serviced.
    pub fn service_dma(&mut self) -> bool {
        match self.dma_queue.pop_front() {
            Some(Dma::Write { addr, value }) => {
                self.poke(addr, value);
                true
            }
            Some(Dma::Read { addr }) => {
                let v = self.peek(addr);
                self.dma_read_log.push(v);
                true
            }
            None => false,
        }
    }
}

/// The external interrupt prioritization logic.
///
/// "There is a single interrupt line onto the chip; when the line is
/// activated with interrupts enabled, a surprise sequence is initiated.
/// After the first dispatch, the global interrupt handler queries any
/// external prioritization logic to determine which device was requesting
/// service." (paper §3.3)
///
/// Register window (one word at [`INTCTRL_ADDR`]):
///
/// * read `+0` — id of the highest-priority pending device **plus one**
///   (0 = no device pending);
/// * write `+0` — acknowledge (clear) the device with the written id.
#[derive(Debug, Default)]
pub struct IntCtrl {
    pending: u32,
}

impl IntCtrl {
    /// A device (0–31) requests service; asserts the interrupt line.
    pub fn raise(&mut self, device: u32) {
        self.pending |= 1 << (device & 31);
    }

    /// Clears a device's request.
    pub fn clear(&mut self, device: u32) {
        self.pending &= !(1 << (device & 31));
    }

    /// The single interrupt line into the chip.
    pub fn line_asserted(&self) -> bool {
        self.pending != 0
    }

    /// Highest-priority (lowest-numbered) pending device.
    pub fn highest_pending(&self) -> Option<u32> {
        (self.pending != 0).then(|| self.pending.trailing_zeros())
    }

    /// The raw pending bitmask (bit *n* = device *n* requesting service).
    /// Exposed so checkpoints can capture controller state exactly.
    pub fn pending_raw(&self) -> u32 {
        self.pending
    }

    /// Overwrites the pending bitmask (snapshot restore).
    pub fn set_pending_raw(&mut self, raw: u32) {
        self.pending = raw;
    }
}

/// The off-chip page-map unit: the [`PageMap`] the machine translates
/// through, plus the two latches of its port, so the (supervisor-mode)
/// page-fault handler can manipulate the map from MIPS code.
///
/// Register window (three words at [`MAPUNIT_ADDR`]):
///
/// * `+0` read — the mapped (24-bit) address of the last fault;
///   `+0` write — select a virtual page number for a following map;
/// * `+1` read — number of resident pages;
///   `+1` write — map the selected page to the written frame number;
/// * `+2` write — unmap the written virtual page number.
#[derive(Debug)]
pub(crate) struct MapUnit {
    pub(crate) map: PageMap,
    /// The page-select latch (`+0` write).
    pub(crate) selected: u32,
    /// The fault-address latch (`+0` read), set when a translation
    /// faults on the reference path.
    pub(crate) fault_addr: u32,
}

impl MapUnit {
    fn read(&self, off: u32) -> u32 {
        match off {
            0 => self.fault_addr,
            1 => self.map.len() as u32,
            _ => 0,
        }
    }

    fn write(&mut self, off: u32, value: u32) {
        match off {
            0 => self.selected = value,
            1 => {
                self.map.map(self.selected, value);
            }
            2 => {
                self.map.unmap(value);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_round_trip() {
        let mut m = Memory::new();
        assert_eq!(m.read(100), 0);
        m.write(100, 42);
        assert_eq!(m.read(100), 42);
        assert_eq!(m.reads, 2);
        assert_eq!(m.writes, 1);
        // peek/poke do not count cycles
        m.poke(200, 7);
        assert_eq!(m.peek(200), 7);
        assert_eq!(m.reads, 2);
        assert_eq!(m.writes, 1);
    }

    #[test]
    fn pages_are_independent() {
        let mut m = Memory::new();
        m.poke(0, 1);
        m.poke(PAGE, 2);
        m.poke(PAGE * 1000 + 5, 3);
        assert_eq!(m.peek(0), 1);
        assert_eq!(m.peek(PAGE), 2);
        assert_eq!(m.peek(PAGE * 1000 + 5), 3);
    }

    #[test]
    fn dma_queue_services_in_order() {
        let mut m = Memory::new();
        m.poke(7, 123);
        m.queue_dma(Dma::Write { addr: 5, value: 50 });
        m.queue_dma(Dma::Read { addr: 7 });
        assert_eq!(m.dma_pending(), 2);
        assert!(m.service_dma());
        assert_eq!(m.peek(5), 50);
        assert!(m.service_dma());
        assert_eq!(m.dma_read_log(), &[123]);
        assert!(!m.service_dma());
    }

    #[test]
    fn int_ctrl_priority_and_ack() {
        let mut m = Memory::new();
        m.attach_int_ctrl();
        let c = m.int_ctrl.as_mut().unwrap();
        assert!(!c.line_asserted());
        c.raise(5);
        c.raise(2);
        assert!(c.line_asserted());
        assert_eq!(c.highest_pending(), Some(2));
        assert_eq!(m.read(INTCTRL_ADDR), 3); // device 2, plus one
        m.write(INTCTRL_ADDR, 2); // ack device 2
        assert_eq!(m.int_ctrl.as_ref().unwrap().highest_pending(), Some(5));
        m.write(INTCTRL_ADDR, 5);
        assert!(!m.int_ctrl.as_ref().unwrap().line_asserted());
        assert_eq!(m.read(INTCTRL_ADDR), 0);
    }

    #[test]
    fn map_unit_port_updates_shared_map() {
        let mut m = Memory::new();
        m.attach_map_unit(PageMap::new());
        m.map_unit.as_mut().unwrap().fault_addr = 0xabcd;
        assert_eq!(m.read(MAPUNIT_ADDR), 0xabcd);
        assert_eq!(m.read(MAPUNIT_ADDR + 1), 0);
        m.write(MAPUNIT_ADDR, 3); // select vpage 3
        m.write(MAPUNIT_ADDR + 1, 9); // map to frame 9
        assert_eq!(m.read(MAPUNIT_ADDR + 1), 1);
        let map = &m.map_unit.as_ref().unwrap().map;
        assert_eq!(
            map.translate(3 * crate::mmu::PAGE_WORDS),
            Some(9 * crate::mmu::PAGE_WORDS)
        );
        m.write(MAPUNIT_ADDR + 2, 3); // unmap
        assert!(m.map_unit.as_ref().unwrap().map.is_empty());
    }

    #[test]
    fn console_collects_bytes() {
        let mut m = Memory::new();
        m.attach_console();
        m.write(CONSOLE_ADDR, b'h' as u32);
        m.write(CONSOLE_ADDR, b'i' as u32);
        assert_eq!(m.read(CONSOLE_ADDR), 2);
        assert_eq!(m.console.as_deref(), Some(&[104, 105][..]));
    }
}
