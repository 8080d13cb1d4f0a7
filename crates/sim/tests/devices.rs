//! The bus's device windows, address by address, and the map unit's
//! port latches across snapshots.
//!
//! * **Window decode** — every address from one below the NIC window to
//!   the top of physical memory, under three attach sets (none, page
//!   map only, the guest kernel's full set), on both engines: a
//!   supervisor load or store reaches the device or RAM exactly where
//!   the windows sit (the gaps between windows are RAM), a user-mode
//!   access to a window raises `Privilege`, and a window offset with
//!   no register reads 0.
//! * **Page-select latch** — a snapshot taken between the map unit's
//!   select store and its map store restores the selected page, into a
//!   fresh machine and into the same machine after it selected another.

use mips_asm::assemble;
use mips_core::word::MEM_WORDS;
use mips_core::Program;
use mips_sim::machine::{MAPUNIT_ADDR, NIC_ADDR};
use mips_sim::nic::regs;
use mips_sim::{Cause, Engine, Machine, MachineConfig, PageMap, Surprise, TX_RING};

/// RAM contents planted under every probed address.
const SENTINEL: u32 = 0x5a5a_0f0f;
/// The word each supervisor probe stores.
const STORED: u32 = 0x0012_3456;
/// The kernel set's NIC node address.
const NODE: u32 = 6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Set {
    None,
    MapOnly,
    Full,
}

/// A device window hit: which device, at what word offset.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Hit {
    Nic(u32),
    IntCtrl,
    MapUnit(u32),
    Console,
}

/// Where the windows sit, written out from the top of memory: the NIC
/// at 64..=17 words below the top, the interrupt controller at 16,
/// the map unit at 8..=6, the console at 4. Everything else is RAM.
fn window(addr: u32, set: Set) -> Option<Hit> {
    let below_top = MEM_WORDS - addr;
    match (below_top, set) {
        (17..=64, Set::Full) => Some(Hit::Nic(addr - NIC_ADDR)),
        (16, Set::Full) => Some(Hit::IntCtrl),
        (6..=8, Set::Full | Set::MapOnly) => Some(Hit::MapUnit(addr - MAPUNIT_ADDR)),
        (4, Set::Full) => Some(Hit::Console),
        _ => None,
    }
}

/// What a supervisor load of a freshly attached device returns.
fn device_read(hit: Hit) -> u32 {
    match hit {
        Hit::Nic(regs::STATUS) => 2, // TX ready, RX empty
        Hit::Nic(regs::NODE) => NODE,
        Hit::Nic(regs::TX_COMMIT) => TX_RING as u32,
        Hit::Nic(regs::RX_SRC) => !0,
        // Every other NIC offset — the unassigned 8..16 included —
        // reads 0 on an idle NIC, as do the controller (nothing
        // pending), both map-unit read ports (no fault, no pages) and
        // its write-only +2, and the console (no words yet).
        Hit::Nic(_) | Hit::IntCtrl | Hit::MapUnit(_) | Hit::Console => 0,
    }
}

fn machine(src: &str, set: Set, engine: Engine, addr: u32) -> Machine {
    let mut m = Machine::with_config(
        assemble(src).unwrap(),
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    m.set_engine(engine);
    if set != Set::None {
        m.attach_page_map(PageMap::new());
    }
    if set == Set::Full {
        m.attach_int_ctrl();
        m.attach_nic(NODE);
        m.attach_console();
    }
    m.mem_mut().poke(addr, SENTINEL);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    m
}

/// Handler: save the surprise register, halt.
const HANDLER: &str = "
    handler:
        rsp surprise,r1
        st r1,@103
        halt
";

fn supervisor_probe(addr: u32) -> String {
    format!(
        "{HANDLER}
        main:
            lim #{addr},r2
            ld 0(r2),r3
            nop
            st r3,@100
            lim #{STORED},r4
            st r4,0(r2)
            halt
        "
    )
}

fn user_probe(addr: u32, access: &str) -> String {
    format!(
        "{HANDLER}
        main:
            mvi #0,r1
            wsp r1,surprise    ; user mode
            lim #{addr},r2
            {access}
            nop
            trap #0            ; back to the handler
        "
    )
}

#[test]
fn every_address_at_the_top_of_memory_decodes_to_its_window() {
    for engine in [Engine::Reference, Engine::Fast] {
        for set in [Set::None, Set::MapOnly, Set::Full] {
            for addr in NIC_ADDR - 1..MEM_WORDS {
                let at = format!("{engine:?} {set:?} addr {addr:#x}");
                let hit = window(addr, set);

                let m = machine(&supervisor_probe(addr), set, engine, addr);
                assert_eq!(m.mem().peek(103), 0, "{at}: supervisor probe faulted");
                assert_eq!(m.mem().is_device(addr), hit.is_some(), "{at}");
                match hit {
                    None => {
                        assert_eq!(m.mem().peek(100), SENTINEL, "{at}: load missed RAM");
                        assert_eq!(m.mem().peek(addr), STORED, "{at}: store missed RAM");
                    }
                    Some(h) => {
                        assert_eq!(m.mem().peek(100), device_read(h), "{at}: {h:?} read");
                        assert_eq!(m.mem().peek(addr), SENTINEL, "{at}: store reached RAM");
                    }
                }
                if hit == Some(Hit::Console) {
                    assert_eq!(m.console(), Some(&[STORED][..]), "{at}");
                }

                for access in ["ld 0(r2),r3", "st r2,0(r2)"] {
                    let m = machine(&user_probe(addr, access), set, engine, addr);
                    let cause = Surprise::from_raw(m.mem().peek(103)).cause();
                    let expected = match hit {
                        Some(_) => Cause::Privilege,
                        None => Cause::Trap,
                    };
                    assert_eq!(cause, expected, "{at}: user `{access}`");
                }
            }
        }
    }
}

/// Selects page 3, maps it to frame 9, then selects page 5 — the
/// fault handler's `st r2,0(r1)` / `st r2,1(r1)` pair, followed by the
/// start of another.
fn select_then_map() -> Program {
    assemble(&format!(
        "
        main:
            lim #{MAPUNIT_ADDR},r1
            mvi #3,r2
            st r2,0(r1)        ; select page 3
            mvi #9,r2
            st r2,1(r1)        ; map it to frame 9
            mvi #5,r2
            st r2,0(r1)        ; select page 5
            halt
        "
    ))
    .unwrap()
}

fn map_machine(engine: Engine) -> Machine {
    let mut m = Machine::new(select_then_map());
    m.set_engine(engine);
    m.attach_page_map(PageMap::new());
    m
}

#[test]
fn a_restore_between_select_and_map_keeps_the_selected_page() {
    for engine in [Engine::Reference, Engine::Fast] {
        let mut a = map_machine(engine);
        // Three instructions in: page 3 is selected, nothing is mapped.
        a.arm_snapshot(3);
        a.run_steps(u64::MAX).unwrap();
        assert_eq!(a.profile().instructions, 3, "{engine:?}");
        a.disarm_snapshot();
        assert!(a.page_map().unwrap().is_empty(), "{engine:?}");
        let bytes = a.snapshot_bytes();

        a.run().unwrap();
        let expected = vec![(3, 9)];
        assert_eq!(a.page_map().unwrap().resident_pages(), expected);

        // A fresh machine restored from the image maps the page the
        // original selected.
        let mut fresh = map_machine(engine);
        fresh.restore_from_bytes(&bytes).unwrap();
        fresh.run().unwrap();
        assert_eq!(
            fresh.page_map().unwrap().resident_pages(),
            expected,
            "{engine:?}: fresh restore"
        );

        // Rolling the original back (a killed node, a supervisor's panic
        // rollback) forgets the page it selected after the snapshot.
        a.restore_from_bytes(&bytes).unwrap();
        assert!(a.page_map().unwrap().is_empty(), "{engine:?}");
        a.run().unwrap();
        assert_eq!(
            a.page_map().unwrap().resident_pages(),
            expected,
            "{engine:?}: same-machine restore"
        );
    }
}
