//! Work-group native engine: direct-threaded execution of the register IR.
//!
//! [`compile_native`] lowers a *validated* [`RegProgram`] one rung further,
//! from interpreted register code to a pre-resolved handler chain that is
//! dispatched with one indirect call per (possibly fused) instruction:
//!
//! * **Device-function inlining.** Every `Call` site is expanded in place
//!   with its own register *window* — a fresh absolute register range that
//!   plays the role of the callee frame. The PR 4/6 validator proved every
//!   call shape consistent (arity, frame size, single return convention),
//!   which is what licenses replacing the dynamic frame stack with
//!   compile-time window assignment: no frame pushes, no frame pops, no
//!   return-ip bookkeeping at run time. Recursive or uncompiled device
//!   functions make the lowering decline and the dispatcher falls back to
//!   the register engine.
//! * **Pre-decoded handlers.** Each instruction becomes an `NInstr`: a
//!   handler function pointer plus absolute register indices — no operand
//!   decoding, no `match` on the opcode, no frame-base addition in the hot
//!   loop. Conditional branches are specialised per comparison and
//!   polarity, builtins per function, loads and stores per element type.
//! * **Pre-resolved memory sites.** A load/store whose pointer register is
//!   never written holds its dispatch template value for the whole run, so
//!   the pointer is decoded *once per dispatch* into a `Site` (buffer
//!   slot, local region, or private memory, with the read-only bit and any
//!   unknown-slot trap pre-computed). The hot path keeps only the
//!   `checked_offset` bounds test the validator could not discharge
//!   statically.
//! * **Superinstruction fusion.** Block-entry `Ops` charges fold into the
//!   following instruction — every handler has a charge slot (`t` for
//!   straight-line handlers, `imm` for branches), so op accounting costs
//!   no dispatch of its own. Frequent adjacent pairs (loop increment +
//!   compare-branch, address compute + load, load + load, load +
//!   multiply-add, store + increment, …) collapse into one handler, and
//!   the code is compacted — fused slots disappear and jump targets are
//!   remapped — roughly halving dispatches on the benchmark hot loops.
//! * **Pointer copy propagation.** A load or store whose pointer register
//!   was, on every path from the entry, last written by a `Mov` from a
//!   never-written register (how the stack compiler binds a private array,
//!   or holds a buffer pointer in a stack slot across a branch) is
//!   dereferenced through that register instead, so those accesses become
//!   sites too.
//! * **Work-group specialisation.** The execution state is split in two:
//!   `NCtx`, built once per dispatch (buffers, sites, sizes, group id),
//!   and `NItem`, the per-work-item rest (register file, private memory,
//!   ids, op counter, resume point). Barrier-free kernels run their items
//!   through a few reused `NItem` arenas (pocl's work-group function
//!   transformation, specialised to the no-barrier case): per-item set-up
//!   copies from the template only the registers an item could otherwise
//!   read from its predecessor — those the kernel writes and may read
//!   before writing, live at its entry — and `fill(0)`s private memory.
//!   Kernels with barriers keep one `NItem` per item of the group
//!   — pocl's context arrays — and run the group phase by phase: every
//!   item from its saved instruction pointer to its next barrier or to
//!   completion (see *The strip rule* below).
//! * **Strip mode.** Up to `STRIP` (16) consecutive dim-0 work-items of a
//!   group — fewer when `local_size[0]` is smaller or leaves a remainder —
//!   advance together where the strip rule (below) admits them:
//!   one indirect call runs the *scalar* handler body on each lane's own
//!   `NItem` in item order, for as long as every lane returns the same
//!   successor. This is pocl's work-item loop inside an interpreter: the
//!   indirect call, operand decode and charge test are paid once per 16
//!   items, and the lanes' independent dependency chains overlap. Every
//!   handler's strip twin is the one generic wrapper `strip`
//!   monomorphised on it (the `hp!` macro pairs them where the lowering
//!   picks a handler); there is no second handler set. A handler that goes
//!   through one memory site has its body written over a `Mem` accessor
//!   (`hp_mem!`): its strip twin fetches the `Site`, tests its kind and
//!   resolves the buffer or local region to its bytes once per strip, not
//!   once per lane.
//!
//!   *Unzip.* The first lane that returns a different successor, or traps
//!   (bounds, division by zero, op budget), stops the strip: the lanes
//!   below it have executed the instruction and agree on where to go, it
//!   has executed it with its own outcome, the lanes above have not
//!   executed it. The strip then splits around that lane, in item order:
//!   the lower lanes continue as a strip of their own, the stopping lane
//!   finishes on the scalar loop, the upper lanes continue as a strip.
//!   Strips only ever split — nothing re-converges and nothing is masked
//!   — down to single lanes on the scalar loop, and each part runs to
//!   completion before the next starts.
//!
//!   *Op budget.* The lanes of a strip retire the same instructions, so a
//!   loop they share costs `STRIP` times its scalar op count. The strip's
//!   first lane may spend `MAX_ITEM_OPS / STRIP` in it; past that it
//!   leaves for the scalar loop and the rest go on as a strip. A runaway
//!   loop then traps, with the scalar path's message and global id, after
//!   about twice the scalar path's ops instead of `STRIP` times; a loop
//!   that ends under the budget still completes.
//!
//!   *The strip rule.* The engine alone decides, from the code it runs,
//!   with no option to set and nothing taken from the source's word. A
//!   *region* is the code reachable from the kernel entry or from the
//!   instruction after a barrier without passing a barrier; a phase runs
//!   every item of a group through one region, and a barrier-free kernel
//!   is one region run in one phase. `regions` asks of each region the one
//!   question a strip needs answered: can two lanes of one strip — items
//!   that differ only in `lid0`, by 1 to `w − 1` — touch one local or
//!   global element, one of the two accesses a store? It answers from
//!   exact index forms over `lid0` and strip-uniform symbols at build
//!   time, and discharges the rest once per dispatch against the concrete
//!   binding (arguments, sizes, the strip width). A barrier-free dispatch
//!   runs in strips when its one region is race-free, with no per-strip
//!   check; a barrier kernel's phase runs its rows in strips where its
//!   region is race-free and the strip's lanes resume together at the
//!   region's entry holding the entry values its analysis took as
//!   uniform. Everything else runs one lane wide, item by item in item
//!   order, and a dispatch that runs one lane wide throughout names on
//!   the kernel span's `scalar_why` what kept it there: a dynamic pointer,
//!   or the first store/access pair the rule could not discharge. The
//!   phase loop and its divergent-barrier trap are the driver's barrier
//!   sweep; this engine supplies only the per-row phase body (`run_phase`).
//!   `strip_items` counts the items that started a phase in a strip, once
//!   per phase.
//!
//!   *Why that is sound.* The reference semantics is the sequential sweep:
//!   item 0 of a phase to its stop, then item 1, … A strip interleaves
//!   items at instruction granularity, so it must leave the same bytes,
//!   the same per-item op counts and the same first trap. Strips run one
//!   after another in item order, so only the lanes of one strip ever
//!   interleave, and the rule proves that no two of them touch one
//!   element with a store among the two accesses. (1) No lane can observe
//!   another's write: registers and private memory are per lane, and every
//!   local or global element a lane reads is one no other lane of its
//!   strip writes — so every lane computes exactly what it would alone,
//!   including its op count and whether and where it traps. (2) The final
//!   bytes agree: each element has at most one writing lane per strip,
//!   whose stores keep their program order, and strips run in item
//!   order, so the last writer of every byte is the one the sequential
//!   sweep has. (3) The first trap agrees: a trapping lane only *stops*
//!   the strip; every lower lane then runs to completion, and may report
//!   its own trap, before the stopping lane's trap is taken. After a trap
//!   the buffers hold partial results, as on every engine — with strips
//!   these may include stores of items above the trapping one, which
//!   nothing observes (the dispatch failed). Debug builds re-check every
//!   dispatch that ran a strip: it runs a second time, one lane wide, over
//!   a copy of the buffers, and bytes, `group_ops` and trap must agree
//!   (`run_window`; release builds pay nothing).
//!
//! The engine is observationally identical to the stack and register
//! engines: byte-identical buffers, identical `group_ops` (the `Ops`
//! block-entry charges are kept as-is, fused but never re-associated,
//! and applied per lane by the unchanged handler bodies), and identical
//! trap messages/global-ids in the same order. The differential triangle
//! in `tests/engine_diff.rs` pins all three engines together on every
//! generated app kernel and the proptest corpus, including kernels built
//! to conflict across items.

use super::ast::Space;
use super::bytecode::{Builtin, Cmp, ElemTy, KernelInfo};
use super::driver::{
    drive, register_template, stray_barrier, Geometry, GroupEngine, Stop,
};
use super::interp::{checked_offset, oob, MemPool, PtrV, RtArg, Trap, MAX_ITEM_OPS};
use super::regir::{read_reg, write_reg, RFunc, ROp, RVal, RegProgram};
use std::collections::HashMap;
use std::ops::Range;

mod regions;

// ---------------------------------------------------------------------------
// Instruction format
// ---------------------------------------------------------------------------

/// Handler function: executes one (possibly fused) instruction for one
/// work-item and returns the next instruction index, or a halt sentinel
/// (`>= IP_HALT_MIN`).
type H = for<'a> fn(&mut NItem, &mut NCtx<'a>, &NInstr, u32) -> u32;

/// Strip twin of a handler: the same body applied to every lane of a
/// strip under one dispatch (see [`strip`]).
type SH = for<'a> fn(&mut [NItem], &mut NCtx<'a>, &NInstr, u32) -> u32;

/// A scalar handler paired with its strip twin; built only by [`hp!`].
type HP = (H, SH);

/// Halt sentinels returned in place of a next-instruction index.
const IP_DONE: u32 = u32::MAX;
const IP_BARRIER: u32 = u32::MAX - 1;
const IP_TRAP: u32 = u32::MAX - 2;
/// Strip mode only: the lanes stopped agreeing (see [`Unzip`]).
const IP_UNZIP: u32 = u32::MAX - 3;
const IP_HALT_MIN: u32 = IP_UNZIP;

/// Work-items that advance together under one handler dispatch.
const STRIP: usize = 16;

/// What debug builds leave in a register that is dead at the kernel entry
/// when a work-item starts: no item may read it.
const DEAD: RVal = RVal([0xdead_dead_dead_dead; 2]);

/// One pre-decoded native instruction: a handler pointer plus flat operand
/// fields. Register fields (`a`..`g`) are *absolute* indices into the
/// dispatch register file (windows already applied). `t` is the jump
/// target for branch handlers and the folded block-entry op charge for
/// every other handler; branches take their folded charge through `imm`
/// instead, which otherwise carries a memory-site index, a constant, or a
/// packed extra operand depending on the handler.
#[derive(Clone, Copy)]
struct NInstr {
    f: H,
    sf: SH,
    imm: u64,
    t: u32,
    a: u16,
    b: u16,
    c: u16,
    d: u16,
    e: u16,
    g: u16,
}

impl std::fmt::Debug for NInstr {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("NInstr")
            .field("imm", &self.imm)
            .field("t", &self.t)
            .field("a", &self.a)
            .field("b", &self.b)
            .field("c", &self.c)
            .field("d", &self.d)
            .field("e", &self.e)
            .field("g", &self.g)
            .finish()
    }
}

/// Where a pre-resolved memory access lands. Resolved once per dispatch
/// from the (never-written) pointer register's template value — including
/// the *failure* cases, which must still trap at first execution with the
/// exact message the register engine produces, not at resolve time.
#[derive(Debug, Clone, Copy)]
struct Site {
    kind: SiteKind,
    slot: u32,
    base: u32,
    ro: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SiteKind {
    Global,
    Local,
    Priv,
    BadGlobal,
    BadLocal,
}

/// Per-work-item half of the execution state: what differs between the
/// items of a group. A kernel with barriers keeps one per item of the
/// group, a barrier-free strip one per lane, the scalar path reuses a
/// single one.
pub(super) struct NItem {
    regs: Vec<RVal>,
    priv_mem: Vec<u8>,
    /// Where to resume after a barrier.
    ip: u32,
    gid: [usize; 3],
    lid: [usize; 3],
    ops: u64,
    /// How the item last stopped: [`IP_DONE`] or [`IP_BARRIER`].
    halt: u32,
    trap: Option<Trap>,
}

impl NItem {
    /// Why the item last stopped.
    fn stop(&self) -> Stop {
        if self.halt == IP_DONE {
            Stop::Done
        } else {
            Stop::Barrier
        }
    }
}

/// Dispatch-wide half of the execution state, built once per ND-range;
/// only `geo.group_id` (and the contents of `local_regions`) change
/// between groups.
struct NCtx<'a> {
    bufs: &'a mut [Vec<u8>],
    read_only: &'a [bool],
    local_regions: Vec<Vec<u8>>,
    sites: &'a [Site],
    geo: Geometry,
    /// Set by [`strip`] when it returns [`IP_UNZIP`].
    unzip: Unzip,
}

/// Where and how a strip stopped advancing together, at instruction `at`:
/// lanes below `lane` executed it and all continue at `below_ip`; `lane`
/// executed it and got `lane_next` (another successor, or a trap); lanes
/// above it have not executed it.
#[derive(Clone, Copy, Default)]
struct Unzip {
    at: u32,
    lane: usize,
    below_ip: u32,
    lane_next: u32,
}

/// A kernel lowered to the native engine, ready to dispatch any number of
/// times.
///
/// Produced by [`compile_native`] from an already-validated
/// [`RegProgram`], executed by [`run_ndrange`](super::run_ndrange) as
/// [`Lowered::Native`](super::Lowered). Observationally identical to the
/// register engine (buffers, `group_ops`, traps).
#[derive(Debug, Clone)]
pub struct NativeProgram {
    code: Vec<NInstr>,
    entry: u32,
    /// Total absolute registers: the main frame plus every inline window.
    total_regs: u32,
    /// End of the main frame's locals + canonical stack slots. Everything
    /// at or above this is either a constant (never written — enforced by
    /// the lowering) or an inline window (written before read on every
    /// activation by the call sequence).
    main_const_base: u16,
    /// The registers below `main_const_base` a work-item start copies from
    /// the template, as runs: the written ones live at the entry, and the
    /// ones a barrier region's strips check.
    reset_runs: Vec<Range<u16>>,
    /// The written registers below `main_const_base` that are dead at the
    /// entry; debug builds fill them with [`DEAD`] at every work-item start.
    dead: Vec<u16>,
    /// Static template tail covering `[main_const_base, total_regs)`:
    /// the main constant pool followed by every window's zeroed locals and
    /// constant pool.
    template_static: Vec<RVal>,
    /// One entry per pre-resolved memory [`Site`]: the pointer register it
    /// is decoded from (per dispatch, from the template).
    site_ptrs: Vec<u16>,
    /// The kernel's regions, by entry instruction, with what their race
    /// analysis found: the kernel entry's first, then one per barrier.
    regions: Vec<(u32, regions::Region)>,
    /// The forms the regions' checks name.
    forms: regions::Forms,
}

/// What kept a dispatch one lane wide: the first thing the strip rule
/// (see the module documentation) could not discharge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripReject {
    /// A load or store goes through a pointer register that is written.
    DynamicPointer,
    /// A store to `slot`, and an access to the same slot — a store too when
    /// `store` — that two lanes of one strip may make to one element.
    Race {
        /// The slot is a `__local` region, not a buffer.
        local: bool,
        /// Buffer slot or local region index.
        slot: u32,
        /// The second access is a store.
        store: bool,
    },
}

impl std::fmt::Display for StripReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StripReject::DynamicPointer => f.write_str("dynamic pointer"),
            StripReject::Race { local, slot, store } => write!(
                f,
                "store+{} {} slot {slot}",
                if *store { "store" } else { "load" },
                if *local { "local" } else { "global" }
            ),
        }
    }
}

/// Strip-mode tallies of a dispatch (all zero on the other engines).
#[derive(Debug, Clone, Default)]
pub struct StripStats {
    /// Work-items that started in a strip of two or more lanes; a kernel
    /// with barriers counts an item once per phase it starts in one.
    pub items: u64,
    /// Times the lanes of a strip stopped agreeing and it split.
    pub unzips: u64,
    /// For a dispatch that ran one lane wide throughout although its
    /// groups are wider: what the strip rule could not discharge.
    pub scalar_why: Option<StripReject>,
}

impl StripStats {
    /// Fold in the tallies of another window of the same dispatch.
    pub fn absorb(&mut self, other: &StripStats) {
        self.items += other.items;
        self.unzips += other.unzips;
        self.scalar_why = self.scalar_why.or(other.scalar_why);
    }
}

impl NativeProgram {
    /// Number of native instructions (fused pairs count once, plus their
    /// padding slot).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program has no instructions (never produced by
    /// [`compile_native`], which emits at least a halt).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Handler building blocks
// ---------------------------------------------------------------------------

// SAFETY argument for the unchecked register accesses in the handlers:
// `compile_native` checks every register field of every emitted instruction
// against `total_regs`, and every dispatch path (scalar, barrier phase, strip)
// hands each handler items whose `regs` hold exactly `total_regs` elements.
// Instruction fetch is unchecked too: every jump target is checked against
// the code length at lowering time, and a fall-through `ip + 1` successor
// is checked to exist for every non-terminal instruction. Debug builds
// (the default test profile) re-check each of these on every access.
macro_rules! rg {
    ($st:expr, $r:expr) => {{
        debug_assert!(
            ($r as usize) < $st.regs.len(),
            "register operand out of range"
        );
        // SAFETY: see the module invariant above.
        unsafe { *$st.regs.get_unchecked($r as usize) }
    }};
}
macro_rules! sw {
    ($st:expr, $r:expr, $v:expr) => {{
        let v = $v;
        debug_assert!(
            ($r as usize) < $st.regs.len(),
            "register operand out of range"
        );
        // SAFETY: see the module invariant above.
        unsafe { *$st.regs.get_unchecked_mut($r as usize) = v };
    }};
}

// Folded block-entry op charge. The lowering absorbs each `ROp::Ops(n)`
// into the *following* instruction: straight-line handlers carry the
// charge in `i.t` (their jump-target field is otherwise unused), branch
// handlers carry it in `i.imm`. The charge is applied before the
// instruction's own effects, so a budget trap fires at exactly the same
// program point where the register engine charges the block.
macro_rules! chgt {
    ($st:expr, $i:expr) => {
        if $i.t != 0 {
            $st.ops += $i.t as u64;
            if $st.ops > MAX_ITEM_OPS {
                return trap_budget($st);
            }
        }
    };
}
macro_rules! chgi {
    ($st:expr, $i:expr) => {
        if $i.imm != 0 {
            $st.ops += $i.imm;
            if $st.ops > MAX_ITEM_OPS {
                return trap_budget($st);
            }
        }
    };
}

#[cold]
#[inline(never)]
fn trap(st: &mut NItem, message: String) -> u32 {
    st.trap = Some(Trap {
        message,
        global_id: st.gid,
    });
    IP_TRAP
}

#[cold]
#[inline(never)]
fn trap_budget(st: &mut NItem) -> u32 {
    trap(
        st,
        "work-item exceeded the op budget (infinite loop?)".to_string(),
    )
}

/// The invariant `load_site` / `store_site` index on, for debug builds.
fn slot_in_range(cx: &NCtx, s: &Site) -> bool {
    match s.kind {
        SiteKind::Global => (s.slot as usize) < cx.bufs.len(),
        SiteKind::Local => (s.slot as usize) < cx.local_regions.len(),
        _ => true,
    }
}

/// Fetch a pre-resolved site.
#[inline(always)]
fn site_at(sites: &[Site], site: usize) -> &Site {
    debug_assert!(site < sites.len(), "site index out of range");
    // SAFETY: site indices are assigned densely at lowering time and the
    // dispatch builds `sites` with exactly that many entries; the
    // collection does not change during a dispatch.
    unsafe { sites.get_unchecked(site) }
}

#[cold]
#[inline(never)]
fn trap_bad_site(st: &mut NItem, s: &Site) -> u32 {
    let what = if s.kind == SiteKind::BadGlobal {
        "buffer slot"
    } else {
        "local region"
    };
    trap(st, format!("pointer to unknown {what} {}", s.slot))
}

/// Byte offset of element `idx` (of `size` bytes) from `base`, or the
/// trap [`checked_offset`] reports — kept out of line so the handlers'
/// hot path carries no message formatting.
#[inline(always)]
fn site_offset(st: &mut NItem, base: u32, idx: i64, size: usize) -> Result<usize, u32> {
    #[cold]
    #[inline(never)]
    fn bad_index(st: &mut NItem, base: u32, idx: i64, size: usize) -> u32 {
        st.trap = checked_offset(st.gid, base, idx, size).err();
        debug_assert!(st.trap.is_some());
        IP_TRAP
    }
    match usize::try_from(idx)
        .ok()
        .and_then(|i| i.checked_mul(size))
        .and_then(|b| b.checked_add(base as usize))
    {
        Some(byte) => Ok(byte),
        None => Err(bad_index(st, base, idx, size)),
    }
}

#[cold]
#[inline(never)]
fn trap_oob(st: &mut NItem, byte: usize, size: usize, len: usize) -> u32 {
    st.trap = Some(oob(st.gid, byte, size, len));
    IP_TRAP
}

/// Load through a pre-resolved site. Trap order mirrors the register
/// engine's `load`: `checked_offset` first, then the unknown-slot cases,
/// then the bounds check against the region.
#[inline(always)]
fn load_site(st: &mut NItem, cx: &NCtx, site: usize, idx: i64, ty: ElemTy) -> Result<RVal, u32> {
    let s = site_at(cx.sites, site);
    let size = ty.byte_size();
    let byte = site_offset(st, s.base, idx, size)?;
    debug_assert!(slot_in_range(cx, s), "site slot out of range");
    // An `if` chain in frequency order, not a `match`: two predictable
    // branches instead of an indirect jump per access.
    let bytes: &[u8] = if s.kind == SiteKind::Global {
        // SAFETY: `Global` / `Local` sites are only resolved when the slot
        // was in range (see `resolve_site`), and neither collection
        // changes length during a dispatch.
        unsafe { cx.bufs.get_unchecked(s.slot as usize) }
    } else if s.kind == SiteKind::Priv {
        &st.priv_mem
    } else if s.kind == SiteKind::Local {
        // SAFETY: as for `Global`.
        unsafe { cx.local_regions.get_unchecked(s.slot as usize) }
    } else {
        return Err(trap_bad_site(st, s));
    };
    match read_reg(bytes, byte, ty) {
        Some(v) => Ok(v),
        None => Err(trap_oob(st, byte, size, bytes.len())),
    }
}

/// Store through a pre-resolved site; trap order mirrors the register
/// engine's `store` (`checked_offset`, unknown slot, read-only, bounds).
#[inline(always)]
fn store_site(
    st: &mut NItem,
    cx: &mut NCtx,
    site: usize,
    idx: i64,
    ty: ElemTy,
    v: RVal,
) -> Result<(), u32> {
    let s = site_at(cx.sites, site);
    let size = ty.byte_size();
    let byte = site_offset(st, s.base, idx, size)?;
    debug_assert!(slot_in_range(cx, s), "site slot out of range");
    let bytes: &mut [u8] = if s.kind == SiteKind::Global {
        // SAFETY: see `load_site` — slot range proven at site resolution.
        unsafe { cx.bufs.get_unchecked_mut(s.slot as usize) }
    } else if s.kind == SiteKind::Priv {
        &mut st.priv_mem
    } else if s.kind == SiteKind::Local {
        // SAFETY: as for `Global`.
        unsafe { cx.local_regions.get_unchecked_mut(s.slot as usize) }
    } else {
        return Err(trap_bad_site(st, s));
    };
    if s.ro {
        return Err(trap(
            st,
            "write through const/__constant pointer".to_string(),
        ));
    }
    let len = bytes.len();
    match write_reg(bytes, byte, ty, v) {
        Some(()) => Ok(()),
        None => Err(trap_oob(st, byte, size, len)),
    }
}

/// Dynamic load: decode the pointer register at run time (only used when
/// the pointer register is written somewhere, e.g. a pointer passed into
/// an inlined device function). Mirrors the register engine's `load`.
fn dyn_load(st: &mut NItem, cx: &NCtx, p: PtrV, idx: i64, ty: ElemTy) -> Result<RVal, u32> {
    let size = ty.byte_size();
    let byte = match checked_offset(st.gid, p.base, idx, size) {
        Ok(b) => b,
        Err(t) => {
            st.trap = Some(t);
            return Err(IP_TRAP);
        }
    };
    let slot = p.slot as usize;
    let bytes: &[u8] = match p.space {
        Space::Private => &st.priv_mem,
        Space::Global | Space::Constant => match cx.bufs.get(slot) {
            Some(b) => b,
            None => return Err(trap(st, format!("pointer to unknown buffer slot {slot}"))),
        },
        Space::Local => match cx.local_regions.get(slot) {
            Some(r) => r,
            None => return Err(trap(st, format!("pointer to unknown local region {slot}"))),
        },
    };
    match read_reg(bytes, byte, ty) {
        Some(v) => Ok(v),
        None => {
            let len = bytes.len();
            st.trap = Some(oob(st.gid, byte, size, len));
            Err(IP_TRAP)
        }
    }
}

/// Dynamic store; mirrors the register engine's `store`.
fn dyn_store(
    st: &mut NItem,
    cx: &mut NCtx,
    p: PtrV,
    idx: i64,
    ty: ElemTy,
    v: RVal,
) -> Result<(), u32> {
    let size = ty.byte_size();
    let byte = match checked_offset(st.gid, p.base, idx, size) {
        Ok(b) => b,
        Err(t) => {
            st.trap = Some(t);
            return Err(IP_TRAP);
        }
    };
    let slot = p.slot as usize;
    let bytes: &mut [u8] = match p.space {
        Space::Private => &mut st.priv_mem,
        Space::Global | Space::Constant => {
            if slot >= cx.bufs.len() {
                return Err(trap(st, format!("pointer to unknown buffer slot {slot}")));
            }
            if cx.read_only[slot] || p.space == Space::Constant {
                return Err(trap(
                    st,
                    "write through const/__constant pointer".to_string(),
                ));
            }
            &mut cx.bufs[slot]
        }
        Space::Local => match cx.local_regions.get_mut(slot) {
            Some(r) => r,
            None => return Err(trap(st, format!("pointer to unknown local region {slot}"))),
        },
    };
    let len = bytes.len();
    match write_reg(bytes, byte, ty, v) {
        Some(()) => Ok(()),
        None => {
            st.trap = Some(oob(st.gid, byte, size, len));
            Err(IP_TRAP)
        }
    }
}

/// Fetch an instruction.
#[inline(always)]
fn instr_at(code: &[NInstr], ip: u32) -> &NInstr {
    debug_assert!((ip as usize) < code.len(), "instruction index out of range");
    // SAFETY: jump targets and fall-through successors were checked
    // against the code length at lowering time.
    unsafe { code.get_unchecked(ip as usize) }
}

/// The direct-threaded dispatch loop: fetch, call handler, follow the
/// returned instruction index until a halt sentinel comes back.
#[inline(always)]
fn exec(code: &[NInstr], mut ip: u32, st: &mut NItem, cx: &mut NCtx) -> u32 {
    loop {
        let i = instr_at(code, ip);
        let next = (i.f)(st, cx, i, ip);
        if next >= IP_HALT_MIN {
            return next;
        }
        ip = next;
    }
}

/// The op count a strip's first lane may spend in it before it leaves
/// the strip for the scalar path. The lanes of a strip retire the same
/// instructions, so a loop they share runs `STRIP` times its count per
/// budget unit; leaving early makes a runaway loop trap after about twice
/// the scalar path's ops instead of `STRIP` times.
const STRIP_SHARE: u64 = MAX_ITEM_OPS / STRIP as u64;

/// The strip dispatch loop: one indirect call advances every lane. Ends
/// with `IP_DONE` / `IP_BARRIER` (every lane finished, or reached a
/// barrier, together) or `IP_UNZIP` (`cx.unzip` says where and how) — also
/// when the first lane has spent [`STRIP_SHARE`]: it then goes on alone,
/// and the rest as a strip, from the instruction all of them reached.
#[inline(always)]
fn exec_strip(code: &[NInstr], mut ip: u32, lanes: &mut [NItem], cx: &mut NCtx) -> u32 {
    let share_end = lanes[0].ops.saturating_add(STRIP_SHARE);
    loop {
        let i = instr_at(code, ip);
        let next = (i.sf)(lanes, cx, i, ip);
        if next >= IP_HALT_MIN {
            return next;
        }
        if lanes[0].ops > share_end {
            cx.unzip = Unzip {
                at: next,
                lane: 0,
                below_ip: next,
                lane_next: next,
            };
            return IP_UNZIP;
        }
        ip = next;
    }
}

/// The one lane loop: run `f` on each lane in item order for as long as
/// the lanes agree on the successor. The first lane that traps or
/// disagrees stops the strip, and the loop says where and how (see
/// [`Unzip`]); the lanes above it are left untouched at `ip`. Handlers are
/// `#[inline(always)]` so that their body, not a call to it, sits in this
/// loop (measured: a called body gives back most of the gain).
#[inline(always)]
fn lanes_agree(mut f: impl FnMut(&mut NItem) -> u32, lanes: &mut [NItem], ip: u32) -> Result<u32, Unzip> {
    let mut below_ip = 0;
    for (lane, st) in lanes.iter_mut().enumerate() {
        let next = f(st);
        if lane == 0 {
            below_ip = next;
        }
        if next != below_ip || next == IP_TRAP {
            return Err(Unzip {
                at: ip,
                lane,
                below_ip,
                lane_next: next,
            });
        }
    }
    Ok(below_ip)
}

/// The successor the lanes agreed on, or [`IP_UNZIP`] with the record.
#[inline(always)]
fn settle(agreed: Result<u32, Unzip>, record: &mut Unzip) -> u32 {
    agreed.unwrap_or_else(|stop| {
        *record = stop;
        IP_UNZIP
    })
}

/// The strip twin of scalar handler `f`.
#[inline(always)]
fn strip(
    f: impl Fn(&mut NItem, &mut NCtx, &NInstr, u32) -> u32,
    lanes: &mut [NItem],
    cx: &mut NCtx,
    i: &NInstr,
    ip: u32,
) -> u32 {
    let agreed = lanes_agree(|st| f(st, cx, i, ip), lanes, ip);
    settle(agreed, &mut cx.unzip)
}

/// Pair scalar handler `$h` with its strip twin: [`strip`] monomorphised
/// on `$h`. Every handler the lowering emits goes through here, so there
/// is no second handler set to keep in step.
macro_rules! hp {
    ($h:expr) => {{
        let sf: SH = |lanes, cx, i, ip| strip($h, lanes, cx, i, ip);
        ($h as H, sf)
    }};
}

/// Where the one site of a memory handler lands. The handler body is
/// written once over this; [`hp_mem!`] instantiates it twice.
trait Mem {
    fn load(&mut self, st: &mut NItem, idx: i64, ty: ElemTy) -> Result<RVal, u32>;
    fn store(&mut self, st: &mut NItem, idx: i64, ty: ElemTy, v: RVal) -> Result<(), u32>;
}

/// The scalar path: fetch the site, test its kind and find its bytes at
/// every access.
struct AtSite<'c, 'a> {
    cx: &'c mut NCtx<'a>,
    site: usize,
}

impl Mem for AtSite<'_, '_> {
    #[inline(always)]
    fn load(&mut self, st: &mut NItem, idx: i64, ty: ElemTy) -> Result<RVal, u32> {
        load_site(st, self.cx, self.site, idx, ty)
    }

    #[inline(always)]
    fn store(&mut self, st: &mut NItem, idx: i64, ty: ElemTy, v: RVal) -> Result<(), u32> {
        store_site(st, self.cx, self.site, idx, ty, v)
    }
}

/// A strip's site in a buffer or a local region, fetched, tested and
/// resolved to its bytes once for all lanes. Trap order as in
/// [`load_site`] / [`store_site`] (the unknown-slot case cannot arise).
struct Shared<'b> {
    base: u32,
    ro: bool,
    bytes: &'b mut [u8],
}

impl Mem for Shared<'_> {
    #[inline(always)]
    fn load(&mut self, st: &mut NItem, idx: i64, ty: ElemTy) -> Result<RVal, u32> {
        let size = ty.byte_size();
        let byte = site_offset(st, self.base, idx, size)?;
        match read_reg(self.bytes, byte, ty) {
            Some(v) => Ok(v),
            None => Err(trap_oob(st, byte, size, self.bytes.len())),
        }
    }

    #[inline(always)]
    fn store(&mut self, st: &mut NItem, idx: i64, ty: ElemTy, v: RVal) -> Result<(), u32> {
        let size = ty.byte_size();
        let byte = site_offset(st, self.base, idx, size)?;
        if self.ro {
            return Err(trap(
                st,
                "write through const/__constant pointer".to_string(),
            ));
        }
        let len = self.bytes.len();
        match write_reg(self.bytes, byte, ty, v) {
            Some(()) => Ok(()),
            None => Err(trap_oob(st, byte, size, len)),
        }
    }
}

/// [`hp!`] for a handler that goes through one memory site (`imm`): its
/// strip twin fetches the [`Site`], tests its kind and resolves the
/// buffer or local region once per strip instead of once per lane, and
/// falls back to the per-lane path for private memory and unknown slots.
macro_rules! hp_mem {
    ($h:ident $(, $c:expr)?) => {{
        let f: H = |st, cx, i, ip| {
            let mut m = AtSite {
                cx,
                site: i.imm as usize,
            };
            $h::<$($c,)? _>(st, &mut m, i, ip)
        };
        let sf: SH = |lanes, cx, i, ip| {
            let s = *site_at(cx.sites, i.imm as usize);
            let NCtx {
                bufs,
                local_regions,
                unzip,
                ..
            } = cx;
            let bytes: &mut [u8] = match s.kind {
                SiteKind::Global => &mut bufs[s.slot as usize],
                SiteKind::Local => &mut local_regions[s.slot as usize],
                _ => {
                    let at_site = |st: &mut NItem, cx: &mut NCtx, i: &NInstr, ip| {
                        let mut m = AtSite {
                            cx,
                            site: i.imm as usize,
                        };
                        $h::<$($c,)? _>(st, &mut m, i, ip)
                    };
                    return strip(at_site, lanes, cx, i, ip);
                }
            };
            let mut m = Shared {
                base: s.base,
                ro: s.ro,
                bytes,
            };
            settle(lanes_agree(|st| $h::<$($c,)? _>(st, &mut m, i, ip), lanes, ip), unzip)
        };
        (f, sf)
    }};
}

// ---------------------------------------------------------------------------
// Single-instruction handlers
// ---------------------------------------------------------------------------

/// Comparison selected at monomorphisation time (0=Eq 1=Ne 2=Lt 3=Le 4=Gt
/// 5=Ge) — each conditional branch gets its own specialised handler.
#[inline(always)]
fn cmpi_c<const C: u8>(a: i64, b: i64) -> bool {
    match C {
        0 => a == b,
        1 => a != b,
        2 => a < b,
        3 => a <= b,
        4 => a > b,
        _ => a >= b,
    }
}

#[inline(always)]
fn cmpf_c<const C: u8>(a: f64, b: f64) -> bool {
    match C {
        0 => a == b,
        1 => a != b,
        2 => a < b,
        3 => a <= b,
        4 => a > b,
        _ => a >= b,
    }
}

const fn cmp_code(c: Cmp) -> u8 {
    match c {
        Cmp::Eq => 0,
        Cmp::Ne => 1,
        Cmp::Lt => 2,
        Cmp::Le => 3,
        Cmp::Gt => 4,
        Cmp::Ge => 5,
    }
}

/// Invert an integer comparison; exact for integers (unlike floats, where
/// `!(a < b)` differs from `a >= b` under NaN — float branches keep both
/// polarities instead).
fn cmp_inv(c: Cmp) -> Cmp {
    match c {
        Cmp::Eq => Cmp::Ne,
        Cmp::Ne => Cmp::Eq,
        Cmp::Lt => Cmp::Ge,
        Cmp::Ge => Cmp::Lt,
        Cmp::Gt => Cmp::Le,
        Cmp::Le => Cmp::Gt,
    }
}

#[inline(always)]
fn h_ops(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.ops += i.imm;
    if st.ops > MAX_ITEM_OPS {
        return trap_budget(st);
    }
    ip + 1
}

#[inline(always)]
fn h_mov(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, rg!(st, i.b));
    ip + 1
}

#[inline(always)]
fn h_swap(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.regs.swap(i.a as usize, i.b as usize);
    ip + 1
}

/// Integer binary op: `a = expr(b, c)`.
macro_rules! hbi {
    ($name:ident, $x:ident, $y:ident, $e:expr) => {
        #[inline(always)]
        fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let ($x, $y) = (rg!(st, i.b).i(), rg!(st, i.c).i());
            sw!(st, i.a, RVal::from_i($e));
            ip + 1
        }
    };
}
hbi!(h_addi, x, y, x.wrapping_add(y));
hbi!(h_subi, x, y, x.wrapping_sub(y));
hbi!(h_muli, x, y, x.wrapping_mul(y));
hbi!(h_shl, x, y, x.wrapping_shl(y as u32));
hbi!(h_shr, x, y, x.wrapping_shr(y as u32));
hbi!(h_band, x, y, x & y);
hbi!(h_bor, x, y, x | y);
hbi!(h_bxor, x, y, x ^ y);
hbi!(h_mini, x, y, x.min(y));
hbi!(h_maxi, x, y, x.max(y));

#[inline(always)]
fn h_divi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (x, y) = (rg!(st, i.b).i(), rg!(st, i.c).i());
    if y == 0 {
        return trap(st, "integer division by zero".to_string());
    }
    sw!(st, i.a, RVal::from_i(x.wrapping_div(y)));
    ip + 1
}

/// Integer division by a constant power of two, `2^g` with `g ≥ 1`: a
/// shift with the rounding-toward-zero bias, exactly `wrapping_div`.
#[inline(always)]
fn h_divi_p2(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let x = rg!(st, i.b).i();
    let bias = ((x >> 63) as u64 >> (64 - i.g as u32)) as i64;
    sw!(st, i.a, RVal::from_i((x + bias) >> i.g));
    ip + 1
}

#[inline(always)]
fn h_remi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (x, y) = (rg!(st, i.b).i(), rg!(st, i.c).i());
    if y == 0 {
        return trap(st, "integer remainder by zero".to_string());
    }
    sw!(st, i.a, RVal::from_i(x.wrapping_rem(y)));
    ip + 1
}

/// Float binary op: `a = expr(b, c)`.
macro_rules! hbf {
    ($name:ident, $x:ident, $y:ident, $e:expr) => {
        #[inline(always)]
        fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let ($x, $y) = (rg!(st, i.b).f(), rg!(st, i.c).f());
            sw!(st, i.a, RVal::from_f($e));
            ip + 1
        }
    };
}
hbf!(h_addf, x, y, x + y);
hbf!(h_subf, x, y, x - y);
hbf!(h_mulf, x, y, x * y);
hbf!(h_divf, x, y, x / y);
hbf!(h_pow, x, y, x.powf(y));
hbf!(h_fmin, x, y, x.min(y));
hbf!(h_fmax, x, y, x.max(y));
hbf!(h_m2f_other, x, _y, x);

/// Unary int op: `a = expr(b)`.
macro_rules! hui {
    ($name:ident, $x:ident, $e:expr) => {
        #[inline(always)]
        fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let $x = rg!(st, i.b).i();
            sw!(st, i.a, RVal::from_i($e));
            ip + 1
        }
    };
}
hui!(h_negi, x, x.wrapping_neg());
hui!(h_bnot, x, !x);
hui!(h_lnot, x, (x == 0) as i64);
hui!(h_absi, x, x.abs());

/// Unary float op: `a = expr(b)`.
macro_rules! huf {
    ($name:ident, $x:ident, $e:expr) => {
        #[inline(always)]
        fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let $x = rg!(st, i.b).f();
            sw!(st, i.a, RVal::from_f($e));
            ip + 1
        }
    };
}
huf!(h_negf, x, -x);
huf!(h_sqrt, x, x.sqrt());
huf!(h_rsqrt, x, 1.0 / x.sqrt());
huf!(h_fabs, x, x.abs());
huf!(h_floor, x, x.floor());
huf!(h_ceil, x, x.ceil());
huf!(h_exp, x, x.exp());
huf!(h_log, x, x.ln());
huf!(h_sin, x, x.sin());
huf!(h_cos, x, x.cos());
huf!(h_m1_other, x, x);

#[inline(always)]
fn h_i2f(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_f(rg!(st, i.b).i() as f64));
    ip + 1
}

#[inline(always)]
fn h_f2i(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let x = rg!(st, i.b).f();
    sw!(st, i.a, RVal::from_i(if x.is_nan() { 0 } else { x as i64 }));
    ip + 1
}

/// Float4 binary op: `a = expr(b, c)` lane-wise.
macro_rules! hbf4 {
    ($name:ident, $x:ident, $y:ident, $e:expr) => {
        #[inline(always)]
        fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let ($x, $y) = (rg!(st, i.b).f4(), rg!(st, i.c).f4());
            sw!(st, i.a, RVal::from_f4($e));
            ip + 1
        }
    };
}
hbf4!(h_addf4, x, y, [x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]]);
hbf4!(h_subf4, x, y, [x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]]);
hbf4!(h_mulf4, x, y, [x[0] * y[0], x[1] * y[1], x[2] * y[2], x[3] * y[3]]);
hbf4!(h_divf4, x, y, [x[0] / y[0], x[1] / y[1], x[2] / y[2], x[3] / y[3]]);

#[inline(always)]
fn h_splatf4(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let x = rg!(st, i.b).f() as f32;
    sw!(st, i.a, RVal::from_f4([x; 4]));
    ip + 1
}

#[inline(always)]
fn h_makef4(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let v = [
        rg!(st, i.b).f() as f32,
        rg!(st, i.c).f() as f32,
        rg!(st, i.d).f() as f32,
        rg!(st, i.e).f() as f32,
    ];
    sw!(st, i.a, RVal::from_f4(v));
    ip + 1
}

#[inline(always)]
fn h_getcomp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_f(rg!(st, i.b).f4()[i.g as usize] as f64));
    ip + 1
}

#[inline(always)]
fn h_setcomp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let mut v = rg!(st, i.b).f4();
    v[i.g as usize] = rg!(st, i.c).f() as f32;
    sw!(st, i.a, RVal::from_f4(v));
    ip + 1
}

#[inline(always)]
fn h_dot(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (x, y) = (rg!(st, i.b).f4(), rg!(st, i.c).f4());
    let mut acc = 0f64;
    for k in 0..4 {
        acc += x[k] as f64 * y[k] as f64;
    }
    sw!(st, i.a, RVal::from_f(acc));
    ip + 1
}

#[inline(always)]
fn h_clamp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (x, l, h) = (rg!(st, i.b).f(), rg!(st, i.c).f(), rg!(st, i.d).f());
    sw!(st, i.a, RVal::from_f(x.max(l).min(h)));
    ip + 1
}

#[inline(always)]
fn h_mad(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_f(rg!(st, i.b).f() * rg!(st, i.c).f() + rg!(st, i.d).f())
    );
    ip + 1
}

/// `dst = c + a * b` — operand order preserved for float identity.
#[inline(always)]
fn h_madrf(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_f(rg!(st, i.b).f() + rg!(st, i.c).f() * rg!(st, i.d).f())
    );
    ip + 1
}

#[inline(always)]
fn h_madi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(
            rg!(st, i.b)
                .i()
                .wrapping_mul(rg!(st, i.c).i())
                .wrapping_add(rg!(st, i.d).i())
        )
    );
    ip + 1
}

#[inline(always)]
fn h_cmpi_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(cmpi_c::<C>(rg!(st, i.b).i(), rg!(st, i.c).i()) as i64)
    );
    ip + 1
}

#[inline(always)]
fn h_cmpf_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(cmpf_c::<C>(rg!(st, i.b).f(), rg!(st, i.c).f()) as i64)
    );
    ip + 1
}

#[inline(always)]
fn h_jmp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, _ip: u32) -> u32 {
    chgi!(st, i);
    i.t
}

#[inline(always)]
fn h_jz(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    if rg!(st, i.a).i() == 0 {
        i.t
    } else {
        ip + 1
    }
}

#[inline(always)]
fn h_jnz(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    if rg!(st, i.a).i() != 0 {
        i.t
    } else {
        ip + 1
    }
}

/// Integer compare-and-branch, canonicalised to `when == true` (the
/// lowering inverts the comparison instead — exact for integers).
#[inline(always)]
fn h_jci_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    if cmpi_c::<C>(rg!(st, i.a).i(), rg!(st, i.b).i()) {
        i.t
    } else {
        ip + 1
    }
}

/// Float compare-and-branch: both polarities kept (NaN makes inversion
/// inexact for floats).
#[inline(always)]
fn h_jcf_c<const C: u8, const W: bool>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    if cmpf_c::<C>(rg!(st, i.a).f(), rg!(st, i.b).f()) == W {
        i.t
    } else {
        ip + 1
    }
}

fn jci_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_jci_c::<0>),
        1 => hp!(h_jci_c::<1>),
        2 => hp!(h_jci_c::<2>),
        3 => hp!(h_jci_c::<3>),
        4 => hp!(h_jci_c::<4>),
        _ => hp!(h_jci_c::<5>),
    }
}

fn jcf_h(c: Cmp, when: bool) -> HP {
    match (cmp_code(c), when) {
        (0, true) => hp!(h_jcf_c::<0, true>),
        (1, true) => hp!(h_jcf_c::<1, true>),
        (2, true) => hp!(h_jcf_c::<2, true>),
        (3, true) => hp!(h_jcf_c::<3, true>),
        (4, true) => hp!(h_jcf_c::<4, true>),
        (5, true) => hp!(h_jcf_c::<5, true>),
        (0, false) => hp!(h_jcf_c::<0, false>),
        (1, false) => hp!(h_jcf_c::<1, false>),
        (2, false) => hp!(h_jcf_c::<2, false>),
        (3, false) => hp!(h_jcf_c::<3, false>),
        (4, false) => hp!(h_jcf_c::<4, false>),
        _ => hp!(h_jcf_c::<5, false>),
    }
}

fn cmpi_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_cmpi_c::<0>),
        1 => hp!(h_cmpi_c::<1>),
        2 => hp!(h_cmpi_c::<2>),
        3 => hp!(h_cmpi_c::<3>),
        4 => hp!(h_cmpi_c::<4>),
        _ => hp!(h_cmpi_c::<5>),
    }
}

fn cmpf_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_cmpf_c::<0>),
        1 => hp!(h_cmpf_c::<1>),
        2 => hp!(h_cmpf_c::<2>),
        3 => hp!(h_cmpf_c::<3>),
        4 => hp!(h_cmpf_c::<4>),
        _ => hp!(h_cmpf_c::<5>),
    }
}

/// Sited load, element type selected at monomorphisation time
/// (0=I32 1=I64 2=F32 3=F4). `a`=dst, `b`=idx, `imm`=site.
#[inline(always)]
fn h_ld_c<const T: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let idx = rg!(st, i.b).i();
    match m.load(st, idx, ty_of::<T>()) {
        Ok(v) => {
            sw!(st, i.a, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Sited store. `b`=idx, `c`=val, `imm`=site.
#[inline(always)]
fn h_st_c<const T: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (idx, v) = (rg!(st, i.b).i(), rg!(st, i.c));
    match m.store(st, idx, ty_of::<T>(), v) {
        Ok(()) => ip + 1,
        Err(h) => h,
    }
}

const fn ty_of<const T: u8>() -> ElemTy {
    match T {
        0 => ElemTy::I32,
        1 => ElemTy::I64,
        2 => ElemTy::F32,
        _ => ElemTy::F4,
    }
}

const fn ty_code(ty: ElemTy) -> u8 {
    match ty {
        ElemTy::I32 => 0,
        ElemTy::I64 => 1,
        ElemTy::F32 => 2,
        ElemTy::F4 => 3,
    }
}

fn ld_h(ty: ElemTy) -> HP {
    match ty_code(ty) {
        0 => hp_mem!(h_ld_c, 0),
        1 => hp_mem!(h_ld_c, 1),
        2 => hp_mem!(h_ld_c, 2),
        _ => hp_mem!(h_ld_c, 3),
    }
}

fn st_h(ty: ElemTy) -> HP {
    match ty_code(ty) {
        0 => hp_mem!(h_st_c, 0),
        1 => hp_mem!(h_st_c, 1),
        2 => hp_mem!(h_st_c, 2),
        _ => hp_mem!(h_st_c, 3),
    }
}

/// Dynamic load: `a`=dst, `b`=idx, `c`=ptr reg, `g`=element-type code.
#[inline(always)]
fn h_ld_dyn(st: &mut NItem, cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (p, idx) = (rg!(st, i.c).ptr(), rg!(st, i.b).i());
    let ty = match i.g {
        0 => ElemTy::I32,
        1 => ElemTy::I64,
        2 => ElemTy::F32,
        _ => ElemTy::F4,
    };
    match dyn_load(st, cx, p, idx, ty) {
        Ok(v) => {
            sw!(st, i.a, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Dynamic store: `b`=idx, `c`=val, `d`=ptr reg, `g`=element-type code.
#[inline(always)]
fn h_st_dyn(st: &mut NItem, cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (p, idx, v) = (rg!(st, i.d).ptr(), rg!(st, i.b).i(), rg!(st, i.c));
    let ty = match i.g {
        0 => ElemTy::I32,
        1 => ElemTy::I64,
        2 => ElemTy::F32,
        _ => ElemTy::F4,
    };
    match dyn_store(st, cx, p, idx, ty, v) {
        Ok(()) => ip + 1,
        Err(h) => h,
    }
}

/// Work-item id builtin with a compile-time-known dimension (`imm`).
macro_rules! hid_const {
    ($name:ident, |$st:ident, $cx:ident| $field:expr) => {
        #[inline(always)]
        fn $name($st: &mut NItem, $cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!($st, i);
            sw!($st, i.a, RVal::from_i($field[i.imm as usize] as i64));
            ip + 1
        }
    };
}
hid_const!(h_gid_c, |st, _cx| st.gid);
hid_const!(h_lid_c, |st, _cx| st.lid);
hid_const!(h_grp_c, |st, cx| cx.geo.group_id);
hid_const!(h_gsz_c, |st, cx| cx.geo.global_size);
hid_const!(h_lsz_c, |st, cx| cx.geo.local_size);
hid_const!(h_ngr_c, |st, cx| cx.geo.num_groups);

/// Work-item id builtin with a dynamic dimension register (`b`);
/// out-of-range dimensions read `imm` (0 for ids, 1 for sizes).
macro_rules! hid_dyn {
    ($name:ident, |$st:ident, $cx:ident| $field:expr) => {
        #[inline(always)]
        fn $name($st: &mut NItem, $cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!($st, i);
            let d = rg!($st, i.b).i();
            let v = if (0..=2).contains(&d) {
                $field[d as usize] as i64
            } else {
                i.imm as i64
            };
            sw!($st, i.a, RVal::from_i(v));
            ip + 1
        }
    };
}
hid_dyn!(h_gid_d, |st, _cx| st.gid);
hid_dyn!(h_lid_d, |st, _cx| st.lid);
hid_dyn!(h_grp_d, |st, cx| cx.geo.group_id);
hid_dyn!(h_gsz_d, |st, cx| cx.geo.global_size);
hid_dyn!(h_lsz_d, |st, cx| cx.geo.local_size);
hid_dyn!(h_ngr_d, |st, cx| cx.geo.num_groups);

/// Constant integer result (out-of-range dim with a known register).
#[inline(always)]
fn h_const_i(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_i(i.imm as i64));
    ip + 1
}

/// Inline-call prologue: copy `c` argument registers from `b..` to `a..`.
#[inline(always)]
fn h_copyargs(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.regs
        .copy_within(i.b as usize..(i.b + i.c) as usize, i.a as usize);
    ip + 1
}

/// Inline-call prologue: zero `b` callee locals starting at `a`.
#[inline(always)]
fn h_zerolocals(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.regs[i.a as usize..(i.a + i.b) as usize].fill(RVal::default());
    ip + 1
}

#[inline(always)]
fn h_barrier(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.ip = ip + 1;
    IP_BARRIER
}

#[inline(always)]
fn h_done(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, _ip: u32) -> u32 {
    chgt!(st, i);
    IP_DONE
}

// ---------------------------------------------------------------------------
// Fused superinstruction handlers
// ---------------------------------------------------------------------------
//
// Each fused handler executes two adjacent instructions in one dispatch.
// The code stream is *compacted*: a fused pair occupies a single slot and
// falls through to `ip + 1` like any other instruction (jump targets are
// remapped by the lowering). Fusion never re-orders or re-associates: the
// first instruction's effects (including its trap, if any) land before the
// second's, so the observable behaviour is exactly that of the unfused
// pair. Like the single handlers, straight-line pairs carry a folded
// block-entry op charge in `t` and branch pairs carry it in `imm`.

/// Loop increment + compare-and-branch: `a = b + c; if (d cmp e) goto t`.
#[inline(always)]
fn h_addi_jci_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(rg!(st, i.b).i().wrapping_add(rg!(st, i.c).i()))
    );
    if cmpi_c::<C>(rg!(st, i.d).i(), rg!(st, i.e).i()) {
        i.t
    } else {
        ip + 1
    }
}

/// Loop decrement + compare-and-branch: `a = b - c; if (d cmp e) goto t`.
#[inline(always)]
fn h_subi_jci_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(rg!(st, i.b).i().wrapping_sub(rg!(st, i.c).i()))
    );
    if cmpi_c::<C>(rg!(st, i.d).i(), rg!(st, i.e).i()) {
        i.t
    } else {
        ip + 1
    }
}

/// Two adjacent sited loads of the same element type:
/// `a = [site1][b]; c = [site2][d]`, `imm = site1 | site2 << 32`.
#[inline(always)]
fn h_ld_ld_c<const T: u8>(st: &mut NItem, cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let idx1 = rg!(st, i.b).i();
    match load_site(st, cx, (i.imm & 0xffff_ffff) as usize, idx1, ty_of::<T>()) {
        Ok(v) => sw!(st, i.a, v),
        Err(h) => return h,
    }
    let idx2 = rg!(st, i.d).i();
    match load_site(st, cx, (i.imm >> 32) as usize, idx2, ty_of::<T>()) {
        Ok(v) => {
            sw!(st, i.c, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Integer add + sited load: `a = b + c; d = [site][e]`.
#[inline(always)]
fn h_addi_ld_c<const T: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(rg!(st, i.b).i().wrapping_add(rg!(st, i.c).i()))
    );
    let idx = rg!(st, i.e).i();
    match m.load(st, idx, ty_of::<T>()) {
        Ok(v) => {
            sw!(st, i.d, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Integer multiply-add + sited load: `a = b * c + d; e = [site][g]`
/// (the matmul row/column address-compute + fetch pair).
#[inline(always)]
fn h_madi_ld_c<const T: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(
            rg!(st, i.b)
                .i()
                .wrapping_mul(rg!(st, i.c).i())
                .wrapping_add(rg!(st, i.d).i())
        )
    );
    let idx = rg!(st, i.g).i();
    match m.load(st, idx, ty_of::<T>()) {
        Ok(v) => {
            sw!(st, i.e, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Sited store + integer add: `[site][b] = c; a = d + e`
/// (store result, bump the index).
#[inline(always)]
fn h_st_addi_c<const T: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (idx, v) = (rg!(st, i.b).i(), rg!(st, i.c));
    if let Err(h) = m.store(st, idx, ty_of::<T>(), v) {
        return h;
    }
    sw!(
        st,
        i.a,
        RVal::from_i(rg!(st, i.d).i().wrapping_add(rg!(st, i.e).i()))
    );
    ip + 1
}

/// Sited float load + multiply-add `c + a * b`:
/// `a = [site][b]; c = d + e * g` (the inner-product hot pair).
#[inline(always)]
fn h_ld_madrf<M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let idx = rg!(st, i.b).i();
    match m.load(st, idx, ElemTy::F32) {
        Ok(v) => sw!(st, i.a, v),
        Err(h) => return h,
    }
    sw!(
        st,
        i.c,
        RVal::from_f(rg!(st, i.d).f() + rg!(st, i.e).f() * rg!(st, i.g).f())
    );
    ip + 1
}

/// Sited float load + multiply-add `a * b + c`.
#[inline(always)]
fn h_ld_mad<M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let idx = rg!(st, i.b).i();
    match m.load(st, idx, ElemTy::F32) {
        Ok(v) => sw!(st, i.a, v),
        Err(h) => return h,
    }
    sw!(
        st,
        i.c,
        RVal::from_f(rg!(st, i.d).f() * rg!(st, i.e).f() + rg!(st, i.g).f())
    );
    ip + 1
}

/// Sited float load + float binary op (selected by `B`: 0=add 1=sub
/// 2=mul): `a = [site][b]; c = d op e`.
#[inline(always)]
fn h_ld_fbin_c<const B: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let idx = rg!(st, i.b).i();
    match m.load(st, idx, ElemTy::F32) {
        Ok(v) => sw!(st, i.a, v),
        Err(h) => return h,
    }
    let (x, y) = (rg!(st, i.d).f(), rg!(st, i.e).f());
    let v = match B {
        0 => x + y,
        1 => x - y,
        _ => x * y,
    };
    sw!(st, i.c, RVal::from_f(v));
    ip + 1
}

/// Float multiply-add (either operand order, selected by `M`) followed by
/// an integer add: `a = mad(b, c, d); e = g + imm`.
#[inline(always)]
fn h_madf_addi_c<const M: bool>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let v = if M {
        rg!(st, i.b).f() * rg!(st, i.c).f() + rg!(st, i.d).f()
    } else {
        rg!(st, i.b).f() + rg!(st, i.c).f() * rg!(st, i.d).f()
    };
    sw!(st, i.a, RVal::from_f(v));
    sw!(
        st,
        i.e,
        RVal::from_i(rg!(st, i.g).i().wrapping_add(rg!(st, imm_reg(i)).i()))
    );
    ip + 1
}

/// Float multiply + multiply-add (order selected by `M`):
/// `a = b * c; d = mad(e, g, imm)`.
#[inline(always)]
fn h_mulf_madf_c<const M: bool>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_f(rg!(st, i.b).f() * rg!(st, i.c).f()));
    let v = if M {
        rg!(st, i.e).f() * rg!(st, i.g).f() + rg!(st, imm_reg(i)).f()
    } else {
        rg!(st, i.e).f() + rg!(st, i.g).f() * rg!(st, imm_reg(i)).f()
    };
    sw!(st, i.d, RVal::from_f(v));
    ip + 1
}

/// Integer multiply-add followed by an integer add.
#[inline(always)]
fn h_madi_addi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(
            rg!(st, i.b)
                .i()
                .wrapping_mul(rg!(st, i.c).i())
                .wrapping_add(rg!(st, i.d).i())
        )
    );
    sw!(
        st,
        i.e,
        RVal::from_i(rg!(st, i.g).i().wrapping_add(rg!(st, imm_reg(i)).i()))
    );
    ip + 1
}

/// Register copy + integer add: `a = b; c = d + e`.
#[inline(always)]
fn h_mov_addi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, rg!(st, i.b));
    sw!(
        st,
        i.c,
        RVal::from_i(rg!(st, i.d).i().wrapping_add(rg!(st, i.e).i()))
    );
    ip + 1
}

/// Seventh register operand, packed into the low 16 bits of `imm` when
/// the six named fields are exhausted.
#[inline(always)]
fn imm_reg(i: &NInstr) -> u16 {
    i.imm as u16
}

/// Two adjacent float binary ops: `a = b op1 c; d = e op2 g`.
macro_rules! hff {
    ($name:ident, $x:ident, $y:ident, $e1:expr, $u:ident, $v:ident, $e2:expr) => {
        #[inline(always)]
        fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let ($x, $y) = (rg!(st, i.b).f(), rg!(st, i.c).f());
            sw!(st, i.a, RVal::from_f($e1));
            let ($u, $v) = (rg!(st, i.e).f(), rg!(st, i.g).f());
            sw!(st, i.d, RVal::from_f($e2));
            ip + 1
        }
    };
}
hff!(h_ff_aa, x, y, x + y, u, v, u + v);
hff!(h_ff_as, x, y, x + y, u, v, u - v);
hff!(h_ff_am, x, y, x + y, u, v, u * v);
hff!(h_ff_sa, x, y, x - y, u, v, u + v);
hff!(h_ff_ss, x, y, x - y, u, v, u - v);
hff!(h_ff_sm, x, y, x - y, u, v, u * v);
hff!(h_ff_ma, x, y, x * y, u, v, u + v);
hff!(h_ff_ms, x, y, x * y, u, v, u - v);
hff!(h_ff_mm, x, y, x * y, u, v, u * v);

/// Two adjacent integer binary ops: `a = b op1 c; d = e op2 g`.
macro_rules! hii {
    ($name:ident, $x:ident, $y:ident, $e1:expr, $u:ident, $v:ident, $e2:expr) => {
        #[inline(always)]
        fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let ($x, $y) = (rg!(st, i.b).i(), rg!(st, i.c).i());
            sw!(st, i.a, RVal::from_i($e1));
            let ($u, $v) = (rg!(st, i.e).i(), rg!(st, i.g).i());
            sw!(st, i.d, RVal::from_i($e2));
            ip + 1
        }
    };
}
hii!(h_ii_aa, x, y, x.wrapping_add(y), u, v, u.wrapping_add(v));
hii!(h_ii_as, x, y, x.wrapping_add(y), u, v, u.wrapping_sub(v));
hii!(h_ii_am, x, y, x.wrapping_add(y), u, v, u.wrapping_mul(v));
hii!(h_ii_sa, x, y, x.wrapping_sub(y), u, v, u.wrapping_add(v));
hii!(h_ii_ss, x, y, x.wrapping_sub(y), u, v, u.wrapping_sub(v));
hii!(h_ii_sm, x, y, x.wrapping_sub(y), u, v, u.wrapping_mul(v));
hii!(h_ii_ma, x, y, x.wrapping_mul(y), u, v, u.wrapping_add(v));
hii!(h_ii_ms, x, y, x.wrapping_mul(y), u, v, u.wrapping_sub(v));
hii!(h_ii_mm, x, y, x.wrapping_mul(y), u, v, u.wrapping_mul(v));

fn addi_jci_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_addi_jci_c::<0>),
        1 => hp!(h_addi_jci_c::<1>),
        2 => hp!(h_addi_jci_c::<2>),
        3 => hp!(h_addi_jci_c::<3>),
        4 => hp!(h_addi_jci_c::<4>),
        _ => hp!(h_addi_jci_c::<5>),
    }
}

fn subi_jci_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_subi_jci_c::<0>),
        1 => hp!(h_subi_jci_c::<1>),
        2 => hp!(h_subi_jci_c::<2>),
        3 => hp!(h_subi_jci_c::<3>),
        4 => hp!(h_subi_jci_c::<4>),
        _ => hp!(h_subi_jci_c::<5>),
    }
}

// ---------------------------------------------------------------------------
// Flattening: inline every call, assign absolute register windows
// ---------------------------------------------------------------------------

/// Flattened op: register IR with absolute registers, calls expanded to
/// prologue pseudo-ops plus the callee body, returns rewritten to jumps.
#[derive(Debug, Clone)]
enum FOp {
    R(ROp),
    /// Inline-call prologue: copy `n` argument registers `src.. -> dst..`.
    CopyArgs { dst: u16, src: u16, n: u16 },
    /// Inline-call prologue: zero `n` callee locals starting at `at`.
    ZeroLocals { at: u16, n: u16 },
    /// Kernel-main return: halt the work item.
    Done,
}

#[derive(Clone, Copy)]
enum RetCtx {
    /// Returns halt the item.
    Main,
    /// Returns jump past the inlined body; `RetV` first moves the value
    /// into the caller's `args_at` slot (the same absolute register the
    /// register engine's frame machinery writes).
    Inline { dst: u16 },
}

struct Flattener<'p> {
    prog: &'p RegProgram,
    out: Vec<FOp>,
    /// Main frame plus every window allocated so far.
    total_regs: u32,
    /// Static register template for `[prog.nregs, total_regs)`: zeroed
    /// locals/stack then the constant pool, per window in order.
    tail: Vec<RVal>,
    /// `(absolute register, value)` of every constant-pool register.
    known_consts: Vec<(u32, RVal)>,
    /// Absolute `[lo, hi)` ranges that must never be written.
    const_regions: Vec<(u32, u32)>,
}

/// Add `w` to every register operand of a non-control op; returns the
/// op and its original jump target (to be fixed once the range's layout
/// is known). `Call`/`Ret`/`RetV` are handled by the flattener itself.
fn remap(op: ROp, w: u16) -> (ROp, Option<u32>) {
    use ROp::*;
    let op = match op {
        Ops(n) => Ops(n),
        Mov { dst, src } => Mov { dst: dst + w, src: src + w },
        Swap { a, b } => Swap { a: a + w, b: b + w },
        AddI { dst, a, b } => AddI { dst: dst + w, a: a + w, b: b + w },
        SubI { dst, a, b } => SubI { dst: dst + w, a: a + w, b: b + w },
        MulI { dst, a, b } => MulI { dst: dst + w, a: a + w, b: b + w },
        DivI { dst, a, b } => DivI { dst: dst + w, a: a + w, b: b + w },
        RemI { dst, a, b } => RemI { dst: dst + w, a: a + w, b: b + w },
        Shl { dst, a, b } => Shl { dst: dst + w, a: a + w, b: b + w },
        Shr { dst, a, b } => Shr { dst: dst + w, a: a + w, b: b + w },
        BAnd { dst, a, b } => BAnd { dst: dst + w, a: a + w, b: b + w },
        BOr { dst, a, b } => BOr { dst: dst + w, a: a + w, b: b + w },
        BXor { dst, a, b } => BXor { dst: dst + w, a: a + w, b: b + w },
        NegI { dst, src } => NegI { dst: dst + w, src: src + w },
        BNot { dst, src } => BNot { dst: dst + w, src: src + w },
        LNot { dst, src } => LNot { dst: dst + w, src: src + w },
        AddF { dst, a, b } => AddF { dst: dst + w, a: a + w, b: b + w },
        SubF { dst, a, b } => SubF { dst: dst + w, a: a + w, b: b + w },
        MulF { dst, a, b } => MulF { dst: dst + w, a: a + w, b: b + w },
        DivF { dst, a, b } => DivF { dst: dst + w, a: a + w, b: b + w },
        NegF { dst, src } => NegF { dst: dst + w, src: src + w },
        I2F { dst, src } => I2F { dst: dst + w, src: src + w },
        F2I { dst, src } => F2I { dst: dst + w, src: src + w },
        AddF4 { dst, a, b } => AddF4 { dst: dst + w, a: a + w, b: b + w },
        SubF4 { dst, a, b } => SubF4 { dst: dst + w, a: a + w, b: b + w },
        MulF4 { dst, a, b } => MulF4 { dst: dst + w, a: a + w, b: b + w },
        DivF4 { dst, a, b } => DivF4 { dst: dst + w, a: a + w, b: b + w },
        SplatF4 { dst, src } => SplatF4 { dst: dst + w, src: src + w },
        MakeF4 { dst, src } => MakeF4 {
            dst: dst + w,
            src: [src[0] + w, src[1] + w, src[2] + w, src[3] + w],
        },
        GetComp { dst, src, c } => GetComp { dst: dst + w, src: src + w, c },
        SetComp { dst, vec, scl, c } => SetComp {
            dst: dst + w,
            vec: vec + w,
            scl: scl + w,
            c,
        },
        CmpI { cmp, dst, a, b } => CmpI { cmp, dst: dst + w, a: a + w, b: b + w },
        CmpF { cmp, dst, a, b } => CmpF { cmp, dst: dst + w, a: a + w, b: b + w },
        Jmp { t } => return (Jmp { t: 0 }, Some(t)),
        Jz { c, t } => return (Jz { c: c + w, t: 0 }, Some(t)),
        Jnz { c, t } => return (Jnz { c: c + w, t: 0 }, Some(t)),
        JcI { cmp, a, b, t, when } => {
            return (JcI { cmp, a: a + w, b: b + w, t: 0, when }, Some(t))
        }
        JcF { cmp, a, b, t, when } => {
            return (JcF { cmp, a: a + w, b: b + w, t: 0, when }, Some(t))
        }
        Load { ty, dst, ptr, idx } => Load {
            ty,
            dst: dst + w,
            ptr: ptr + w,
            idx: idx + w,
        },
        Store { ty, ptr, idx, val } => Store {
            ty,
            ptr: ptr + w,
            idx: idx + w,
            val: val + w,
        },
        Id { b, dst, src } => Id { b, dst: dst + w, src: src + w },
        Math1 { b, dst, src } => Math1 { b, dst: dst + w, src: src + w },
        Math2F { b, dst, a, b2 } => Math2F { b, dst: dst + w, a: a + w, b2: b2 + w },
        Math2I { b, dst, a, b2 } => Math2I { b, dst: dst + w, a: a + w, b2: b2 + w },
        AbsI { dst, src } => AbsI { dst: dst + w, src: src + w },
        Clamp { dst, v, lo, hi } => Clamp {
            dst: dst + w,
            v: v + w,
            lo: lo + w,
            hi: hi + w,
        },
        Mad { dst, a, b, c } => Mad { dst: dst + w, a: a + w, b: b + w, c: c + w },
        MadRF { dst, c, a, b } => MadRF { dst: dst + w, c: c + w, a: a + w, b: b + w },
        MadI { dst, a, b, c } => MadI { dst: dst + w, a: a + w, b: b + w, c: c + w },
        Dot { dst, a, b } => Dot { dst: dst + w, a: a + w, b: b + w },
        Barrier => Barrier,
        Call { .. } | Ret | RetV { .. } => unreachable!("handled by the flattener"),
    };
    (op, None)
}

/// Rewrite a placeholder jump target.
fn set_target(op: &mut FOp, t: u32) {
    match op {
        FOp::R(ROp::Jmp { t: x })
        | FOp::R(ROp::Jz { t: x, .. })
        | FOp::R(ROp::Jnz { t: x, .. })
        | FOp::R(ROp::JcI { t: x, .. })
        | FOp::R(ROp::JcF { t: x, .. }) => *x = t,
        _ => unreachable!("not a jump"),
    }
}

fn target_of(op: &FOp) -> Option<u32> {
    match op {
        FOp::R(ROp::Jmp { t })
        | FOp::R(ROp::Jz { t, .. })
        | FOp::R(ROp::Jnz { t, .. })
        | FOp::R(ROp::JcI { t, .. })
        | FOp::R(ROp::JcF { t, .. }) => Some(*t),
        _ => None,
    }
}

impl Flattener<'_> {
    /// Flatten `prog.code[s..e]` with register window `w`, expanding calls
    /// recursively. Returns the flat index of every original instruction.
    fn emit_range(
        &mut self,
        s: usize,
        e: usize,
        w: u16,
        ret: RetCtx,
        stack: &mut Vec<u16>,
    ) -> Option<Vec<u32>> {
        let mut map = vec![u32::MAX; e - s];
        let mut fixups: Vec<(usize, u32)> = Vec::new();
        let mut ret_jumps: Vec<usize> = Vec::new();
        for k in s..e {
            map[k - s] = u32::try_from(self.out.len()).ok()?;
            if self.out.len() > (1 << 22) {
                return None; // runaway inline expansion
            }
            match self.prog.code.get(k)?.clone() {
                ROp::Call { func, args_at } => {
                    if stack.contains(&func) || stack.len() >= 48 {
                        return None; // recursive or pathologically deep
                    }
                    let f: RFunc = self.prog.funcs.get(func as usize)?.clone();
                    if !f.compiled {
                        return None;
                    }
                    let win = self.total_regs;
                    if win + f.nregs as u32 > u16::MAX as u32 {
                        return None; // register file exhausted
                    }
                    self.total_regs += f.nregs as u32;
                    self.tail
                        .extend(std::iter::repeat_n(RVal::default(), f.const_base as usize));
                    for (ci, c) in f.consts.iter().enumerate() {
                        self.known_consts
                            .push((win + f.const_base as u32 + ci as u32, *c));
                    }
                    self.tail.extend_from_slice(&f.consts);
                    self.const_regions
                        .push((win + f.const_base as u32, win + f.nregs as u32));
                    // The caller's `args_at` slot doubles as the return
                    // destination — the same absolute register the register
                    // engine's frame machinery uses.
                    let dst = w.checked_add(args_at)?;
                    if f.nargs > 0 {
                        self.out.push(FOp::CopyArgs {
                            dst: win as u16,
                            src: dst,
                            n: f.nargs as u16,
                        });
                    }
                    if f.nlocals > f.nargs as u16 {
                        self.out.push(FOp::ZeroLocals {
                            at: (win + f.nargs as u32) as u16,
                            n: f.nlocals - f.nargs as u16,
                        });
                    }
                    let entry_jmp = if f.entry != f.start {
                        self.out.push(FOp::R(ROp::Jmp { t: 0 }));
                        Some(self.out.len() - 1)
                    } else {
                        None
                    };
                    stack.push(func);
                    let cmap = self.emit_range(
                        f.start as usize,
                        f.end as usize,
                        win as u16,
                        RetCtx::Inline { dst },
                        stack,
                    )?;
                    stack.pop();
                    if let Some(j) = entry_jmp {
                        let t = *cmap.get((f.entry - f.start) as usize)?;
                        set_target(&mut self.out[j], t);
                    }
                }
                ROp::Ret => match ret {
                    RetCtx::Main => self.out.push(FOp::Done),
                    RetCtx::Inline { .. } => {
                        self.out.push(FOp::R(ROp::Jmp { t: 0 }));
                        ret_jumps.push(self.out.len() - 1);
                    }
                },
                ROp::RetV { src } => match ret {
                    // A top-level `RetV` discards the value, like the
                    // register engine's frameless return.
                    RetCtx::Main => self.out.push(FOp::Done),
                    RetCtx::Inline { dst } => {
                        self.out.push(FOp::R(ROp::Mov { dst, src: src + w }));
                        self.out.push(FOp::R(ROp::Jmp { t: 0 }));
                        ret_jumps.push(self.out.len() - 1);
                    }
                },
                other => {
                    let (op, target) = remap(other, w);
                    if let Some(t) = target {
                        if (t as usize) < s || (t as usize) >= e {
                            return None; // cross-function jump: malformed
                        }
                        fixups.push((self.out.len(), t));
                    }
                    self.out.push(FOp::R(op));
                }
            }
        }
        for (at, t) in fixups {
            let nt = map[t as usize - s];
            if nt == u32::MAX {
                return None;
            }
            set_target(&mut self.out[at], nt);
        }
        let after = u32::try_from(self.out.len()).ok()?;
        for j in ret_jumps {
            set_target(&mut self.out[j], after);
        }
        Some(map)
    }
}

/// A register range as `(start, len)`.
type RegRange = (u16, u16);

/// The register ranges one op reads and writes, held inline: no op reads
/// more than four ranges or writes more than two.
#[derive(Clone, Copy)]
struct OpRegs {
    rd: [RegRange; 4],
    nrd: u8,
    wr: [RegRange; 2],
    nwr: u8,
}

impl OpRegs {
    fn new(rd: &[RegRange], wr: &[RegRange]) -> OpRegs {
        let mut regs = OpRegs {
            rd: [(0, 0); 4],
            nrd: rd.len() as u8,
            wr: [(0, 0); 2],
            nwr: wr.len() as u8,
        };
        regs.rd[..rd.len()].copy_from_slice(rd);
        regs.wr[..wr.len()].copy_from_slice(wr);
        regs
    }

    fn reads(&self) -> &[RegRange] {
        &self.rd[..self.nrd as usize]
    }

    fn writes(&self) -> &[RegRange] {
        &self.wr[..self.nwr as usize]
    }

    /// Every register the op writes, one by one.
    fn written(&self) -> impl Iterator<Item = u16> + '_ {
        self.writes().iter().flat_map(|&(r, n)| r..r + n)
    }
}

/// Every register range an op reads and writes; used to bounds-check
/// operands (licensing the unchecked handler accesses), to find
/// never-written registers and for the lowering's dataflow.
fn op_regs(op: &FOp) -> OpRegs {
    use ROp::*;
    let one = |r: u16| (r, 1);
    let (rd, wr): (&[RegRange], &[RegRange]) = match op {
        FOp::R(r) => match *r {
            Ops(_) | Barrier | Jmp { .. } => (&[], &[]),
            Mov { dst, src } => (&[one(src)], &[one(dst)]),
            Swap { a, b } => (&[one(a), one(b)], &[one(a), one(b)]),
            AddI { dst, a, b }
            | SubI { dst, a, b }
            | MulI { dst, a, b }
            | DivI { dst, a, b }
            | RemI { dst, a, b }
            | Shl { dst, a, b }
            | Shr { dst, a, b }
            | BAnd { dst, a, b }
            | BOr { dst, a, b }
            | BXor { dst, a, b }
            | AddF { dst, a, b }
            | SubF { dst, a, b }
            | MulF { dst, a, b }
            | DivF { dst, a, b }
            | AddF4 { dst, a, b }
            | SubF4 { dst, a, b }
            | MulF4 { dst, a, b }
            | DivF4 { dst, a, b }
            | Dot { dst, a, b } => (&[one(a), one(b)], &[one(dst)]),
            NegI { dst, src }
            | BNot { dst, src }
            | LNot { dst, src }
            | NegF { dst, src }
            | I2F { dst, src }
            | F2I { dst, src }
            | SplatF4 { dst, src }
            | AbsI { dst, src } => (&[one(src)], &[one(dst)]),
            MakeF4 { dst, src } => (
                &[one(src[0]), one(src[1]), one(src[2]), one(src[3])],
                &[one(dst)],
            ),
            GetComp { dst, src, .. } => (&[one(src)], &[one(dst)]),
            SetComp { dst, vec, scl, .. } => (&[one(vec), one(scl)], &[one(dst)]),
            CmpI { dst, a, b, .. } | CmpF { dst, a, b, .. } => (&[one(a), one(b)], &[one(dst)]),
            Jz { c, .. } | Jnz { c, .. } => (&[one(c)], &[]),
            JcI { a, b, .. } | JcF { a, b, .. } => (&[one(a), one(b)], &[]),
            Load { dst, ptr, idx, .. } => (&[one(ptr), one(idx)], &[one(dst)]),
            Store { ptr, idx, val, .. } => (&[one(ptr), one(idx), one(val)], &[]),
            Id { dst, src, .. } | Math1 { dst, src, .. } => (&[one(src)], &[one(dst)]),
            Math2F { dst, a, b2, .. } | Math2I { dst, a, b2, .. } => {
                (&[one(a), one(b2)], &[one(dst)])
            }
            Clamp { dst, v, lo, hi } => (&[one(v), one(lo), one(hi)], &[one(dst)]),
            Mad { dst, a, b, c } | MadI { dst, a, b, c } => {
                (&[one(a), one(b), one(c)], &[one(dst)])
            }
            MadRF { dst, c, a, b } => (&[one(c), one(a), one(b)], &[one(dst)]),
            Call { .. } | Ret | RetV { .. } => (&[], &[]),
        },
        FOp::CopyArgs { dst, src, n } => (&[(*src, *n)], &[(*dst, *n)]),
        FOp::ZeroLocals { at, n } => (&[], &[(*at, *n)]),
        FOp::Done => (&[], &[]),
    };
    OpRegs::new(rd, wr)
}

// ---------------------------------------------------------------------------
// Lowering to native instructions
// ---------------------------------------------------------------------------

const fn ni(h: HP) -> NInstr {
    NInstr {
        f: h.0,
        sf: h.1,
        imm: 0,
        t: 0,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        e: 0,
        g: 0,
    }
}

/// Dedupe memory sites by pointer register; returns the site index.
fn site_for(ptr: u16, sites: &mut HashMap<u16, u32>, specs: &mut Vec<u16>) -> u32 {
    *sites.entry(ptr).or_insert_with(|| {
        specs.push(ptr);
        (specs.len() - 1) as u32
    })
}

struct Lower<'a> {
    /// Writes per register over the whole program.
    writes: &'a [u32],
    known: &'a [Option<RVal>],
    sites: HashMap<u16, u32>,
    specs: Vec<u16>,
}

impl Lower<'_> {
    fn stable(&self, ptr: u16) -> bool {
        self.writes[ptr as usize] == 0
    }

    /// Lower one flat op to a single native instruction.
    fn one(&mut self, op: &FOp) -> Option<NInstr> {
        use ROp::*;
        Some(match op {
            FOp::Done => ni(hp!(h_done)),
            FOp::CopyArgs { dst, src, n } => NInstr {
                a: *dst,
                b: *src,
                c: *n,
                ..ni(hp!(h_copyargs))
            },
            FOp::ZeroLocals { at, n } => NInstr {
                a: *at,
                b: *n,
                ..ni(hp!(h_zerolocals))
            },
            FOp::R(r) => match *r {
                Ops(n) => NInstr {
                    imm: n,
                    ..ni(hp!(h_ops))
                },
                Mov { dst, src } => NInstr {
                    a: dst,
                    b: src,
                    ..ni(hp!(h_mov))
                },
                Swap { a, b } => NInstr {
                    a,
                    b,
                    ..ni(hp!(h_swap))
                },
                AddI { dst, a, b } => bin3(hp!(h_addi), dst, a, b),
                SubI { dst, a, b } => bin3(hp!(h_subi), dst, a, b),
                MulI { dst, a, b } => bin3(hp!(h_muli), dst, a, b),
                DivI { dst, a, b } => match self.known[b as usize].map(|v| v.i()) {
                    Some(c) if c > 1 && c.count_ones() == 1 => NInstr {
                        a: dst,
                        b: a,
                        g: c.trailing_zeros() as u16,
                        ..ni(hp!(h_divi_p2))
                    },
                    _ => bin3(hp!(h_divi), dst, a, b),
                },
                RemI { dst, a, b } => bin3(hp!(h_remi), dst, a, b),
                Shl { dst, a, b } => bin3(hp!(h_shl), dst, a, b),
                Shr { dst, a, b } => bin3(hp!(h_shr), dst, a, b),
                BAnd { dst, a, b } => bin3(hp!(h_band), dst, a, b),
                BOr { dst, a, b } => bin3(hp!(h_bor), dst, a, b),
                BXor { dst, a, b } => bin3(hp!(h_bxor), dst, a, b),
                NegI { dst, src } => un2(hp!(h_negi), dst, src),
                BNot { dst, src } => un2(hp!(h_bnot), dst, src),
                LNot { dst, src } => un2(hp!(h_lnot), dst, src),
                AbsI { dst, src } => un2(hp!(h_absi), dst, src),
                AddF { dst, a, b } => bin3(hp!(h_addf), dst, a, b),
                SubF { dst, a, b } => bin3(hp!(h_subf), dst, a, b),
                MulF { dst, a, b } => bin3(hp!(h_mulf), dst, a, b),
                DivF { dst, a, b } => bin3(hp!(h_divf), dst, a, b),
                NegF { dst, src } => un2(hp!(h_negf), dst, src),
                I2F { dst, src } => un2(hp!(h_i2f), dst, src),
                F2I { dst, src } => un2(hp!(h_f2i), dst, src),
                AddF4 { dst, a, b } => bin3(hp!(h_addf4), dst, a, b),
                SubF4 { dst, a, b } => bin3(hp!(h_subf4), dst, a, b),
                MulF4 { dst, a, b } => bin3(hp!(h_mulf4), dst, a, b),
                DivF4 { dst, a, b } => bin3(hp!(h_divf4), dst, a, b),
                SplatF4 { dst, src } => un2(hp!(h_splatf4), dst, src),
                MakeF4 { dst, src } => NInstr {
                    a: dst,
                    b: src[0],
                    c: src[1],
                    d: src[2],
                    e: src[3],
                    ..ni(hp!(h_makef4))
                },
                GetComp { dst, src, c } => NInstr {
                    a: dst,
                    b: src,
                    g: c as u16,
                    ..ni(hp!(h_getcomp))
                },
                SetComp { dst, vec, scl, c } => NInstr {
                    a: dst,
                    b: vec,
                    c: scl,
                    g: c as u16,
                    ..ni(hp!(h_setcomp))
                },
                CmpI { cmp, dst, a, b } => bin3(cmpi_h(cmp), dst, a, b),
                CmpF { cmp, dst, a, b } => bin3(cmpf_h(cmp), dst, a, b),
                Jmp { t } => NInstr {
                    t,
                    ..ni(hp!(h_jmp))
                },
                Jz { c, t } => NInstr {
                    a: c,
                    t,
                    ..ni(hp!(h_jz))
                },
                Jnz { c, t } => NInstr {
                    a: c,
                    t,
                    ..ni(hp!(h_jnz))
                },
                // `when == true` after canonicalisation.
                JcI { cmp, a, b, t, .. } => NInstr {
                    a,
                    b,
                    t,
                    ..ni(jci_h(cmp))
                },
                JcF { cmp, a, b, t, when } => NInstr {
                    a,
                    b,
                    t,
                    ..ni(jcf_h(cmp, when))
                },
                Load { ty, dst, ptr, idx } => {
                    if self.stable(ptr) {
                        NInstr {
                            a: dst,
                            b: idx,
                            imm: site_for(ptr, &mut self.sites, &mut self.specs) as u64,
                            ..ni(ld_h(ty))
                        }
                    } else {
                        NInstr {
                            a: dst,
                            b: idx,
                            c: ptr,
                            g: ty_code(ty) as u16,
                            ..ni(hp!(h_ld_dyn))
                        }
                    }
                }
                Store { ty, ptr, idx, val } => {
                    if self.stable(ptr) {
                        NInstr {
                            b: idx,
                            c: val,
                            imm: site_for(ptr, &mut self.sites, &mut self.specs) as u64,
                            ..ni(st_h(ty))
                        }
                    } else {
                        NInstr {
                            b: idx,
                            c: val,
                            d: ptr,
                            g: ty_code(ty) as u16,
                            ..ni(hp!(h_st_dyn))
                        }
                    }
                }
                Id { b, dst, src } => {
                    let (fc, fd, default): (HP, HP, u64) = match b {
                        Builtin::GetGlobalId => (hp!(h_gid_c), hp!(h_gid_d), 0),
                        Builtin::GetLocalId => (hp!(h_lid_c), hp!(h_lid_d), 0),
                        Builtin::GetGroupId => (hp!(h_grp_c), hp!(h_grp_d), 0),
                        Builtin::GetGlobalSize => (hp!(h_gsz_c), hp!(h_gsz_d), 1),
                        Builtin::GetLocalSize => (hp!(h_lsz_c), hp!(h_lsz_d), 1),
                        Builtin::GetNumGroups => (hp!(h_ngr_c), hp!(h_ngr_d), 1),
                        // The register engine evaluates every other
                        // builtin in `Id` position to 0 for any dimension.
                        _ => {
                            return Some(NInstr {
                                a: dst,
                                imm: 0,
                                ..ni(hp!(h_const_i))
                            })
                        }
                    };
                    match self.known[src as usize] {
                        Some(v) => {
                            let d = v.i();
                            if (0..=2).contains(&d) {
                                NInstr {
                                    a: dst,
                                    imm: d as u64,
                                    ..ni(fc)
                                }
                            } else {
                                NInstr {
                                    a: dst,
                                    imm: default,
                                    ..ni(hp!(h_const_i))
                                }
                            }
                        }
                        None => NInstr {
                            a: dst,
                            b: src,
                            imm: default,
                            ..ni(fd)
                        },
                    }
                }
                Math1 { b, dst, src } => {
                    let f: HP = match b {
                        Builtin::Sqrt => hp!(h_sqrt),
                        Builtin::Rsqrt => hp!(h_rsqrt),
                        Builtin::Fabs => hp!(h_fabs),
                        Builtin::Floor => hp!(h_floor),
                        Builtin::Ceil => hp!(h_ceil),
                        Builtin::Exp => hp!(h_exp),
                        Builtin::Log => hp!(h_log),
                        Builtin::Sin => hp!(h_sin),
                        Builtin::Cos => hp!(h_cos),
                        _ => hp!(h_m1_other),
                    };
                    un2(f, dst, src)
                }
                Math2F { b, dst, a, b2 } => {
                    let f: HP = match b {
                        Builtin::Pow => hp!(h_pow),
                        Builtin::Fmin => hp!(h_fmin),
                        Builtin::Fmax => hp!(h_fmax),
                        _ => hp!(h_m2f_other),
                    };
                    bin3(f, dst, a, b2)
                }
                Math2I { b, dst, a, b2 } => bin3(
                    if b == Builtin::MinI {
                        hp!(h_mini)
                    } else {
                        hp!(h_maxi)
                    },
                    dst,
                    a,
                    b2,
                ),
                Clamp { dst, v, lo, hi } => NInstr {
                    a: dst,
                    b: v,
                    c: lo,
                    d: hi,
                    ..ni(hp!(h_clamp))
                },
                Mad { dst, a, b, c } => NInstr {
                    a: dst,
                    b: a,
                    c: b,
                    d: c,
                    ..ni(hp!(h_mad))
                },
                MadRF { dst, c, a, b } => NInstr {
                    a: dst,
                    b: c,
                    c: a,
                    d: b,
                    ..ni(hp!(h_madrf))
                },
                MadI { dst, a, b, c } => NInstr {
                    a: dst,
                    b: a,
                    c: b,
                    d: c,
                    ..ni(hp!(h_madi))
                },
                Dot { dst, a, b } => bin3(hp!(h_dot), dst, a, b),
                Barrier => ni(hp!(h_barrier)),
                Call { .. } | Ret | RetV { .. } => return None,
            },
        })
    }

    /// Try to fuse two adjacent flat ops into one superinstruction.
    /// `x` executes first; the pair occupies a single compacted slot.
    /// Only attempted when `y`'s slot is not a jump target. Block-entry
    /// `Ops` charges are not fused here — the unit builder in
    /// [`compile_native`] folds them into any successor's charge field.
    fn fuse(&mut self, x: &FOp, y: &FOp) -> Option<NInstr> {
        use ROp::*;
        // Loop increment + compare-branch, or + load.
        if let FOp::R(AddI { dst, a, b }) = x {
            match y {
                FOp::R(JcI { cmp, a: a2, b: b2, t, .. }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *a2,
                        e: *b2,
                        t: *t,
                        ..ni(addi_jci_h(*cmp))
                    })
                }
                FOp::R(Load { ty, dst: d2, ptr, idx })
                    if matches!(ty, ElemTy::F32 | ElemTy::I32) && self.stable(*ptr) =>
                {
                    let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                    let f: HP = if *ty == ElemTy::F32 {
                        hp_mem!(h_addi_ld_c, 2)
                    } else {
                        hp_mem!(h_addi_ld_c, 0)
                    };
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *d2,
                        e: *idx,
                        imm: site as u64,
                        ..ni(f)
                    });
                }
                _ => {}
            }
        }
        // Loop decrement + compare-branch (count-down loop headers).
        if let (FOp::R(SubI { dst, a, b }), FOp::R(JcI { cmp, a: a2, b: b2, t, .. })) = (x, y) {
            return Some(NInstr {
                a: *dst,
                b: *a,
                c: *b,
                d: *a2,
                e: *b2,
                t: *t,
                ..ni(subi_jci_h(*cmp))
            });
        }
        // Address compute + fetch (row/column indexing).
        if let (FOp::R(MadI { dst, a, b, c }), FOp::R(Load { ty, dst: d2, ptr, idx })) = (x, y) {
            if matches!(ty, ElemTy::F32 | ElemTy::I32) && self.stable(*ptr) {
                let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                let f: HP = if *ty == ElemTy::F32 {
                    hp_mem!(h_madi_ld_c, 2)
                } else {
                    hp_mem!(h_madi_ld_c, 0)
                };
                return Some(NInstr {
                    a: *dst,
                    b: *a,
                    c: *b,
                    d: *c,
                    e: *d2,
                    g: *idx,
                    imm: site as u64,
                    ..ni(f)
                });
            }
        }
        // Store + index bump.
        if let (FOp::R(Store { ty, ptr, idx, val }), FOp::R(AddI { dst, a, b })) = (x, y) {
            if matches!(ty, ElemTy::F32 | ElemTy::I32) && self.stable(*ptr) {
                let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                let f: HP = if *ty == ElemTy::F32 {
                    hp_mem!(h_st_addi_c, 2)
                } else {
                    hp_mem!(h_st_addi_c, 0)
                };
                return Some(NInstr {
                    a: *dst,
                    b: *idx,
                    c: *val,
                    d: *a,
                    e: *b,
                    imm: site as u64,
                    ..ni(f)
                });
            }
        }
        // Register copy + integer add (loop-carried rotation).
        if let (FOp::R(Mov { dst, src }), FOp::R(AddI { dst: d2, a, b })) = (x, y) {
            return Some(NInstr {
                a: *dst,
                b: *src,
                c: *d2,
                d: *a,
                e: *b,
                ..ni(hp!(h_mov_addi))
            });
        }
        // Load + load / multiply-add / float binary.
        if let FOp::R(Load { ty, dst, ptr, idx }) = x {
            if matches!(ty, ElemTy::F32 | ElemTy::I32) && self.stable(*ptr) {
                match y {
                    FOp::R(Load { ty: t2, dst: d2, ptr: p2, idx: i2 })
                        if t2 == ty && self.stable(*p2) =>
                    {
                        let s1 = site_for(*ptr, &mut self.sites, &mut self.specs);
                        let s2 = site_for(*p2, &mut self.sites, &mut self.specs);
                        let f: HP = if *ty == ElemTy::F32 {
                            hp!(h_ld_ld_c::<2>)
                        } else {
                            hp!(h_ld_ld_c::<0>)
                        };
                        return Some(NInstr {
                            imm: s1 as u64 | (s2 as u64) << 32,
                            a: *dst,
                            b: *idx,
                            c: *d2,
                            d: *i2,
                            ..ni(f)
                        });
                    }
                    FOp::R(MadRF { dst: d2, c, a, b }) if *ty == ElemTy::F32 => {
                        let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                        return Some(NInstr {
                            imm: site as u64,
                            a: *dst,
                            b: *idx,
                            c: *d2,
                            d: *c,
                            e: *a,
                            g: *b,
                            ..ni(hp_mem!(h_ld_madrf))
                        });
                    }
                    FOp::R(Mad { dst: d2, a, b, c }) if *ty == ElemTy::F32 => {
                        let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                        return Some(NInstr {
                            imm: site as u64,
                            a: *dst,
                            b: *idx,
                            c: *d2,
                            d: *a,
                            e: *b,
                            g: *c,
                            ..ni(hp_mem!(h_ld_mad))
                        });
                    }
                    _ => {
                        if *ty == ElemTy::F32 {
                            if let Some((o2, d2, a2, b2)) = fbin(y) {
                                let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                                let f: HP = match o2 {
                                    0 => hp_mem!(h_ld_fbin_c, 0),
                                    1 => hp_mem!(h_ld_fbin_c, 1),
                                    _ => hp_mem!(h_ld_fbin_c, 2),
                                };
                                return Some(NInstr {
                                    imm: site as u64,
                                    a: *dst,
                                    b: *idx,
                                    c: d2,
                                    d: a2,
                                    e: b2,
                                    ..ni(f)
                                });
                            }
                        }
                    }
                }
            }
        }
        // Float multiply feeding a multiply-add (polynomial / dot chains).
        if let FOp::R(MulF { dst, a, b }) = x {
            match y {
                FOp::R(Mad { dst: d2, a: a2, b: b2, c: c2 }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *d2,
                        e: *a2,
                        g: *b2,
                        imm: *c2 as u64,
                        ..ni(hp!(h_mulf_madf_c::<true>))
                    });
                }
                FOp::R(MadRF { dst: d2, c: c2, a: a2, b: b2 }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *d2,
                        e: *c2,
                        g: *a2,
                        imm: *b2 as u64,
                        ..ni(hp!(h_mulf_madf_c::<false>))
                    });
                }
                _ => {}
            }
        }
        // Multiply-add + loop increment.
        if let FOp::R(AddI { dst: d2, a: a2, b: b2 }) = y {
            match x {
                FOp::R(Mad { dst, a, b, c }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *c,
                        e: *d2,
                        g: *a2,
                        imm: *b2 as u64,
                        ..ni(hp!(h_madf_addi_c::<true>))
                    })
                }
                FOp::R(MadRF { dst, c, a, b }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *c,
                        c: *a,
                        d: *b,
                        e: *d2,
                        g: *a2,
                        imm: *b2 as u64,
                        ..ni(hp!(h_madf_addi_c::<false>))
                    })
                }
                FOp::R(MadI { dst, a, b, c }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *c,
                        e: *d2,
                        g: *a2,
                        imm: *b2 as u64,
                        ..ni(hp!(h_madi_addi))
                    })
                }
                _ => {}
            }
        }
        // Generic adjacent float / integer binary pairs.
        if let (Some((o1, d1, a1, b1)), Some((o2, d2, a2, b2))) = (fbin(x), fbin(y)) {
            const FF: [[HP; 3]; 3] = [
                [hp!(h_ff_aa), hp!(h_ff_as), hp!(h_ff_am)],
                [hp!(h_ff_sa), hp!(h_ff_ss), hp!(h_ff_sm)],
                [hp!(h_ff_ma), hp!(h_ff_ms), hp!(h_ff_mm)],
            ];
            return Some(NInstr {
                a: d1,
                b: a1,
                c: b1,
                d: d2,
                e: a2,
                g: b2,
                ..ni(FF[o1 as usize][o2 as usize])
            });
        }
        if let (Some((o1, d1, a1, b1)), Some((o2, d2, a2, b2))) = (ibin(x), ibin(y)) {
            const II: [[HP; 3]; 3] = [
                [hp!(h_ii_aa), hp!(h_ii_as), hp!(h_ii_am)],
                [hp!(h_ii_sa), hp!(h_ii_ss), hp!(h_ii_sm)],
                [hp!(h_ii_ma), hp!(h_ii_ms), hp!(h_ii_mm)],
            ];
            return Some(NInstr {
                a: d1,
                b: a1,
                c: b1,
                d: d2,
                e: a2,
                g: b2,
                ..ni(II[o1 as usize][o2 as usize])
            });
        }
        None
    }
}

const fn bin3(f: HP, dst: u16, a: u16, b: u16) -> NInstr {
    NInstr {
        a: dst,
        b: a,
        c: b,
        ..ni(f)
    }
}

const fn un2(f: HP, dst: u16, src: u16) -> NInstr {
    NInstr {
        a: dst,
        b: src,
        ..ni(f)
    }
}

/// Classify a float add/sub/mul (0/1/2) as `(op, dst, a, b)`.
fn fbin(op: &FOp) -> Option<(u8, u16, u16, u16)> {
    match op {
        FOp::R(ROp::AddF { dst, a, b }) => Some((0, *dst, *a, *b)),
        FOp::R(ROp::SubF { dst, a, b }) => Some((1, *dst, *a, *b)),
        FOp::R(ROp::MulF { dst, a, b }) => Some((2, *dst, *a, *b)),
        _ => None,
    }
}

/// Classify an integer add/sub/mul (0/1/2) as `(op, dst, a, b)`.
fn ibin(op: &FOp) -> Option<(u8, u16, u16, u16)> {
    match op {
        FOp::R(ROp::AddI { dst, a, b }) => Some((0, *dst, *a, *b)),
        FOp::R(ROp::SubI { dst, a, b }) => Some((1, *dst, *a, *b)),
        FOp::R(ROp::MulI { dst, a, b }) => Some((2, *dst, *a, *b)),
        _ => None,
    }
}

/// Lower a validated register program to the native engine.
///
/// Returns `None` — and the dispatcher falls back to the register engine —
/// for programs the inliner cannot flatten: recursive or uncompiled device
/// functions, pathological inline depth or code growth, or a register file
/// larger than the 16-bit operand encoding. Everything the register
/// compiler emits for real kernels lowers.
///
/// ```
/// use oclsim::minicl::{self, native, regir};
/// let unit = minicl::parse(
///     "__kernel void id(__global float* a) { a[get_global_id(0)] = 1.0f; }",
/// ).unwrap();
/// let compiled = minicl::compile(&unit).unwrap();
/// let info = compiled.kernels.get("id").unwrap();
/// let reg = regir::compile_kernel(&compiled, info).unwrap();
/// let native = native::compile_native(&reg, info).expect("lowerable");
/// assert!(native.len() > 0);
/// ```
pub fn compile_native(prog: &RegProgram, kernel: &KernelInfo) -> Option<NativeProgram> {
    // Defensive: the per-item reset span must cover every kernel local.
    if kernel.nlocals > prog.const_base {
        return None;
    }
    let mut fl = Flattener {
        prog,
        out: Vec::new(),
        total_regs: prog.nregs as u32,
        tail: Vec::new(),
        known_consts: prog
            .consts
            .iter()
            .enumerate()
            .map(|(k, c)| (prog.const_base as u32 + k as u32, *c))
            .collect(),
        const_regions: vec![(prog.const_base as u32, prog.nregs as u32)],
    };
    let mut stack = Vec::new();
    let map = fl.emit_range(0, prog.main_end as usize, 0, RetCtx::Main, &mut stack)?;
    let entry = *map.get(prog.entry as usize)?;
    let Flattener {
        mut out,
        total_regs,
        tail,
        known_consts,
        const_regions,
        ..
    } = fl;
    if out.is_empty() || out.len() >= IP_HALT_MIN as usize {
        return None;
    }
    // The last instruction must never fall through (it is a `Done` or an
    // plain `Jmp` — `validate` proved every range ends in one).
    match out.last() {
        Some(FOp::Done) | Some(FOp::R(ROp::Jmp { .. })) => {}
        _ => return None,
    }

    // Canonicalise integer branch polarity: invert the comparison instead
    // of carrying `when` (exact for integers; floats keep both).
    for op in &mut out {
        if let FOp::R(ROp::JcI { cmp, when, .. }) = op {
            if !*when {
                *cmp = cmp_inv(*cmp);
                *when = true;
            }
        }
    }

    // Operand bounds check (licenses the unchecked handler accesses) and
    // never-written analysis (licenses site pre-resolution and the partial
    // per-item reset).
    let mut writes = vec![0u32; total_regs as usize];
    for op in &out {
        let regs = op_regs(op);
        for &(r, n) in regs.reads().iter().chain(regs.writes()) {
            if r as u32 + n as u32 > total_regs {
                return None;
            }
        }
        for r in regs.written() {
            writes[r as usize] += 1;
        }
    }
    // A write into a constant region would break both the known-constant
    // specialisation and the no-reset-needed invariant; `validate` makes
    // this impossible, but the lowering re-checks rather than trusts.
    for &(lo, hi) in &const_regions {
        if writes[lo as usize..hi as usize].iter().any(|&w| w > 0) {
            return None;
        }
    }
    let mut known: Vec<Option<RVal>> = vec![None; total_regs as usize];
    for &(r, v) in &known_consts {
        known[r as usize] = Some(v);
    }

    // Jump targets, for the fusion barrier and the fetch-safety check.
    let mut is_target = vec![false; out.len()];
    for op in &out {
        if let Some(t) = target_of(op) {
            if t as usize >= out.len() {
                return None;
            }
            is_target[t as usize] = true;
        }
    }

    propagate_pointer_copies(&mut out, entry as usize, &writes);

    let mut lo = Lower {
        writes: &writes,
        known: &known,
        sites: HashMap::new(),
        specs: Vec::new(),
    };
    // The entry must start a unit: mark it like a jump target so the unit
    // builder below can never absorb it into a preceding charge or pair.
    is_target[entry as usize] = true;

    // Unit builder: tile the flat op stream with compacted units. Each
    // unit is one native instruction covering 1-3 flat ops: an optional
    // leading block-entry `Ops` charge (folded into the charge field, see
    // `chgt!`/`chgi!`), then either a fused pair or a single op. Every
    // unit falls through to `ip + 1`, so jump targets — which always land
    // on unit starts, enforced by the `is_target` barriers — are remapped
    // through `map` afterwards.
    let mut code: Vec<NInstr> = Vec::with_capacity(out.len());
    let mut old_targets: Vec<Option<u32>> = Vec::with_capacity(out.len());
    let mut map = vec![u32::MAX; out.len()];
    let mut i = 0usize;
    while i < out.len() {
        let start = i;
        let mut charge: u64 = 0;
        if let FOp::R(ROp::Ops(n)) = &out[i] {
            // `t` is a u32, so only charges that fit are absorbed; larger
            // (never seen in practice) stay as standalone `h_ops` units.
            if *n <= u32::MAX as u64 && i + 1 < out.len() && !is_target[i + 1] {
                charge = *n;
                i += 1;
            }
        }
        let fused = if i + 1 < out.len() && !is_target[i + 1] {
            lo.fuse(&out[i], &out[i + 1])
        } else {
            None
        };
        let (mut instr, last) = match fused {
            Some(f) => (f, i + 1),
            None => (lo.one(&out[i])?, i),
        };
        // A fused pair falls through to the next unit, which must exist:
        // `fuse` never takes a terminator (`Done` / `Jmp`) as its second
        // op, and the final flat op is always a terminator.
        debug_assert!(fused.is_none() || last + 1 < out.len());
        let old_t = target_of(&out[last]);
        if charge > 0 {
            // Branch handlers read the folded charge from `imm` (their
            // `t` is the jump target); everything else reads it from `t`.
            if old_t.is_some() {
                instr.imm = charge;
            } else {
                instr.t = charge as u32;
            }
        }
        map[start] = code.len() as u32;
        code.push(instr);
        old_targets.push(old_t);
        i = last + 1;
    }
    // Remap jump targets and the entry from flat-op indices to unit
    // indices. Every target is marked in `is_target`, so it starts a unit
    // and has a valid `map` entry.
    for (u, ot) in old_targets.iter().enumerate() {
        if let Some(t) = ot {
            code[u].t = map[*t as usize];
        }
    }
    let flat_entry = entry as usize;
    let entry = map[flat_entry];

    let mut template_static = prog.consts.clone();
    template_static.extend_from_slice(&tail);
    if prog.const_base as usize + template_static.len() != total_regs as usize {
        return None;
    }

    let Lower {
        sites, specs, ..
    } = lo;
    // A barrier-free kernel is its entry region (codegen counts every
    // barrier a kernel reaches, so it has no other).
    let (regions, forms) = regions::analyse(&out, flat_entry, &sites, &known, &writes);
    let regions: Vec<(u32, regions::Region)> = regions
        .into_iter()
        .take(if kernel.has_barrier { usize::MAX } else { 1 })
        .map(|region| (map[region.entry_flat], region))
        .collect();
    // A work-item start restores the template only where the kernel can
    // observe the previous item's value: a register it writes and may read
    // before writing (live at the entry), or one a barrier region's strips
    // compare across lanes. A never-written register keeps the value its
    // arena was made with; one written before every read is dead there.
    let span = prog.const_base as usize;
    let live = live_at_entry(&out, flat_entry, span);
    let mut restore: Vec<bool> = (0..span).map(|r| writes[r] > 0 && live[r]).collect();
    for (_, region) in &regions {
        for &r in region.checks().iter().filter(|&&r| (r as usize) < span) {
            restore[r as usize] = true;
        }
    }
    let mut reset_runs: Vec<Range<u16>> = Vec::new();
    for r in (0..span as u16).filter(|&r| restore[r as usize]) {
        match reset_runs.last_mut() {
            Some(run) if run.end == r => run.end += 1,
            _ => reset_runs.push(r..r + 1),
        }
    }
    let dead = (0..span as u16)
        .filter(|&r| writes[r as usize] > 0 && !restore[r as usize])
        .collect();
    Some(NativeProgram {
        code,
        entry,
        total_regs,
        main_const_base: prog.const_base,
        reset_runs,
        dead,
        template_static,
        site_ptrs: specs,
        regions,
        forms,
    })
}

/// Pointer copy propagation. The stack compiler binds a private array by
/// moving its constant-pool pointer into a local, and holds a buffer
/// pointer in a stack slot while it evaluates the rest of an expression
/// (`out[d] = c ? 1 : 0` moves `out` into a slot before the branches);
/// accesses through such a written register would all count as dynamic.
/// Where every path from the entry last wrote a load's or store's pointer
/// register with a `Mov` from one never-written register, the access sees
/// that register's dispatch value: redirect it there, which makes it
/// sited. A forward dataflow over the written pointer registers; the
/// entry holds the template, which is no copy.
fn propagate_pointer_copies(out: &mut [FOp], entry: usize, writes: &[u32]) {
    /// A pointer register's value is not a known copy.
    const OTHER: u32 = u32::MAX;
    let mut tracked: Vec<u16> = Vec::new();
    for op in out.iter() {
        if let FOp::R(ROp::Load { ptr, .. } | ROp::Store { ptr, .. }) = op {
            if writes[*ptr as usize] > 0 && !tracked.contains(ptr) {
                tracked.push(*ptr);
            }
        }
    }
    if tracked.is_empty() {
        return;
    }
    let t = tracked.len();
    // Per op, each tracked register's copy source on entry to it.
    let mut at = vec![OTHER; out.len() * t];
    let mut seen = vec![false; out.len()];
    seen[entry] = true;
    let mut work = vec![entry];
    let mut cur = vec![OTHER; t];
    while let Some(k) = work.pop() {
        cur.copy_from_slice(&at[k * t..(k + 1) * t]);
        for r in op_regs(&out[k]).written() {
            if let Some(i) = tracked.iter().position(|&p| p == r) {
                cur[i] = match out[k] {
                    FOp::R(ROp::Mov { src, .. }) if writes[src as usize] == 0 => src as u32,
                    _ => OTHER,
                };
            }
        }
        for (s, _) in regions::successors(out, k, true) {
            let have = &mut at[s * t..(s + 1) * t];
            if !seen[s] {
                seen[s] = true;
                have.copy_from_slice(&cur);
                work.push(s);
            } else if have.iter().zip(&cur).any(|(h, c)| h != c && *h != OTHER) {
                for (h, c) in have.iter_mut().zip(&cur) {
                    if h != c {
                        *h = OTHER;
                    }
                }
                work.push(s);
            }
        }
    }
    for (k, op) in out.iter_mut().enumerate() {
        if let FOp::R(ROp::Load { ptr, .. } | ROp::Store { ptr, .. }) = op {
            if let Some(i) = tracked.iter().position(|p| p == ptr) {
                if seen[k] && at[k * t + i] != OTHER {
                    *ptr = at[k * t + i] as u16;
                }
            }
        }
    }
}

/// Which of the registers `[0, span)` are live at the kernel entry: read
/// on some path from `entry` (barriers are ordinary edges) before any
/// write. Backward liveness over bit sets, on the basic blocks, swept in
/// reverse order until nothing changes.
fn live_at_entry(out: &[FOp], entry: usize, span: usize) -> Vec<bool> {
    let words = span.div_ceil(64).max(1);
    let n = out.len();
    let head = regions::block_heads(out, &[entry]);
    let starts: Vec<usize> = (0..n).filter(|&k| head[k]).collect();
    let block_of = |k: usize| starts.partition_point(|&s| s <= k) - 1;
    // Per block: what it reads before writing, and what it writes.
    let nb = starts.len();
    let mut reads = vec![0u64; nb * words];
    let mut kills = vec![0u64; nb * words];
    for (b, &s) in starts.iter().enumerate() {
        let end = starts.get(b + 1).copied().unwrap_or(n);
        let (rd, kl) = (b * words, b * words);
        for op in &out[s..end] {
            let regs = op_regs(op);
            for &(r, len) in regs.reads() {
                for r in (r..r + len).filter(|&r| (r as usize) < span) {
                    let (w, bit) = (r as usize / 64, 1u64 << (r % 64));
                    reads[rd + w] |= bit & !kills[kl + w];
                }
            }
            for r in regs.written().filter(|&r| (r as usize) < span) {
                kills[kl + r as usize / 64] |= 1u64 << (r % 64);
            }
        }
    }
    // Each block's successor blocks (at most two).
    let succ: Vec<[usize; 2]> = (0..nb)
        .map(|b| {
            let last = starts.get(b + 1).copied().unwrap_or(n) - 1;
            let mut to = [usize::MAX; 2];
            for (slot, (s, _)) in to.iter_mut().zip(regions::successors(out, last, true)) {
                *slot = block_of(s);
            }
            to
        })
        .collect();
    let mut live = vec![0u64; nb * words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            for w in 0..words {
                let to = succ[b].iter().filter(|&&s| s != usize::MAX);
                let after = to.fold(0, |a, &s| a | live[s * words + w]);
                let v = reads[b * words + w] | (after & !kills[b * words + w]);
                if live[b * words + w] != v {
                    live[b * words + w] = v;
                    changed = true;
                }
            }
        }
    }
    let at = block_of(entry) * words;
    (0..span)
        .map(|r| live[at + r / 64] & (1u64 << (r % 64)) != 0)
        .collect()
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Decode a pointer register's dispatch-time value into a [`Site`].
/// Unknown slots become `Bad*` sites that trap on first *execution* —
/// resolving eagerly here must not change when (or whether) a kernel
/// traps.
fn resolve_site(p: PtrV, nbufs: usize, read_only: &[bool], nregions: usize) -> Site {
    let slot = p.slot as u32;
    match p.space {
        Space::Private => Site {
            kind: SiteKind::Priv,
            slot: 0,
            base: p.base,
            ro: false,
        },
        Space::Global | Space::Constant => {
            if (slot as usize) < nbufs {
                Site {
                    kind: SiteKind::Global,
                    slot,
                    base: p.base,
                    ro: read_only[slot as usize] || p.space == Space::Constant,
                }
            } else {
                Site {
                    kind: SiteKind::BadGlobal,
                    slot,
                    base: p.base,
                    ro: false,
                }
            }
        }
        Space::Local => {
            if (slot as usize) < nregions {
                Site {
                    kind: SiteKind::Local,
                    slot,
                    base: p.base,
                    ro: false,
                }
            } else {
                Site {
                    kind: SiteKind::BadLocal,
                    slot,
                    base: p.base,
                    ro: false,
                }
            }
        }
    }
}

/// Run one item on the scalar path from `ip` (an instruction index, or
/// the halt it already reached) to its next barrier or to completion, and
/// record which in `st.halt`. A barrier in a kernel compiled without
/// barriers (`barriers == false`) is the trap [`stray_barrier`].
fn run_to_stop(
    prog: &NativeProgram,
    ip: u32,
    st: &mut NItem,
    cx: &mut NCtx<'_>,
    barriers: bool,
) -> Result<(), Trap> {
    let halt = if ip >= IP_HALT_MIN {
        ip
    } else {
        exec(&prog.code, ip, st, cx)
    };
    match halt {
        IP_DONE => st.halt = IP_DONE,
        IP_BARRIER if barriers => st.halt = IP_BARRIER,
        IP_TRAP => return Err(st.trap.take().expect("trap halt sets a trap")),
        _ => return Err(stray_barrier(st.gid)),
    }
    Ok(())
}

/// Advance a strip of lanes that all stand at `ip` together to their next
/// barrier or to completion; when they stop agreeing, *unzip* around the
/// stopping lane, in item order: the lanes below it (they agree on their
/// successor) go on as a strip of their own, then the stopping lane
/// finishes on the scalar loop from its own outcome, then the lanes above
/// it go on as a strip from the instruction they had not executed yet.
/// Nothing re-converges: a strip only ever splits, down to single lanes
/// on [`exec`]. Each part runs to its stop before the next starts, so the
/// first trap in item order is the one reported.
fn run_strip(
    prog: &NativeProgram,
    ip: u32,
    lanes: &mut [NItem],
    cx: &mut NCtx<'_>,
    tally: &mut StripStats,
    barriers: bool,
) -> Result<(), Trap> {
    if lanes.len() < 2 || ip >= IP_HALT_MIN {
        return lanes
            .iter_mut()
            .try_for_each(|st| run_to_stop(prog, ip, st, cx, barriers));
    }
    let halt = exec_strip(&prog.code, ip, lanes, cx);
    if halt != IP_UNZIP {
        // Every lane reached the same barrier, or finished.
        return run_strip(prog, halt, lanes, cx, tally, barriers);
    }
    tally.unzips += 1;
    let Unzip {
        at,
        lane,
        below_ip,
        lane_next,
    } = cx.unzip;
    let (below, rest) = lanes.split_at_mut(lane);
    let (stop, above) = rest.split_first_mut().expect("the stopping lane exists");
    run_strip(prog, below_ip, below, cx, tally, barriers)?;
    run_to_stop(prog, lane_next, stop, cx, barriers)?;
    run_strip(prog, at, above, cx, tally, barriers)
}

/// The native engine's side of a dispatch: the program, its dispatch
/// template, the execution context, the strip width and the strip
/// tallies.
struct Groups<'p, 'a> {
    prog: &'p NativeProgram,
    /// The full dispatch template (`len == prog.total_regs`).
    template: &'p [RVal],
    priv_bytes: usize,
    cx: NCtx<'a>,
    /// Lanes per strip where strips are allowed; 1 is the scalar path.
    width: usize,
    /// The regions that are race-free in this dispatch, by entry
    /// instruction (consulted per strip on a barrier kernel's phases only).
    wide: Vec<(u32, &'p regions::Region)>,
    tally: &'p mut StripStats,
}

impl Groups<'_, '_> {
    /// Count a strip's items.
    fn start_strip(&mut self, lanes: &[NItem]) {
        if lanes.len() > 1 {
            self.tally.items += lanes.len() as u64;
        }
    }

    /// May these lanes of a barrier kernel run their phase as one strip?
    /// Yes when they all resume at the entry `ip` of a region that is
    /// race-free in this dispatch, and hold the entry values its analysis
    /// took as uniform.
    fn strip_holds(&self, ip: u32, lanes: &[NItem]) -> bool {
        lanes.iter().all(|st| st.ip == ip)
            && self
                .wide
                .iter()
                .any(|(entry, region)| *entry == ip && region.entry_holds(lanes))
    }
}

impl GroupEngine for Groups<'_, '_> {
    type Item = NItem;

    fn geometry(&mut self) -> &mut Geometry {
        &mut self.cx.geo
    }

    fn local_regions(&mut self) -> &mut [Vec<u8>] {
        &mut self.cx.local_regions
    }

    /// The full dispatch template (the constant tail is never written
    /// again) and zeroed private memory.
    fn arena(&self) -> NItem {
        NItem {
            regs: self.template.to_vec(),
            priv_mem: vec![0u8; self.priv_bytes],
            ip: 0,
            gid: [0; 3],
            lid: [0; 3],
            ops: 0,
            halt: IP_DONE,
            trap: None,
        }
    }

    /// The template copied into the registers the item can observe from
    /// the previous one (`reset_runs`) and a `fill(0)` of private memory;
    /// debug builds fill the written registers dead at the entry with
    /// [`DEAD`], so a wrong live set shows up as a disagreement.
    fn reset(&self, st: &mut NItem, lid: [usize; 3]) {
        for run in &self.prog.reset_runs {
            let run = run.start as usize..run.end as usize;
            st.regs[run.clone()].copy_from_slice(&self.template[run]);
        }
        if cfg!(debug_assertions) {
            for &r in &self.prog.dead {
                st.regs[r as usize] = DEAD;
            }
        }
        if !st.priv_mem.is_empty() {
            st.priv_mem.fill(0);
        }
        st.ip = self.prog.entry;
        st.lid = lid;
        st.gid = self.cx.geo.item_gid(lid);
        st.ops = 0;
    }

    fn step(&mut self, st: &mut NItem) -> Result<Stop, Trap> {
        run_to_stop(self.prog, st.ip, st, &mut self.cx, true)?;
        Ok(st.stop())
    }

    fn ops(st: &NItem) -> u64 {
        st.ops
    }

    fn gid(st: &NItem) -> [usize; 3] {
        st.gid
    }

    /// The items of each dim-0 row run in strips of `lanes.len()` reused
    /// arenas (fewer at the end of a row). One lane is the scalar path:
    /// each item straight through [`exec`].
    fn run_free_group(&mut self, lanes: &mut [NItem]) -> Result<u64, Trap> {
        let mut group_ops = 0u64;
        let [lx, ly, lz] = self.cx.geo.local_size;
        let width = lanes.len();
        for iz in 0..lz {
            for iy in 0..ly {
                for ix in (0..lx).step_by(width) {
                    let live = &mut lanes[..width.min(lx - ix)];
                    for (k, st) in live.iter_mut().enumerate() {
                        self.reset(st, [ix + k, iy, iz]);
                    }
                    self.start_strip(live);
                    run_strip(self.prog, self.prog.entry, live, &mut self.cx, self.tally, false)?;
                    group_ops += live.iter().map(|st| st.ops).sum::<u64>();
                }
            }
        }
        Ok(group_ops)
    }

    /// One phase of a row of a barrier kernel's group, pocl's work-group
    /// function between two barriers: in strips of `width` lanes where
    /// [`Self::strip_holds`], else each item in turn through [`Self::step`];
    /// either way the items leave the sweep's bytes, op counts and traps.
    /// The arenas, one per item, are pocl's context arrays that carry the
    /// items across barriers.
    fn run_phase(&mut self, lanes: &mut [NItem], stops: &mut [Stop]) -> Result<(), Trap> {
        for (lanes, stops) in lanes.chunks_mut(self.width).zip(stops.chunks_mut(self.width)) {
            let ip = lanes[0].ip;
            if lanes.len() > 1 && self.strip_holds(ip, lanes) {
                self.start_strip(lanes);
                run_strip(self.prog, ip, lanes, &mut self.cx, self.tally, true)?;
                for (st, stop) in lanes.iter().zip(stops) {
                    *stop = st.stop();
                }
            } else {
                for (st, stop) in lanes.iter_mut().zip(stops) {
                    *stop = self.step(st)?;
                }
            }
        }
        Ok(())
    }
}

/// Run `window`'s groups of one dispatch on the native engine and return
/// each group's op count; `strip` receives the strip-mode tallies. Memory
/// sites are resolved once per dispatch: they depend on the template, not
/// on which groups run.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_window(
    prog: &NativeProgram,
    kernel: &KernelInfo,
    args: &[RtArg],
    pool: &mut MemPool,
    geo: Geometry,
    local_regions: Vec<Vec<u8>>,
    window: &[Range<usize>; 3],
    strip: &mut StripStats,
) -> Result<Vec<u64>, Trap> {
    // Dispatch template: bound locals, zeroed canonical stack slots, then
    // the static tail (main constant pool + every inline window).
    let template = register_template(kernel, args, prog.main_const_base, &prog.template_static);
    debug_assert_eq!(template.len(), prog.total_regs as usize);

    let read_only = pool.read_only.as_slice();
    // Pre-resolve every stable memory site from the same template bits the
    // register engine would decode at run time.
    let sites: Vec<Site> = prog
        .site_ptrs
        .iter()
        .map(|&ptr| {
            resolve_site(
                template[ptr as usize].ptr(),
                pool.bufs.len(),
                read_only,
                local_regions.len(),
            )
        })
        .collect();

    // The strip rule, per region, for this binding and strip width: a
    // barrier-free kernel's one region decides the dispatch; a barrier
    // kernel's phases run in strips where their region is race-free.
    let full = STRIP.min(geo.local_size[0]).max(1);
    let mut why = None;
    let wide: Vec<(u32, &regions::Region)> = prog
        .regions
        .iter()
        .filter(|(_, region)| match region.race_free(&prog.forms, &sites, &template, &geo, full) {
            Ok(()) => true,
            Err(reason) => {
                why = why.or(Some(reason));
                false
            }
        })
        .map(|(entry, region)| (*entry, region))
        .collect();
    let lanes = if wide.is_empty() { 1 } else { full };
    if lanes == 1 {
        strip.scalar_why = why;
    }
    let run = |bufs: &mut [Vec<u8>],
               local_regions: Vec<Vec<u8>>,
               lanes: usize,
               tally: &mut StripStats| {
        let cx = NCtx {
            bufs,
            read_only,
            local_regions,
            sites: &sites,
            geo,
            unzip: Unzip::default(),
        };
        let mut groups = Groups {
            prog,
            template: &template,
            priv_bytes: kernel.priv_bytes,
            cx,
            width: lanes,
            wide: wide.clone(),
            tally,
        };
        drive(&mut groups, kernel.has_barrier, window, lanes)
    };
    // Debug builds re-check the strip rule: a dispatch that ran strips runs
    // once more, one lane wide, over a copy of the buffers, and the two
    // must leave the same outcome (release builds pay nothing).
    let twin = (cfg!(debug_assertions) && lanes > 1)
        .then(|| (pool.bufs.clone(), local_regions.clone()));
    let group_ops = run(&mut pool.bufs, local_regions, lanes, strip);
    if let Some((mut bufs, local_regions)) = twin {
        let scalar = run(&mut bufs, local_regions, 1, &mut StripStats::default());
        // After a trap the buffers hold partial results on every path.
        let same = match (&group_ops, &scalar) {
            (Ok(a), Ok(b)) => a == b && pool.bufs == bufs,
            (Err(a), Err(b)) => a.message == b.message && a.global_id == b.global_id,
            _ => false,
        };
        debug_assert!(
            same,
            "kernel `{}`: its strips and the one-lane-wide sweep disagree: the strip rule \
             admitted a region whose lanes touch one element with a store",
            kernel.name
        );
    }
    group_ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicl::codegen::compile;
    use crate::minicl::driver::{all_groups, run_ndrange, Lowered, NdStats};
    use crate::minicl::interp::Val;
    use crate::minicl::parser::parse;
    use crate::minicl::regir;

    type EngineRun = Result<(NdStats, Vec<Vec<u8>>), Trap>;

    fn triangle(
        src: &str,
        kernel: &str,
        args: &[RtArg],
        pool_init: (Vec<Vec<u8>>, Vec<bool>),
        global: [usize; 3],
        local: [usize; 3],
    ) {
        let _ = triangle_native(src, kernel, args, pool_init, global, local);
    }

    /// Run `kernel` from `src` on all three engines with identical pools,
    /// assert identical outcomes pairwise and return the native engine's.
    fn triangle_native(
        src: &str,
        kernel: &str,
        args: &[RtArg],
        pool_init: (Vec<Vec<u8>>, Vec<bool>),
        global: [usize; 3],
        local: [usize; 3],
    ) -> EngineRun {
        let ast = parse(src).expect("parse");
        let unit = compile(&ast).expect("compile");
        let info = unit.kernels.get(kernel).expect("kernel").clone();
        let reg = regir::compile_kernel(&unit, &info).expect("register compile");
        let nat = compile_native(&reg, &info).expect("native compile");

        let run = |prog: Lowered| -> EngineRun {
            let mut pool = MemPool {
                bufs: pool_init.0.clone(),
                read_only: pool_init.1.clone(),
            };
            let window = all_groups(global, local);
            run_ndrange(prog, &info, args, &mut pool, global, local, window)
                .map(|stats| (stats, pool.bufs))
        };
        let stack = run(Lowered::Stack(&unit));
        let register = run(Lowered::Register(&reg));
        let native = run(Lowered::Native(&nat));
        for (label, other) in [("register", &register), ("native", &native)] {
            match (&stack, other) {
                (Ok((s_stats, s_bufs)), Ok((o_stats, o_bufs))) => {
                    assert_eq!(s_bufs, o_bufs, "{label}: buffer contents differ");
                    assert_eq!(
                        s_stats.group_ops, o_stats.group_ops,
                        "{label}: group_ops differ"
                    );
                    assert_eq!(s_stats.items, o_stats.items, "{label}: item counts differ");
                }
                (Err(s), Err(o)) => {
                    assert_eq!(s.message, o.message, "{label}: trap messages differ");
                    assert_eq!(s.global_id, o.global_id, "{label}: trap global ids differ");
                }
                (s, o) => panic!("{label} disagrees on success: stack={s:?} other={o:?}"),
            }
        }
        native
    }

    fn f32_buf(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn square_kernel_triangle() {
        triangle(
            r#"
            __kernel void square(__global float* in, __global float* out, const int n) {
                int i = get_global_id(0);
                if (i < n) { out[i] = in[i] * in[i]; }
            }
            "#,
            "square",
            &[
                RtArg::Buf { pool_slot: 0 },
                RtArg::Buf { pool_slot: 1 },
                RtArg::Scalar(Val::I(4)),
            ],
            (
                vec![f32_buf(&[1.0, 2.0, 3.0, 4.0]), vec![0u8; 16]],
                vec![false, false],
            ),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn inner_product_loop_triangle() {
        triangle(
            r#"
            __kernel void dotk(__global float* a, __global float* b, __global float* out, const int n) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int k = 0; k < n; k++) {
                    acc = acc + a[i * n + k] * b[k * n + i];
                }
                out[i] = acc;
            }
            "#,
            "dotk",
            &[
                RtArg::Buf { pool_slot: 0 },
                RtArg::Buf { pool_slot: 1 },
                RtArg::Buf { pool_slot: 2 },
                RtArg::Scalar(Val::I(4)),
            ],
            (
                vec![
                    f32_buf(&(0..16).map(|i| i as f32 * 0.25).collect::<Vec<_>>()),
                    f32_buf(&(0..16).map(|i| (16 - i) as f32 * 0.5).collect::<Vec<_>>()),
                    vec![0u8; 16],
                ],
                vec![false, false, false],
            ),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn barrier_reduction_triangle() {
        let data: Vec<f32> = (0..16).map(|i| (16 - i) as f32).collect();
        triangle(
            r#"
            __kernel void rmin(__global float* in, __global float* out, __local float* s) {
                int l = get_local_id(0);
                s[l] = in[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                for (int st = get_local_size(0) / 2; st > 0; st = st / 2) {
                    if (l < st) { s[l] = fmin(s[l], s[l + st]); }
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                if (l == 0) { out[get_group_id(0)] = s[0]; }
            }
            "#,
            "rmin",
            &[
                RtArg::Buf { pool_slot: 0 },
                RtArg::Buf { pool_slot: 1 },
                RtArg::Local { bytes: 32 },
            ],
            (vec![f32_buf(&data), vec![0u8; 8]], vec![false, false]),
            [16, 1, 1],
            [8, 1, 1],
        );
    }

    #[test]
    fn nested_device_functions_triangle() {
        triangle(
            r#"
            float g(float x) { return x * 2.0f; }
            float f(float x) { return g(x) + 1.0f; }
            __kernel void k(__global float* a) {
                int i = get_global_id(0);
                a[i] = f(a[i]) + g(3.0f);
            }
            "#,
            "k",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![f32_buf(&[3.0, 5.0, -1.0, 0.5])], vec![false]),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn call_in_loop_reinitialises_window_locals() {
        // The callee's window locals must behave as freshly zeroed on
        // every activation, not inherit the previous iteration's values.
        triangle(
            r#"
            float acc3(float x) {
                float t = 0.0f;
                for (int j = 0; j < 3; j++) { t = t + x; }
                return t;
            }
            __kernel void k(__global float* a) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int r = 0; r < 4; r++) { s = s + acc3(a[i] + (float)r); }
                a[i] = s;
            }
            "#,
            "k",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![f32_buf(&[1.0, -2.0, 0.25, 8.0])], vec![false]),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn float4_and_private_memory_triangle() {
        triangle(
            r#"
            __kernel void v(__global float4* a, __global float* out) {
                float4 x = a[0];
                float4 y = (float4)(2.0f);
                float tmp[4];
                int i = get_global_id(0);
                tmp[i % 4] = dot(x, y);
                out[i] = tmp[i % 4] + x.y;
                a[1] = x * y;
            }
            "#,
            "v",
            &[RtArg::Buf { pool_slot: 0 }, RtArg::Buf { pool_slot: 1 }],
            (
                vec![f32_buf(&[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]), vec![0u8; 16]],
                vec![false, false],
            ),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn division_by_a_constant_power_of_two_rounds_toward_zero() {
        // Negative and positive dividends, odd and even, and the extremes.
        triangle(
            "__kernel void d(__global int* a, __global long* b) {
                int i = get_global_id(0);
                long x = (long)(i * 37 - 300) * 11;
                a[i] = (i * 37 - 300) / 2 + (i * 37 - 300) / 8 + (i - 8) / 1 + (i * 5 - 40) / 3;
                if (i == 0) { x = x * 1000000007 * 1000000007; }
                b[i] = x / 4 + x / 1024 + x / 1073741824;
            }",
            "d",
            &[RtArg::Buf { pool_slot: 0 }, RtArg::Buf { pool_slot: 1 }],
            (vec![vec![0u8; 4 * 16], vec![0u8; 8 * 16]], vec![false, false]),
            [16, 1, 1],
            [16, 1, 1],
        );
    }

    #[test]
    fn oob_trap_triangle() {
        triangle(
            "__kernel void oob(__global float* a) { a[get_global_id(0) + 1000000] = 1.0f; }",
            "oob",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 64]], vec![false]),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn div_zero_trap_triangle() {
        triangle(
            "__kernel void divz(__global int* a) { int z = (int)(get_global_id(0) * 0); a[0] = 1 / z; }",
            "divz",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 64]], vec![false]),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn readonly_store_trap_triangle() {
        triangle(
            "__kernel void w(__global float* a) { a[get_global_id(0)] = 2.0f; }",
            "w",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 64]], vec![true]),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    #[test]
    fn divergent_barrier_trap_triangle() {
        triangle(
            r#"
            __kernel void diverge(__global float* a) {
                if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[get_global_id(0)] = 1.0f;
            }
            "#,
            "diverge",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 64]], vec![false]),
            [4, 1, 1],
            [2, 1, 1],
        );
    }

    // -- strip mode: each of these fails against a strip mode that lacks
    //    the strip rule or the unzip -----------------------------------

    fn i32_buf(n: usize) -> Vec<u8> {
        (0..n as i32)
            .flat_map(|v| (v * 3 + 1).to_le_bytes())
            .collect()
    }

    fn bufs(slots: &[usize]) -> Vec<RtArg> {
        slots.iter().map(|&s| RtArg::Buf { pool_slot: s }).collect()
    }

    /// The triangle must hold, the dispatch must succeed, and the native
    /// engine must have decided for (`None`) or against strips as stated.
    fn strip_case(
        src: &str,
        args: &[RtArg],
        pool: Vec<Vec<u8>>,
        local: [usize; 3],
        groups: [usize; 3],
        scalar_why: Option<StripReject>,
    ) -> StripStats {
        let ro = vec![false; pool.len()];
        let global = std::array::from_fn(|d| local[d] * groups[d]);
        let (stats, _) = triangle_native(src, "k", args, (pool, ro), global, local)
            .expect("the kernel does not trap");
        assert_eq!(stats.strip.scalar_why, scalar_why);
        // Every item starts in a strip, except a dim-0 remainder of one.
        let lanes = STRIP.min(local[0]);
        let alone = (scalar_why.is_none() && lanes > 1 && local[0] % lanes == 1) as u64;
        let rows = stats.items / local[0] as u64;
        let expected = if scalar_why.is_some() || lanes == 1 {
            0
        } else {
            stats.items - rows * alone
        };
        assert_eq!(stats.strip.items, expected);
        stats.strip
    }

    /// A store and a load of slot 0 that two lanes of a strip may make to
    /// one element.
    const STORE_LOAD: Option<StripReject> = Some(StripReject::Race {
        local: false,
        slot: 0,
        store: false,
    });

    #[test]
    fn in_place_shift_stays_scalar() {
        // Item i+1 must read what item i wrote: lanes may not interleave.
        strip_case(
            "__kernel void k(__global int* a) { int i = get_global_id(0); a[i + 1] = a[i] + 1; }",
            &bufs(&[0]),
            vec![i32_buf(40)],
            [16, 1, 1],
            [2, 1, 1],
            STORE_LOAD,
        );
    }

    #[test]
    fn two_store_sites_into_one_buffer_stay_scalar() {
        // Item i's second store and item i+1's first hit the same element.
        strip_case(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                a[i + 1] = i;
                a[i] = 100 + i;
            }",
            &bufs(&[0]),
            vec![i32_buf(40)],
            [16, 1, 1],
            [2, 1, 1],
            Some(StripReject::Race {
                local: false,
                slot: 0,
                store: true,
            }),
        );
    }

    #[test]
    fn global_store_in_a_loop_stays_scalar() {
        // Each item runs the store several times, at addresses its
        // neighbours also write: the loop moves the index.
        strip_case(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                for (int j = 0; j < 3; j++) { a[i + j] = i * 10 + j; }
            }",
            &bufs(&[0]),
            vec![i32_buf(40)],
            [16, 1, 1],
            [2, 1, 1],
            Some(StripReject::Race {
                local: false,
                slot: 0,
                store: true,
            }),
        );
    }

    #[test]
    fn in_place_updates_of_the_items_own_elements_strip() {
        // Loads and stores of one buffer, a store in a loop, two store
        // sites: every element still has one item.
        strip_case(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                for (int j = 0; j < 3; j++) { a[i] = a[i] * 3 + j; }
                if (a[i] > 50) { a[i] = 0; }
            }",
            &bufs(&[0]),
            vec![i32_buf(40)],
            [16, 1, 1],
            [2, 1, 1],
            None,
        );
    }

    #[test]
    fn a_store_pinned_to_one_lane_strips_and_a_shared_one_does_not() {
        let kernel = |guard: &str| {
            format!(
                "__kernel void k(__global int* a, __global int* out) {{
                    int i = get_global_id(0);
                    int v = a[i] * 2;
                    if ({guard}) {{ out[get_group_id(0)] = v; }}
                }}"
            )
        };
        let run = |src: &str, why| {
            strip_case(src, &bufs(&[0, 1]), vec![i32_buf(40), vec![0u8; 8]], [16, 1, 1], [2, 1, 1], why)
        };
        run(&kernel("get_local_id(0) == 3"), None);
        let shared = Some(StripReject::Race {
            local: false,
            slot: 1,
            store: true,
        });
        run(&kernel("get_local_id(0) < 3"), shared);
    }

    #[test]
    fn a_barrier_free_kernel_with_local_memory_strips() {
        strip_case(
            "__kernel void k(__global int* a, __global int* out) {
                __local int t[64];
                int l = get_local_id(0);
                t[l] = a[get_global_id(0)] + 1;
                out[get_global_id(0)] = t[l] * t[l];
            }",
            &bufs(&[0, 1]),
            vec![i32_buf(40), vec![0u8; 4 * 40]],
            [16, 1, 1],
            [2, 1, 1],
            None,
        );
    }

    #[test]
    fn a_barrier_kernel_with_no_race_free_region_names_its_first_pair() {
        strip_case(
            "__kernel void k(__global int* a, __global int* out) {
                __local int t[64];
                int l = get_local_id(0);
                t[l] = a[get_global_id(0)];
                t[l + 1] = 7;
                barrier(CLK_LOCAL_MEM_FENCE);
                out[0] = t[l];
            }",
            &bufs(&[0, 1]),
            vec![i32_buf(40), vec![0u8; 8]],
            [16, 1, 1],
            [2, 1, 1],
            Some(StripReject::Race {
                local: true,
                slot: 0,
                store: true,
            }),
        );
    }

    #[test]
    fn aliased_arguments_are_rejected_per_dispatch() {
        let src = "__kernel void k(__global int* a, __global int* b) {
            int i = get_global_id(0);
            b[i + 1] = a[i] + 1;
        }";
        // With distinct buffers it strips ...
        strip_case(
            src,
            &bufs(&[0, 1]),
            vec![i32_buf(40), i32_buf(40)],
            [16, 1, 1],
            [2, 1, 1],
            None,
        );
        // ... but bound to one buffer it is the in-place shift again.
        strip_case(
            src,
            &bufs(&[0, 0]),
            vec![i32_buf(40)],
            [16, 1, 1],
            [2, 1, 1],
            STORE_LOAD,
        );
    }

    /// LUD `Sub` by hand: in place, reads row and column `step`, writes
    /// strictly below and right of them; `n` is the row width.
    const IN_PLACE: &str = "__kernel void k(__global int* m, const int n, const int step) {
            int j = get_global_id(0) + step + 1;
            int i = get_global_id(1) + step + 1;
            if (i < n && j < n) { m[i * n + j] = m[i * n + j] - m[i * n + step] * m[step * n + j]; }
        }";

    fn in_place_case(lx: usize, n: usize, why: Option<StripReject>) -> StripStats {
        let mut args = bufs(&[0]);
        args.extend([n as i64, 1].map(|v| RtArg::Scalar(Val::I(v))));
        let rows = 2 * 2 * lx.max(n);
        strip_case(IN_PLACE, &args, vec![i32_buf(rows * rows)], [lx, 2, 1], [2, 2, 1], why)
    }

    #[test]
    fn the_in_place_lud_update_strips_where_rows_are_a_strip_apart() {
        for lx in [1, 5, 16, 17, 33] {
            // Two groups of `lx` along dim 0 against `n - 2` columns to update.
            let strip = in_place_case(lx, 2 * lx, None);
            // The bounds guard turns the last items of each row away.
            assert_eq!(strip.unzips > 0, lx > 1);
        }
        // Rows narrower than a strip: row i+1's `m[step*n + j]` is a lane
        // of row i's strip away, and the dispatch runs one lane wide.
        in_place_case(16, 8, STORE_LOAD);
        in_place_case(16, 15, STORE_LOAD);
        in_place_case(16, 16, None);
        in_place_case(5, 5, None);
    }

    #[test]
    fn differing_trip_counts_unzip_and_agreeing_ones_do_not() {
        let kernel = |bound: &str| {
            format!(
                "__kernel void k(__global int* a, __global int* out) {{
                    int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
                    int acc = 0;
                    for (int j = 0; j < {bound}; j++) {{ acc = acc * 3 + a[(i + j) % 64]; }}
                    out[i] = acc;
                }}"
            )
        };
        let run = |src: &str| {
            strip_case(
                src,
                &bufs(&[0, 1]),
                vec![i32_buf(64), vec![0u8; 4 * 66]],
                [33, 2, 1],
                [1, 1, 1],
                None,
            )
        };
        assert!(run(&kernel("(i * 7) % 5")).unzips > 0);
        assert_eq!(run(&kernel("5")).unzips, 0);
    }

    #[test]
    fn strips_follow_dim0_for_every_local_size() {
        // Full strips, short strips, remainders of one, several rows; the
        // divergent branch makes some of them unzip on the way.
        for lx in [1, 5, 16, 17, 33] {
            let n = lx * 3 * 2 * 2;
            strip_case(
                "__kernel void k(__global int* a, __global int* out) {
                    int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
                    int v = a[i] + get_local_id(0) * 1000 + get_local_id(1) * 100 + get_group_id(0);
                    if (i % 3 == 1) { v = v * 2; }
                    out[i] = v;
                }",
                &bufs(&[0, 1]),
                vec![i32_buf(n), vec![0u8; 4 * n]],
                [lx, 3, 1],
                [2, 2, 1],
                None,
            );
        }
    }

    #[test]
    fn private_array_kernel_strips() {
        // Docrank's shape: private arrays bound through a local pointer
        // (sited only thanks to pointer copy propagation), stored in loops.
        let strip = strip_case(
            "__kernel void k(__global float* docs, __global int* flags) {
                int d = get_global_id(0);
                float tf[8];
                for (int t = 0; t < 8; t++) { tf[t] = docs[d * 8 + t]; }
                float s = 0.0f;
                for (int t = 0; t < 8; t++) { s = s + tf[t] * tf[7 - t]; }
                int wanted = 0;
                if (s > 150.0f) { wanted = 1; }
                flags[d] = wanted;
            }",
            &bufs(&[0, 1]),
            vec![
                f32_buf(&(0..256).map(|i| (i % 11) as f32).collect::<Vec<_>>()),
                vec![0u8; 4 * 32],
            ],
            [16, 1, 1],
            [2, 1, 1],
            None,
        );
        assert!(strip.unzips > 0, "the threshold test splits some strip");
    }

    #[test]
    fn float4_kernel_strips() {
        strip_case(
            "__kernel void k(__global float4* a, __global float* out) {
                int i = get_global_id(0);
                float4 x = a[i];
                float4 y = (float4)(2.0f) * x + (float4)(x.w, x.z, x.y, x.x);
                y.z = y.z / 3.0f;
                out[i] = dot(x, y) + y.z;
            }",
            &bufs(&[0, 1]),
            vec![
                f32_buf(&(0..128).map(|i| i as f32 * 0.5 - 7.0).collect::<Vec<_>>()),
                vec![0u8; 4 * 32],
            ],
            [16, 1, 1],
            [2, 1, 1],
            None,
        );
    }

    /// Compile `src`'s kernel `k`, check that the strip rule admits it at
    /// 16-item groups, and run the (trapping) triangle.
    fn strip_trap_case(src: &str, pool: Vec<Vec<u8>>) -> Trap {
        let unit = compile(&parse(src).expect("parse")).expect("compile");
        let info = unit.kernels.get("k").expect("kernel").clone();
        let reg = regir::compile_kernel(&unit, &info).expect("register compile");
        let nat = compile_native(&reg, &info).expect("native compile");
        let args = bufs(&(0..pool.len()).collect::<Vec<_>>());
        let template = register_template(&info, &args, nat.main_const_base, &nat.template_static);
        let ro = vec![false; pool.len()];
        let sites: Vec<Site> = nat
            .site_ptrs
            .iter()
            .map(|&p| resolve_site(template[p as usize].ptr(), pool.len(), &ro, 0))
            .collect();
        let geo = Geometry {
            group_id: [0; 3],
            global_size: [32, 1, 1],
            local_size: [16, 1, 1],
            num_groups: [2, 1, 1],
        };
        let verdict = nat.regions[0].1.race_free(&nat.forms, &sites, &template, &geo, STRIP);
        assert_eq!(verdict, Ok(()), "the trap must happen in strip mode");
        triangle_native(src, "k", &args, (pool, ro), [32, 1, 1], [16, 1, 1])
            .expect_err("the kernel traps")
    }

    #[test]
    fn the_first_trap_in_item_order_wins_over_the_first_in_time() {
        // Lane 5 traps on its first instructions; lane 2 traps much later.
        // The sequential sweep never reaches item 5.
        let trap = strip_trap_case(
            "__kernel void k(__global int* a, __global int* out) {
                int i = get_global_id(0);
                int v = a[i];
                if (i == 5) { v = a[i + 1000000]; }
                for (int j = 0; j < 20; j++) { v = v * 3 + j; }
                int z = i - 2;
                out[i] = v / z;
            }",
            vec![i32_buf(32), vec![0u8; 4 * 32]],
        );
        assert_eq!(trap.global_id, [2, 0, 0]);
        assert_eq!(trap.message, "integer division by zero");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "2e9 interpreted ops per engine: release only"
    )]
    fn op_budget_trap_inside_a_strip() {
        // Lanes 0 and 1 spin together as a strip of two after lane 2
        // leaves the loop; lane 0 exhausts the budget first.
        let trap = strip_trap_case(
            "__kernel void k(__global float* a, __global float* out) {
                int i = get_global_id(0);
                float v = a[i];
                while (i < 2) { v = v / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f / 1.5f; }
                out[i] = v;
            }",
            vec![f32_buf(&[1.0; 32]), vec![0u8; 4 * 32]],
        );
        assert_eq!(trap.global_id, [0, 0, 0]);
        assert!(trap.message.contains("op budget"));
    }

    /// Run one group of `src`'s barrier-free kernel `k` on the native
    /// engine's group path: its outcome, and the ops its lanes retired.
    fn retired_ops(src: &str, pool: Vec<Vec<u8>>, local: usize) -> (Result<u64, Trap>, u64) {
        let unit = compile(&parse(src).expect("parse")).expect("compile");
        let info = unit.kernels.get("k").expect("kernel").clone();
        let reg = regir::compile_kernel(&unit, &info).expect("register compile");
        let prog = compile_native(&reg, &info).expect("native compile");
        let args = bufs(&(0..pool.len()).collect::<Vec<_>>());
        let template = register_template(&info, &args, prog.main_const_base, &prog.template_static);
        let mut bufs = pool;
        let read_only = vec![false; bufs.len()];
        let sites: Vec<Site> = prog
            .site_ptrs
            .iter()
            .map(|&p| resolve_site(template[p as usize].ptr(), bufs.len(), &read_only, 0))
            .collect();
        let geo = Geometry {
            group_id: [0; 3],
            global_size: [local, 1, 1],
            local_size: [local, 1, 1],
            num_groups: [1; 3],
        };
        let mut tally = StripStats::default();
        let mut groups = Groups {
            prog: &prog,
            template: &template,
            priv_bytes: info.priv_bytes,
            cx: NCtx {
                bufs: &mut bufs,
                read_only: &read_only,
                local_regions: vec![],
                sites: &sites,
                geo,
                unzip: Unzip::default(),
            },
            width: local.min(STRIP),
            wide: vec![],
            tally: &mut tally,
        };
        let mut lanes: Vec<NItem> = (0..local.min(STRIP)).map(|_| groups.arena()).collect();
        let outcome = groups.run_free_group(&mut lanes);
        (outcome, lanes.iter().map(|st| st.ops).sum())
    }

    /// Every lane spins: `STRIP` lanes share one loop, and the first one
    /// leaves the strip once it has spent its share of the budget, so the
    /// trap comes after about twice the scalar path's ops, not `STRIP`
    /// times (2e9 ops of interpreted work: release only).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "4e9 interpreted ops: release only"
    )]
    fn a_runaway_loop_in_a_strip_traps_after_about_the_scalar_budget() {
        let src = "__kernel void k(__global float* a, __global float* out) {
            int i = get_global_id(0);
            float v = a[i];
            while (i >= 0) { v = v / 1.5f / 1.5f / 1.5f / 1.5f; }
            out[i] = v;
        }";
        let (outcome, ops) = retired_ops(src, vec![f32_buf(&[1.0; 16]), vec![0u8; 4 * 16]], 16);
        let trap = outcome.expect_err("the loop never ends");
        assert_eq!(trap.global_id, [0, 0, 0]);
        assert_eq!(trap.message, "work-item exceeded the op budget (infinite loop?)");
        // Lane 0 alone would retire just over the budget; sixteen lanes in
        // lockstep retired sixteen times that before the fix.
        assert!(ops <= 2 * MAX_ITEM_OPS, "{ops} ops retired before the trap");
        assert!(ops > MAX_ITEM_OPS, "{ops}");
    }

    /// Two lanes run a loop that ends just under the budget: both leave
    /// the strip on the way and still finish.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "4e9 interpreted ops: release only"
    )]
    fn a_loop_just_under_the_budget_completes_in_a_strip() {
        let src = |n: i64| {
            format!(
                "__kernel void k(__global int* a, __global int* out) {{
                    int i = get_global_id(0);
                    int v = a[i];
                    for (int j = 0; j < {n}; j++) {{ v = v * 3 + j; }}
                    out[i] = v;
                }}"
            )
        };
        // Ops per item at two trip counts give the cost of one iteration.
        let per_item = |n: i64| {
            let (outcome, _) = retired_ops(&src(n), vec![i32_buf(2), vec![0u8; 8]], 2);
            outcome.expect("runs") / 2
        };
        let (base, step) = (per_item(0), per_item(1000) - per_item(0));
        let n = (MAX_ITEM_OPS - base - 2 * step) / step * 1000;
        let (outcome, _) = retired_ops(&src(n as i64), vec![i32_buf(2), vec![0u8; 8]], 2);
        let ops = outcome.expect("just under the budget: no trap");
        assert!(ops > 2 * (MAX_ITEM_OPS - 3 * step), "{ops}");
    }
}

#[cfg(test)]
mod microbench {
    use super::*;
    use crate::minicl::codegen::compile;
    use crate::minicl::driver::{all_groups, run_ndrange, Lowered};
    use crate::minicl::interp::Val;
    use crate::minicl::parser::parse;
    use crate::minicl::regir;

    #[test]
    #[ignore]
    fn kernel_micro() {
        let src = r#"
            __kernel void mm(__global float* a, __global float* b, __global float* c, const int n) {
                int i = get_global_id(1); int j = get_global_id(0);
                float acc = 0.0f;
                for (int k = 0; k < n; k++) { acc = acc + a[i*n+k]*b[k*n+j]; }
                c[i*n+j] = acc;
            }
        "#;
        let n = 128usize;
        let ast = parse(src).unwrap();
        let unit = compile(&ast).unwrap();
        let info = unit.kernels.get("mm").unwrap().clone();
        let reg = regir::compile_kernel(&unit, &info).unwrap();
        let nat = compile_native(&reg, &info).unwrap();
        let args = [
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Buf { pool_slot: 2 },
            RtArg::Scalar(Val::I(n as i64)),
        ];
        let mk = || MemPool {
            bufs: vec![vec![1u8; n * n * 4], vec![2u8; n * n * 4], vec![0u8; n * n * 4]],
            read_only: vec![false, false, false],
        };
        let global = [n, n, 1];
        let local = [16, 16, 1];
        let mut best_r = u128::MAX;
        let mut best_n = u128::MAX;
        for _ in 0..15 {
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Register(&reg), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_r = best_r.min(t.elapsed().as_micros());
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Native(&nat), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_n = best_n.min(t.elapsed().as_micros());
        }
        eprintln!("register {best_r}us native {best_n}us speedup {:.2}x", best_r as f64 / best_n as f64);
    }

    #[test]
    #[ignore]
    fn barrier_micro() {
        let src = r#"
            __kernel void red(__global float* in, __global float* out, __local float* s, const int n) {
                int gid = get_global_id(0);
                int l = get_local_id(0);
                if (gid < n) { s[l] = in[gid]; } else { s[l] = 3.0e38f; }
                barrier(CLK_LOCAL_MEM_FENCE);
                for (int st = get_local_size(0) / 2; st > 0; st = st / 2) {
                    if (l < st) { if (s[l + st] < s[l]) { s[l] = s[l + st]; } }
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                if (l == 0) { out[get_group_id(0)] = s[0]; }
            }
        "#;
        let n = 1usize << 20;
        let group = 256usize;
        let ast = parse(src).unwrap();
        let unit = compile(&ast).unwrap();
        let info = unit.kernels.get("red").unwrap().clone();
        let reg = regir::compile_kernel(&unit, &info).unwrap();
        let nat = compile_native(&reg, &info).unwrap();
        let args = [
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Local { bytes: group * 4 },
            RtArg::Scalar(Val::I(n as i64)),
        ];
        let mk = || MemPool {
            bufs: vec![vec![1u8; n * 4], vec![0u8; (n / group) * 4]],
            read_only: vec![false, false],
        };
        let global = [n, 1, 1];
        let local = [group, 1, 1];
        let mut best_r = u128::MAX;
        let mut best_n = u128::MAX;
        for _ in 0..15 {
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Register(&reg), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_r = best_r.min(t.elapsed().as_micros());
            let mut pool = mk();
            let t = std::time::Instant::now();
            let window = all_groups(global, local);
            run_ndrange(Lowered::Native(&nat), &info, &args, &mut pool, global, local, window)
                .unwrap();
            best_n = best_n.min(t.elapsed().as_micros());
        }
        eprintln!("register {best_r}us native {best_n}us speedup {:.2}x", best_r as f64 / best_n as f64);
    }
}
