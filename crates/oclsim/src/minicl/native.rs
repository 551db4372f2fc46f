//! Work-group native engine: direct-threaded execution of the register IR.
//!
//! [`compile_native`] lowers a *validated* [`RegProgram`](super::RegProgram) one rung further,
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
//!   no dispatch of its own. The adjacent pairs the benchmark's kernels
//!   select collapse into one handler (listed at [`compile_native`]), and
//!   the code is compacted — fused slots disappear and jump targets are
//!   remapped — roughly halving dispatches on the benchmark hot loops. A
//!   pair is added only with a kernel of that traffic that selects it.
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

use super::driver::{Geometry, Stop};
use super::interp::Trap;
use super::regir::RVal;
use std::ops::Range;

mod dispatch;
#[macro_use]
mod handlers;
mod lower;
mod regions;
mod strip;
#[cfg(test)]
mod tests;

pub(super) use dispatch::run_window;
use handlers::cmp_inv;
pub use lower::compile_native;
use lower::{op_regs, target_of, FOp};

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
/// [`RegProgram`](super::RegProgram), executed by [`run_ndrange`](super::run_ndrange) as
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
    /// Number of native instructions: a fused pair is one instruction, and
    /// a block-entry charge folded into its successor is none.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program has no instructions (never produced by
    /// [`compile_native`], which emits at least a halt).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}
