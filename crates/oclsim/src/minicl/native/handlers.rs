use super::strip::{lanes_agree, settle, strip};
use super::{NCtx, NInstr, NItem, Site, SiteKind, H, HP, IP_BARRIER, IP_DONE, IP_TRAP, SH};
use crate::minicl::ast::Space;
use crate::minicl::bytecode::{Cmp, ElemTy};
use crate::minicl::interp::{checked_offset, oob, PtrV, Trap, MAX_ITEM_OPS};
use crate::minicl::regir::{read_reg, write_reg, RVal};

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

// The trap helpers are cold and stay out of line, but they are
// `#[inline]`, not `#[inline(never)]`: the scalar handlers here and their
// strip twins (expanded by `hp!` in `lower`) call them from two codegen
// units, and `#[inline]` gives each unit a local copy. LLVM then sees the
// constant `IP_TRAP` each returns at every call site and can drop the
// lane loop's successor test; with one shared copy it cannot, and the
// strip twins run slower.
#[cold]
#[inline]
fn trap(st: &mut NItem, message: String) -> u32 {
    st.trap = Some(Trap {
        message,
        global_id: st.gid,
    });
    IP_TRAP
}

#[cold]
#[inline]
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
pub(super) fn site_at(sites: &[Site], site: usize) -> &Site {
    debug_assert!(site < sites.len(), "site index out of range");
    // SAFETY: site indices are assigned densely at lowering time and the
    // dispatch builds `sites` with exactly that many entries; the
    // collection does not change during a dispatch.
    unsafe { sites.get_unchecked(site) }
}

#[cold]
#[inline]
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
    #[inline]
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
#[inline]
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
pub(super) trait Mem {
    fn load(&mut self, st: &mut NItem, idx: i64, ty: ElemTy) -> Result<RVal, u32>;
    fn store(&mut self, st: &mut NItem, idx: i64, ty: ElemTy, v: RVal) -> Result<(), u32>;
}

/// The scalar path: fetch the site, test its kind and find its bytes at
/// every access.
pub(super) struct AtSite<'c, 'a> {
    pub(super) cx: &'c mut NCtx<'a>,
    pub(super) site: usize,
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
pub(super) struct Shared<'b> {
    pub(super) base: u32,
    pub(super) ro: bool,
    pub(super) bytes: &'b mut [u8],
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
pub(super) fn cmp_inv(c: Cmp) -> Cmp {
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
pub(super) fn h_ops(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.ops += i.imm;
    if st.ops > MAX_ITEM_OPS {
        return trap_budget(st);
    }
    ip + 1
}

#[inline(always)]
pub(super) fn h_mov(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, rg!(st, i.b));
    ip + 1
}

#[inline(always)]
pub(super) fn h_swap(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.regs.swap(i.a as usize, i.b as usize);
    ip + 1
}

/// Integer binary op: `a = expr(b, c)`.
macro_rules! hbi {
    ($name:ident, $x:ident, $y:ident, $e:expr) => {
        #[inline(always)]
        pub(super) fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_divi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_divi_p2(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let x = rg!(st, i.b).i();
    let bias = ((x >> 63) as u64 >> (64 - i.g as u32)) as i64;
    sw!(st, i.a, RVal::from_i((x + bias) >> i.g));
    ip + 1
}

#[inline(always)]
pub(super) fn h_remi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
        pub(super) fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
        pub(super) fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
        pub(super) fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_i2f(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_f(rg!(st, i.b).i() as f64));
    ip + 1
}

#[inline(always)]
pub(super) fn h_f2i(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let x = rg!(st, i.b).f();
    sw!(st, i.a, RVal::from_i(if x.is_nan() { 0 } else { x as i64 }));
    ip + 1
}

/// Float4 binary op: `a = expr(b, c)` lane-wise.
macro_rules! hbf4 {
    ($name:ident, $x:ident, $y:ident, $e:expr) => {
        #[inline(always)]
        pub(super) fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_splatf4(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let x = rg!(st, i.b).f() as f32;
    sw!(st, i.a, RVal::from_f4([x; 4]));
    ip + 1
}

#[inline(always)]
pub(super) fn h_makef4(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_getcomp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_f(rg!(st, i.b).f4()[i.g as usize] as f64));
    ip + 1
}

#[inline(always)]
pub(super) fn h_setcomp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let mut v = rg!(st, i.b).f4();
    v[i.g as usize] = rg!(st, i.c).f() as f32;
    sw!(st, i.a, RVal::from_f4(v));
    ip + 1
}

#[inline(always)]
pub(super) fn h_dot(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_clamp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (x, l, h) = (rg!(st, i.b).f(), rg!(st, i.c).f(), rg!(st, i.d).f());
    sw!(st, i.a, RVal::from_f(x.max(l).min(h)));
    ip + 1
}

#[inline(always)]
pub(super) fn h_mad(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_madrf(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_f(rg!(st, i.b).f() + rg!(st, i.c).f() * rg!(st, i.d).f())
    );
    ip + 1
}

#[inline(always)]
pub(super) fn h_madi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_cmpi_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(cmpi_c::<C>(rg!(st, i.b).i(), rg!(st, i.c).i()) as i64)
    );
    ip + 1
}

#[inline(always)]
pub(super) fn h_cmpf_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(cmpf_c::<C>(rg!(st, i.b).f(), rg!(st, i.c).f()) as i64)
    );
    ip + 1
}

#[inline(always)]
pub(super) fn h_jmp(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, _ip: u32) -> u32 {
    chgi!(st, i);
    i.t
}

#[inline(always)]
pub(super) fn h_jz(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    if rg!(st, i.a).i() == 0 {
        i.t
    } else {
        ip + 1
    }
}

#[inline(always)]
pub(super) fn h_jnz(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_jci_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_jcf_c<const C: u8, const W: bool>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgi!(st, i);
    if cmpf_c::<C>(rg!(st, i.a).f(), rg!(st, i.b).f()) == W {
        i.t
    } else {
        ip + 1
    }
}

pub(super) fn jci_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_jci_c::<0>),
        1 => hp!(h_jci_c::<1>),
        2 => hp!(h_jci_c::<2>),
        3 => hp!(h_jci_c::<3>),
        4 => hp!(h_jci_c::<4>),
        _ => hp!(h_jci_c::<5>),
    }
}

pub(super) fn jcf_h(c: Cmp, when: bool) -> HP {
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

pub(super) fn cmpi_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_cmpi_c::<0>),
        1 => hp!(h_cmpi_c::<1>),
        2 => hp!(h_cmpi_c::<2>),
        3 => hp!(h_cmpi_c::<3>),
        4 => hp!(h_cmpi_c::<4>),
        _ => hp!(h_cmpi_c::<5>),
    }
}

pub(super) fn cmpf_h(c: Cmp) -> HP {
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
pub(super) fn h_ld_c<const T: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_st_c<const T: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
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

pub(super) const fn ty_code(ty: ElemTy) -> u8 {
    match ty {
        ElemTy::I32 => 0,
        ElemTy::I64 => 1,
        ElemTy::F32 => 2,
        ElemTy::F4 => 3,
    }
}

pub(super) fn ld_h(ty: ElemTy) -> HP {
    match ty_code(ty) {
        0 => hp_mem!(h_ld_c, 0),
        1 => hp_mem!(h_ld_c, 1),
        2 => hp_mem!(h_ld_c, 2),
        _ => hp_mem!(h_ld_c, 3),
    }
}

pub(super) fn st_h(ty: ElemTy) -> HP {
    match ty_code(ty) {
        0 => hp_mem!(h_st_c, 0),
        1 => hp_mem!(h_st_c, 1),
        2 => hp_mem!(h_st_c, 2),
        _ => hp_mem!(h_st_c, 3),
    }
}

/// Dynamic load: `a`=dst, `b`=idx, `c`=ptr reg, `g`=element-type code.
#[inline(always)]
pub(super) fn h_ld_dyn(st: &mut NItem, cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_st_dyn(st: &mut NItem, cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
        pub(super) fn $name($st: &mut NItem, $cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
        pub(super) fn $name($st: &mut NItem, $cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
pub(super) fn h_const_i(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_i(i.imm as i64));
    ip + 1
}

/// Inline-call prologue: copy `c` argument registers from `b..` to `a..`.
#[inline(always)]
pub(super) fn h_copyargs(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.regs
        .copy_within(i.b as usize..(i.b + i.c) as usize, i.a as usize);
    ip + 1
}

/// Inline-call prologue: zero `b` callee locals starting at `a`.
#[inline(always)]
pub(super) fn h_zerolocals(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.regs[i.a as usize..(i.a + i.b) as usize].fill(RVal::default());
    ip + 1
}

#[inline(always)]
pub(super) fn h_barrier(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    st.ip = ip + 1;
    IP_BARRIER
}

#[inline(always)]
pub(super) fn h_done(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, _ip: u32) -> u32 {
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

/// Loop decrement + compare-and-branch: `a = b - c; if (d cmp e) goto t`.
#[inline(always)]
pub(super) fn h_subi_jci_c<const C: u8>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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

/// Two adjacent sited float loads:
/// `a = [site1][b]; c = [site2][d]`, `imm = site1 | site2 << 32`.
#[inline(always)]
pub(super) fn h_ld_ld_c(st: &mut NItem, cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let idx1 = rg!(st, i.b).i();
    match load_site(st, cx, (i.imm & 0xffff_ffff) as usize, idx1, ElemTy::F32) {
        Ok(v) => sw!(st, i.a, v),
        Err(h) => return h,
    }
    let idx2 = rg!(st, i.d).i();
    match load_site(st, cx, (i.imm >> 32) as usize, idx2, ElemTy::F32) {
        Ok(v) => {
            sw!(st, i.c, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Integer add + sited float load: `a = b + c; d = [site][e]`.
#[inline(always)]
pub(super) fn h_addi_ld_c<M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_i(rg!(st, i.b).i().wrapping_add(rg!(st, i.c).i()))
    );
    let idx = rg!(st, i.e).i();
    match m.load(st, idx, ElemTy::F32) {
        Ok(v) => {
            sw!(st, i.d, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Integer multiply-add + sited float load: `a = b * c + d; e = [site][g]`
/// (the matmul row/column address-compute + fetch pair).
#[inline(always)]
pub(super) fn h_madi_ld_c<M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
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
    match m.load(st, idx, ElemTy::F32) {
        Ok(v) => {
            sw!(st, i.e, v);
            ip + 1
        }
        Err(h) => h,
    }
}

/// Sited float store + integer add: `[site][b] = c; a = d + e`
/// (store result, bump the index).
#[inline(always)]
pub(super) fn h_st_addi_c<M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let (idx, v) = (rg!(st, i.b).i(), rg!(st, i.c));
    if let Err(h) = m.store(st, idx, ElemTy::F32, v) {
        return h;
    }
    sw!(
        st,
        i.a,
        RVal::from_i(rg!(st, i.d).i().wrapping_add(rg!(st, i.e).i()))
    );
    ip + 1
}

/// Sited float load + multiply-add `a * b + c`.
#[inline(always)]
pub(super) fn h_ld_mad<M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
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

/// Sited float load + float add (`B` = 0) or multiply (`B` = 2):
/// `a = [site][b]; c = d op e`.
#[inline(always)]
pub(super) fn h_ld_fbin_c<const B: u8, M: Mem>(st: &mut NItem, m: &mut M, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    let idx = rg!(st, i.b).i();
    match m.load(st, idx, ElemTy::F32) {
        Ok(v) => sw!(st, i.a, v),
        Err(h) => return h,
    }
    let (x, y) = (rg!(st, i.d).f(), rg!(st, i.e).f());
    let v = if B == 0 { x + y } else { x * y };
    sw!(st, i.c, RVal::from_f(v));
    ip + 1
}

/// Float multiply-add `c + a * b` followed by an integer add:
/// `a = b + c * d; e = g + imm`.
#[inline(always)]
pub(super) fn h_madrf_addi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(
        st,
        i.a,
        RVal::from_f(rg!(st, i.b).f() + rg!(st, i.c).f() * rg!(st, i.d).f())
    );
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
pub(super) fn h_mulf_madf_c<const M: bool>(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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

/// Register copy + integer add: `a = b; c = d + e`.
#[inline(always)]
pub(super) fn h_mov_addi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
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
        pub(super) fn $name(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
            chgt!(st, i);
            let ($x, $y) = (rg!(st, i.b).f(), rg!(st, i.c).f());
            sw!(st, i.a, RVal::from_f($e1));
            let ($u, $v) = (rg!(st, i.e).f(), rg!(st, i.g).f());
            sw!(st, i.d, RVal::from_f($e2));
            ip + 1
        }
    };
}
hff!(h_ff_sa, x, y, x - y, u, v, u + v);
hff!(h_ff_ms, x, y, x * y, u, v, u - v);
hff!(h_ff_mm, x, y, x * y, u, v, u * v);

/// Two adjacent integer adds: `a = b + c; d = e + g`.
#[inline(always)]
pub(super) fn h_addi_addi(st: &mut NItem, _cx: &mut NCtx, i: &NInstr, ip: u32) -> u32 {
    chgt!(st, i);
    sw!(st, i.a, RVal::from_i(rg!(st, i.b).i().wrapping_add(rg!(st, i.c).i())));
    sw!(st, i.d, RVal::from_i(rg!(st, i.e).i().wrapping_add(rg!(st, i.g).i())));
    ip + 1
}

pub(super) fn subi_jci_h(c: Cmp) -> HP {
    match cmp_code(c) {
        0 => hp!(h_subi_jci_c::<0>),
        1 => hp!(h_subi_jci_c::<1>),
        2 => hp!(h_subi_jci_c::<2>),
        3 => hp!(h_subi_jci_c::<3>),
        4 => hp!(h_subi_jci_c::<4>),
        _ => hp!(h_subi_jci_c::<5>),
    }
}
