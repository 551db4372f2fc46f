//! Work-group interpreter for compiled mini OpenCL-C kernels.
//!
//! Work-groups execute sequentially (the *virtual clock*, not the host
//! clock, models device parallelism — see [`crate::timing`]). Within a
//! group, items run to completion when the kernel has no barriers; when it
//! does, every item is a resumable state machine and the group advances in
//! lock-step rounds between [`Op::Barrier`] instructions, exactly the
//! semantics OpenCL guarantees (and traps on the divergent-barrier case
//! OpenCL declares undefined). The group walk and the lock-step sweep are
//! the shared driver's ([`super::driver`]); this module is "run one item".

use super::ast::Space;
use super::bytecode::*;
use super::driver::{locals_template, Geometry, GroupEngine, Stop};

/// Runtime argument for a dispatch, already resolved by the host layer.
#[derive(Debug, Clone)]
pub enum RtArg {
    /// A device buffer: index into the [`MemPool`].
    Buf {
        /// Pool slot holding the bytes.
        pool_slot: usize,
    },
    /// An immediate scalar.
    Scalar(Val),
    /// A `__local` allocation of the given size (set by the host with
    /// `set_arg_local`, mirroring `clSetKernelArg(size, NULL)`).
    Local {
        /// Bytes to allocate per work-group.
        bytes: usize,
    },
}

/// Buffer bytes checked out for the duration of one dispatch.
#[derive(Debug, Default)]
pub struct MemPool {
    /// Byte storage per pool slot.
    pub bufs: Vec<Vec<u8>>,
    /// Whether writes to the slot should trap (const / `__constant`).
    pub read_only: Vec<bool>,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// Integer register (int/uint/long/bool).
    I(i64),
    /// Float register (f32 semantics, f64 storage).
    F(f64),
    /// float4 register.
    F4([f32; 4]),
    /// Pointer register.
    Ptr(PtrV),
}

/// A pointer value: address space + region slot + byte base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtrV {
    /// Address space.
    pub space: Space,
    /// Pool slot (global/constant) or local-region index (local).
    pub slot: u16,
    /// Byte offset of the pointed-to base within the region.
    pub base: u32,
}

/// A kernel runtime fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Trap {
    /// Description of the fault.
    pub message: String,
    /// Global id of the faulting work-item.
    pub global_id: [usize; 3],
}

/// Abort threshold: a single work-item retiring this many ops is assumed to
/// be stuck in an infinite loop (no paper kernel comes within 10⁴× of it).
/// Shared with the register engine so both trap identically.
pub(super) const MAX_ITEM_OPS: u64 = 2_000_000_000;

struct Frame {
    ret_ip: usize,
    base: usize,
}

/// One work-item of the stack interpreter.
pub(super) struct Item {
    ip: usize,
    stack: Vec<Val>,
    locals: Vec<Val>,
    frames: Vec<Frame>,
    priv_mem: Vec<u8>,
    gid: [usize; 3],
    lid: [usize; 3],
    ops: u64,
}

/// The stack interpreter's side of a dispatch.
pub(super) struct GroupCtx<'a> {
    code: &'a [Op],
    funcs: &'a [FuncInfo],
    kernel: &'a KernelInfo,
    /// The parameter-binding part of a work-item's locals frame is the same
    /// for every item of the dispatch: built once, copied per item.
    locals_template: Vec<Val>,
    pool: &'a mut MemPool,
    local_regions: Vec<Vec<u8>>,
    geo: Geometry,
}

impl<'a> GroupCtx<'a> {
    pub(super) fn new(
        unit: &'a CompiledUnit,
        kernel: &'a KernelInfo,
        args: &[RtArg],
        pool: &'a mut MemPool,
        geo: Geometry,
        local_regions: Vec<Vec<u8>>,
    ) -> Self {
        GroupCtx {
            code: &unit.code,
            funcs: &unit.funcs,
            kernel,
            locals_template: locals_template(kernel, args),
            pool,
            local_regions,
            geo,
        }
    }
}

impl GroupEngine for GroupCtx<'_> {
    type Item = Item;

    fn geometry(&mut self) -> &mut Geometry {
        &mut self.geo
    }

    fn local_regions(&mut self) -> &mut [Vec<u8>] {
        &mut self.local_regions
    }

    fn arena(&self) -> Item {
        Item {
            ip: 0,
            stack: Vec::with_capacity(16),
            locals: Vec::new(),
            frames: Vec::new(),
            priv_mem: Vec::new(),
            gid: [0; 3],
            lid: [0; 3],
            ops: 0,
        }
    }

    fn reset(&self, item: &mut Item, lid: [usize; 3]) {
        item.ip = self.kernel.entry as usize;
        item.stack.clear();
        item.frames.clear();
        item.locals.clear();
        item.locals.extend_from_slice(&self.locals_template);
        item.priv_mem.clear();
        item.priv_mem.resize(self.kernel.priv_bytes, 0);
        item.lid = lid;
        item.gid = self.geo.item_gid(lid);
        item.ops = 0;
    }

    fn step(&mut self, item: &mut Item) -> Result<Stop, Trap> {
        step_until_stop(item, self)
    }

    fn ops(item: &Item) -> u64 {
        item.ops
    }

    fn gid(item: &Item) -> [usize; 3] {
        item.gid
    }
}

macro_rules! pop {
    ($item:expr) => {
        $item.stack.pop().ok_or_else(|| Trap {
            message: "operand stack underflow".to_string(),
            global_id: $item.gid,
        })?
    };
}

macro_rules! pop_i {
    ($item:expr) => {
        match pop!($item) {
            Val::I(v) => v,
            other => {
                return Err(Trap {
                    message: format!("expected int on stack, found {other:?}"),
                    global_id: $item.gid,
                })
            }
        }
    };
}

macro_rules! pop_f {
    ($item:expr) => {
        match pop!($item) {
            Val::F(v) => v,
            other => {
                return Err(Trap {
                    message: format!("expected float on stack, found {other:?}"),
                    global_id: $item.gid,
                })
            }
        }
    };
}

macro_rules! pop_f4 {
    ($item:expr) => {
        match pop!($item) {
            Val::F4(v) => v,
            other => {
                return Err(Trap {
                    message: format!("expected float4 on stack, found {other:?}"),
                    global_id: $item.gid,
                })
            }
        }
    };
}

macro_rules! pop_ptr {
    ($item:expr) => {
        match pop!($item) {
            Val::Ptr(p) => p,
            other => {
                return Err(Trap {
                    message: format!("expected pointer on stack, found {other:?}"),
                    global_id: $item.gid,
                })
            }
        }
    };
}

fn step_until_stop(item: &mut Item, ctx: &mut GroupCtx<'_>) -> Result<Stop, Trap> {
    loop {
        let op = &ctx.code[item.ip];
        item.ops += op.cost();
        if item.ops > MAX_ITEM_OPS {
            return Err(Trap {
                message: "work-item exceeded the op budget (infinite loop?)".to_string(),
                global_id: item.gid,
            });
        }
        item.ip += 1;
        match op {
            Op::PushI(v) => item.stack.push(Val::I(*v)),
            Op::PushF(v) => item.stack.push(Val::F(*v)),
            Op::PushPtr { space, slot, base } => item.stack.push(Val::Ptr(PtrV {
                space: *space,
                slot: *slot,
                base: *base,
            })),
            Op::Pop => {
                pop!(item);
            }
            Op::Dup => {
                let v = *item.stack.last().ok_or_else(|| Trap {
                    message: "dup on empty stack".to_string(),
                    global_id: item.gid,
                })?;
                item.stack.push(v);
            }
            Op::Dup2 => {
                let n = item.stack.len();
                if n < 2 {
                    return Err(Trap {
                        message: "dup2 on short stack".to_string(),
                        global_id: item.gid,
                    });
                }
                let a = item.stack[n - 2];
                let b = item.stack[n - 1];
                item.stack.push(a);
                item.stack.push(b);
            }
            Op::Swap => {
                let n = item.stack.len();
                if n < 2 {
                    return Err(Trap {
                        message: "swap on short stack".to_string(),
                        global_id: item.gid,
                    });
                }
                item.stack.swap(n - 2, n - 1);
            }
            Op::Ld(slot) => {
                let base = item.frames.last().map(|f| f.base).unwrap_or(0);
                item.stack.push(item.locals[base + *slot as usize]);
            }
            Op::St(slot) => {
                let v = pop!(item);
                let base = item.frames.last().map(|f| f.base).unwrap_or(0);
                item.locals[base + *slot as usize] = v;
            }
            Op::AddI => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a.wrapping_add(b)));
            }
            Op::SubI => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a.wrapping_sub(b)));
            }
            Op::MulI => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a.wrapping_mul(b)));
            }
            Op::DivI => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                if b == 0 {
                    return Err(Trap {
                        message: "integer division by zero".to_string(),
                        global_id: item.gid,
                    });
                }
                item.stack.push(Val::I(a.wrapping_div(b)));
            }
            Op::RemI => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                if b == 0 {
                    return Err(Trap {
                        message: "integer remainder by zero".to_string(),
                        global_id: item.gid,
                    });
                }
                item.stack.push(Val::I(a.wrapping_rem(b)));
            }
            Op::NegI => {
                let a = pop_i!(item);
                item.stack.push(Val::I(a.wrapping_neg()));
            }
            Op::AddF => {
                let b = pop_f!(item);
                let a = pop_f!(item);
                item.stack.push(Val::F(a + b));
            }
            Op::SubF => {
                let b = pop_f!(item);
                let a = pop_f!(item);
                item.stack.push(Val::F(a - b));
            }
            Op::MulF => {
                let b = pop_f!(item);
                let a = pop_f!(item);
                item.stack.push(Val::F(a * b));
            }
            Op::DivF => {
                let b = pop_f!(item);
                let a = pop_f!(item);
                item.stack.push(Val::F(a / b));
            }
            Op::NegF => {
                let a = pop_f!(item);
                item.stack.push(Val::F(-a));
            }
            Op::AddF4 => {
                let b = pop_f4!(item);
                let a = pop_f4!(item);
                item.stack.push(Val::F4([
                    a[0] + b[0],
                    a[1] + b[1],
                    a[2] + b[2],
                    a[3] + b[3],
                ]));
            }
            Op::SubF4 => {
                let b = pop_f4!(item);
                let a = pop_f4!(item);
                item.stack.push(Val::F4([
                    a[0] - b[0],
                    a[1] - b[1],
                    a[2] - b[2],
                    a[3] - b[3],
                ]));
            }
            Op::MulF4 => {
                let b = pop_f4!(item);
                let a = pop_f4!(item);
                item.stack.push(Val::F4([
                    a[0] * b[0],
                    a[1] * b[1],
                    a[2] * b[2],
                    a[3] * b[3],
                ]));
            }
            Op::DivF4 => {
                let b = pop_f4!(item);
                let a = pop_f4!(item);
                item.stack.push(Val::F4([
                    a[0] / b[0],
                    a[1] / b[1],
                    a[2] / b[2],
                    a[3] / b[3],
                ]));
            }
            Op::SplatF4 => {
                let a = pop_f!(item) as f32;
                item.stack.push(Val::F4([a; 4]));
            }
            Op::MakeF4 => {
                let w = pop_f!(item) as f32;
                let z = pop_f!(item) as f32;
                let y = pop_f!(item) as f32;
                let x = pop_f!(item) as f32;
                item.stack.push(Val::F4([x, y, z, w]));
            }
            Op::GetComp(c) => {
                let v = pop_f4!(item);
                item.stack.push(Val::F(v[*c as usize] as f64));
            }
            Op::SetComp(c) => {
                let s = pop_f!(item) as f32;
                let mut v = pop_f4!(item);
                v[*c as usize] = s;
                item.stack.push(Val::F4(v));
            }
            Op::Shl => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a.wrapping_shl(b as u32)));
            }
            Op::Shr => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a.wrapping_shr(b as u32)));
            }
            Op::BAnd => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a & b));
            }
            Op::BOr => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a | b));
            }
            Op::BXor => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                item.stack.push(Val::I(a ^ b));
            }
            Op::BNot => {
                let a = pop_i!(item);
                item.stack.push(Val::I(!a));
            }
            Op::CmpI(c) => {
                let b = pop_i!(item);
                let a = pop_i!(item);
                let r = match c {
                    Cmp::Eq => a == b,
                    Cmp::Ne => a != b,
                    Cmp::Lt => a < b,
                    Cmp::Le => a <= b,
                    Cmp::Gt => a > b,
                    Cmp::Ge => a >= b,
                };
                item.stack.push(Val::I(r as i64));
            }
            Op::CmpF(c) => {
                let b = pop_f!(item);
                let a = pop_f!(item);
                let r = match c {
                    Cmp::Eq => a == b,
                    Cmp::Ne => a != b,
                    Cmp::Lt => a < b,
                    Cmp::Le => a <= b,
                    Cmp::Gt => a > b,
                    Cmp::Ge => a >= b,
                };
                item.stack.push(Val::I(r as i64));
            }
            Op::LNot => {
                let a = pop_i!(item);
                item.stack.push(Val::I((a == 0) as i64));
            }
            Op::I2F => {
                let a = pop_i!(item);
                item.stack.push(Val::F(a as f64));
            }
            Op::F2I => {
                let a = pop_f!(item);
                let v = if a.is_nan() { 0 } else { a as i64 };
                item.stack.push(Val::I(v));
            }
            Op::Jmp(t) => item.ip = *t as usize,
            Op::Jz(t) => {
                let a = pop_i!(item);
                if a == 0 {
                    item.ip = *t as usize;
                }
            }
            Op::Jnz(t) => {
                let a = pop_i!(item);
                if a != 0 {
                    item.ip = *t as usize;
                }
            }
            Op::LdElem(ty) => {
                let idx = pop_i!(item);
                let ptr = pop_ptr!(item);
                let v = load_elem(item, ctx, ptr, idx, *ty)?;
                item.stack.push(v);
            }
            Op::StElem(ty) => {
                let v = pop!(item);
                let idx = pop_i!(item);
                let ptr = pop_ptr!(item);
                store_elem(item, ctx, ptr, idx, *ty, v)?;
            }
            Op::Call { func, nargs } => {
                let f = &ctx.funcs[*func as usize];
                if item.frames.len() >= 192 {
                    return Err(Trap {
                        message: "call stack overflow".to_string(),
                        global_id: item.gid,
                    });
                }
                let base = item.locals.len();
                item.locals.resize(base + f.nlocals as usize, Val::I(0));
                for k in (0..*nargs as usize).rev() {
                    item.locals[base + k] = pop!(item);
                }
                item.frames.push(Frame {
                    ret_ip: item.ip,
                    base,
                });
                item.ip = f.entry as usize;
            }
            Op::CallB(b, argc) => {
                builtin(item, ctx, *b, *argc)?;
            }
            Op::Barrier => return Ok(Stop::Barrier),
            Op::Ret => match item.frames.pop() {
                Some(fr) => {
                    item.locals.truncate(fr.base);
                    item.ip = fr.ret_ip;
                }
                None => return Ok(Stop::Done),
            },
            Op::RetV => {
                let v = pop!(item);
                match item.frames.pop() {
                    Some(fr) => {
                        item.locals.truncate(fr.base);
                        item.ip = fr.ret_ip;
                        item.stack.push(v);
                    }
                    None => return Ok(Stop::Done),
                }
            }
        }
    }
}

fn region<'c>(
    item: &mut Item,
    ctx: &'c mut GroupCtx<'_>,
    ptr: PtrV,
) -> Result<(&'c mut [u8], bool), Trap>
where
{
    // Private memory lives in the item, not the ctx, so handle it first via
    // a raw split: the caller guarantees item and ctx are distinct objects.
    match ptr.space {
        Space::Global | Space::Constant => {
            let slot = ptr.slot as usize;
            if slot >= ctx.pool.bufs.len() {
                return Err(Trap {
                    message: format!("pointer to unknown buffer slot {slot}"),
                    global_id: item.gid,
                });
            }
            let ro = ctx.pool.read_only[slot] || ptr.space == Space::Constant;
            Ok((ctx.pool.bufs[slot].as_mut_slice(), ro))
        }
        Space::Local => {
            let slot = ptr.slot as usize;
            if slot >= ctx.local_regions.len() {
                return Err(Trap {
                    message: format!("pointer to unknown local region {slot}"),
                    global_id: item.gid,
                });
            }
            Ok((ctx.local_regions[slot].as_mut_slice(), false))
        }
        Space::Private => Err(Trap {
            message: "private pointers are resolved by the caller".to_string(),
            global_id: item.gid,
        }),
    }
}

fn load_elem(
    item: &mut Item,
    ctx: &mut GroupCtx<'_>,
    ptr: PtrV,
    idx: i64,
    ty: ElemTy,
) -> Result<Val, Trap> {
    let size = ty.byte_size();
    let gid = item.gid;
    let byte = checked_offset(gid, ptr.base, idx, size)?;
    if ptr.space == Space::Private {
        let bytes = &item.priv_mem;
        return read_val(bytes, byte, ty).ok_or_else(|| oob(gid, byte, size, bytes.len()));
    }
    let (bytes, _) = region(item, ctx, ptr)?;
    let len = bytes.len();
    read_val(bytes, byte, ty).ok_or_else(|| oob(gid, byte, size, len))
}

fn store_elem(
    item: &mut Item,
    ctx: &mut GroupCtx<'_>,
    ptr: PtrV,
    idx: i64,
    ty: ElemTy,
    v: Val,
) -> Result<(), Trap> {
    let size = ty.byte_size();
    let gid = item.gid;
    let byte = checked_offset(gid, ptr.base, idx, size)?;
    if ptr.space == Space::Private {
        let len = item.priv_mem.len();
        return write_val(&mut item.priv_mem, byte, ty, v, gid)
            .ok_or_else(|| oob(gid, byte, size, len));
    }
    let (bytes, read_only) = region(item, ctx, ptr)?;
    if read_only {
        return Err(Trap {
            message: "write through const/__constant pointer".to_string(),
            global_id: gid,
        });
    }
    let len = bytes.len();
    write_val(bytes, byte, ty, v, gid).ok_or_else(|| oob(gid, byte, size, len))
}

#[inline(always)]
pub(super) fn checked_offset(
    gid: [usize; 3],
    base: u32,
    idx: i64,
    size: usize,
) -> Result<usize, Trap> {
    if idx < 0 {
        return Err(Trap {
            message: format!("negative array index {idx}"),
            global_id: gid,
        });
    }
    (idx as usize)
        .checked_mul(size)
        .and_then(|b| b.checked_add(base as usize))
        .ok_or_else(|| Trap {
            message: format!("array index {idx} overflows the address range"),
            global_id: gid,
        })
}

pub(super) fn oob(gid: [usize; 3], byte: usize, size: usize, len: usize) -> Trap {
    Trap {
        message: format!(
            "out-of-bounds access: bytes {byte}..{} of {len}",
            byte + size
        ),
        global_id: gid,
    }
}

fn read_val(bytes: &[u8], at: usize, ty: ElemTy) -> Option<Val> {
    let size = ty.byte_size();
    let slice = bytes.get(at..at + size)?;
    Some(match ty {
        ElemTy::I32 => Val::I(i32::from_le_bytes(slice.try_into().ok()?) as i64),
        ElemTy::I64 => Val::I(i64::from_le_bytes(slice.try_into().ok()?)),
        ElemTy::F32 => Val::F(f32::from_le_bytes(slice.try_into().ok()?) as f64),
        ElemTy::F4 => {
            let mut v = [0f32; 4];
            for (k, item_v) in v.iter_mut().enumerate() {
                *item_v = f32::from_le_bytes(slice[k * 4..k * 4 + 4].try_into().ok()?);
            }
            Val::F4(v)
        }
    })
}

fn write_val(bytes: &mut [u8], at: usize, ty: ElemTy, v: Val, _gid: [usize; 3]) -> Option<()> {
    let size = ty.byte_size();
    let slice = bytes.get_mut(at..at + size)?;
    match (ty, v) {
        (ElemTy::I32, Val::I(x)) => slice.copy_from_slice(&(x as i32).to_le_bytes()),
        (ElemTy::I64, Val::I(x)) => slice.copy_from_slice(&x.to_le_bytes()),
        (ElemTy::F32, Val::F(x)) => slice.copy_from_slice(&(x as f32).to_le_bytes()),
        (ElemTy::F4, Val::F4(x)) => {
            for (k, c) in x.iter().enumerate() {
                slice[k * 4..k * 4 + 4].copy_from_slice(&c.to_le_bytes());
            }
        }
        _ => return None,
    }
    Some(())
}

fn builtin(item: &mut Item, ctx: &GroupCtx<'_>, b: Builtin, _argc: u8) -> Result<(), Trap> {
    use Builtin::*;
    match b {
        GetGlobalId | GetLocalId | GetGroupId | GetGlobalSize | GetLocalSize | GetNumGroups => {
            let d = pop_i!(item);
            let v = ctx.geo.query(b, d, item.gid, item.lid);
            item.stack.push(Val::I(v as i64));
        }
        Sqrt | Rsqrt | Fabs | Floor | Ceil | Exp | Log | Sin | Cos => {
            let x = pop_f!(item);
            let r = match b {
                Sqrt => x.sqrt(),
                Rsqrt => 1.0 / x.sqrt(),
                Fabs => x.abs(),
                Floor => x.floor(),
                Ceil => x.ceil(),
                Exp => x.exp(),
                Log => x.ln(),
                Sin => x.sin(),
                Cos => x.cos(),
                _ => unreachable!(),
            };
            item.stack.push(Val::F(r));
        }
        Pow | Fmin | Fmax => {
            let y = pop_f!(item);
            let x = pop_f!(item);
            let r = match b {
                Pow => x.powf(y),
                Fmin => x.min(y),
                Fmax => x.max(y),
                _ => unreachable!(),
            };
            item.stack.push(Val::F(r));
        }
        MinI | MaxI => {
            let y = pop_i!(item);
            let x = pop_i!(item);
            item.stack
                .push(Val::I(if b == MinI { x.min(y) } else { x.max(y) }));
        }
        AbsI => {
            let x = pop_i!(item);
            item.stack.push(Val::I(x.abs()));
        }
        Clamp => {
            let hi = pop_f!(item);
            let lo = pop_f!(item);
            let v = pop_f!(item);
            item.stack.push(Val::F(v.max(lo).min(hi)));
        }
        Mad => {
            let c = pop_f!(item);
            let bb = pop_f!(item);
            let a = pop_f!(item);
            item.stack.push(Val::F(a * bb + c));
        }
        Dot => {
            let y = pop_f4!(item);
            let x = pop_f4!(item);
            let mut acc = 0f64;
            for k in 0..4 {
                acc += x[k] as f64 * y[k] as f64;
            }
            item.stack.push(Val::F(acc));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicl::codegen::compile;
    use crate::minicl::driver::{all_groups, run_ndrange, Lowered, NdStats};
    use crate::minicl::parser::parse;

    fn run(
        src: &str,
        kernel: &str,
        args: Vec<RtArg>,
        pool: &mut MemPool,
        global: [usize; 3],
        local: [usize; 3],
    ) -> Result<NdStats, Trap> {
        let unit = compile(&parse(src).unwrap()).unwrap();
        let k = unit.kernels[kernel].clone();
        let window = all_groups(global, local);
        run_ndrange(Lowered::Stack(&unit), &k, &args, pool, global, local, window)
    }

    fn f32_buf(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn buf_f32(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn square_kernel_squares() {
        let src = "__kernel void square(__global float* in, __global float* out, const int n) {
            int i = get_global_id(0);
            if (i < n) { out[i] = in[i] * in[i]; }
        }";
        let mut pool = MemPool {
            bufs: vec![f32_buf(&[1.0, 2.0, 3.0, 4.0]), vec![0u8; 16]],
            read_only: vec![false, false],
        };
        let args = vec![
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Scalar(Val::I(4)),
        ];
        let stats = run(src, "square", args, &mut pool, [4, 1, 1], [2, 1, 1]).unwrap();
        assert_eq!(buf_f32(&pool.bufs[1]), vec![1.0, 4.0, 9.0, 16.0]);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.group_ops.len(), 2);
    }

    #[test]
    fn barrier_reduction_finds_minimum() {
        let src =
            "__kernel void rmin(__global float* data, __global float* out, __local float* s) {
            int l = get_local_id(0);
            int g = get_global_id(0);
            s[l] = data[g];
            barrier(CLK_LOCAL_MEM_FENCE);
            for (int st = get_local_size(0) / 2; st > 0; st = st / 2) {
                if (l < st) { s[l] = fmin(s[l], s[l + st]); }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            if (l == 0) { out[get_group_id(0)] = s[0]; }
        }";
        let data: Vec<f32> = (0..16).map(|i| (16 - i) as f32).collect();
        let mut pool = MemPool {
            bufs: vec![f32_buf(&data), vec![0u8; 8]],
            read_only: vec![false, false],
        };
        let args = vec![
            RtArg::Buf { pool_slot: 0 },
            RtArg::Buf { pool_slot: 1 },
            RtArg::Local { bytes: 8 * 4 },
        ];
        run(src, "rmin", args, &mut pool, [16, 1, 1], [8, 1, 1]).unwrap();
        let out = buf_f32(&pool.bufs[1]);
        assert_eq!(out, vec![9.0, 1.0]);
    }

    #[test]
    fn two_dimensional_ids() {
        let src = "__kernel void idx(__global int* out) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            out[y * get_global_size(0) + x] = y * 100 + x;
        }";
        let mut pool = MemPool {
            bufs: vec![vec![0u8; 4 * 4 * 4]],
            read_only: vec![false],
        };
        run(
            src,
            "idx",
            vec![RtArg::Buf { pool_slot: 0 }],
            &mut pool,
            [4, 4, 1],
            [2, 2, 1],
        )
        .unwrap();
        let out: Vec<i32> = pool.bufs[0]
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out[0], 0);
        assert_eq!(out[5], 101);
        assert_eq!(out[15], 303);
    }

    #[test]
    fn out_of_bounds_traps_with_global_id() {
        let src = "__kernel void bad(__global float* a) { a[get_global_id(0) + 100] = 1.0f; }";
        let mut pool = MemPool {
            bufs: vec![vec![0u8; 16]],
            read_only: vec![false],
        };
        let err = run(
            src,
            "bad",
            vec![RtArg::Buf { pool_slot: 0 }],
            &mut pool,
            [4, 1, 1],
            [4, 1, 1],
        )
        .unwrap_err();
        assert!(err.message.contains("out-of-bounds"));
    }

    #[test]
    fn divergent_barrier_traps() {
        let src = "__kernel void div(__global float* a) {
            if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
            a[get_global_id(0)] = 1.0f;
        }";
        let mut pool = MemPool {
            bufs: vec![vec![0u8; 16]],
            read_only: vec![false],
        };
        let err = run(
            src,
            "div",
            vec![RtArg::Buf { pool_slot: 0 }],
            &mut pool,
            [4, 1, 1],
            [4, 1, 1],
        )
        .unwrap_err();
        assert!(err.message.contains("divergent barrier"));
    }

    #[test]
    fn write_to_constant_buffer_traps() {
        let src = "__kernel void w(__global float* a, __constant float* c) { a[0] = c[0]; }";
        let mut pool = MemPool {
            bufs: vec![vec![0u8; 4], f32_buf(&[5.0])],
            read_only: vec![false, true],
        };
        run(
            src,
            "w",
            vec![RtArg::Buf { pool_slot: 0 }, RtArg::Buf { pool_slot: 1 }],
            &mut pool,
            [1, 1, 1],
            [1, 1, 1],
        )
        .unwrap();
        assert_eq!(buf_f32(&pool.bufs[0]), vec![5.0]);
    }

    #[test]
    fn device_function_call_works() {
        let src = "float sq(float x) { return x * x; }
        __kernel void k(__global float* a) {
            int i = get_global_id(0);
            a[i] = sq(a[i]) + sq(2.0f);
        }";
        let mut pool = MemPool {
            bufs: vec![f32_buf(&[3.0])],
            read_only: vec![false],
        };
        run(
            src,
            "k",
            vec![RtArg::Buf { pool_slot: 0 }],
            &mut pool,
            [1, 1, 1],
            [1, 1, 1],
        )
        .unwrap();
        assert_eq!(buf_f32(&pool.bufs[0]), vec![13.0]);
    }

    #[test]
    fn float4_roundtrip_and_dot() {
        let src = "__kernel void v(__global float4* a, __global float* out) {
            float4 x = a[0];
            float4 y = (float4)(2.0f);
            out[0] = dot(x, y);
            a[1] = x * y;
        }";
        let mut pool = MemPool {
            bufs: vec![
                f32_buf(&[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]),
                vec![0u8; 4],
            ],
            read_only: vec![false, false],
        };
        run(
            src,
            "v",
            vec![RtArg::Buf { pool_slot: 0 }, RtArg::Buf { pool_slot: 1 }],
            &mut pool,
            [1, 1, 1],
            [1, 1, 1],
        )
        .unwrap();
        assert_eq!(buf_f32(&pool.bufs[1]), vec![20.0]);
        assert_eq!(buf_f32(&pool.bufs[0])[4..], [2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn private_array_is_per_item() {
        let src = "__kernel void p(__global float* out) {
            float tmp[4];
            int i = get_global_id(0);
            for (int k = 0; k < 4; k++) { tmp[k] = (float)(i * 10 + k); }
            out[i] = tmp[3];
        }";
        let mut pool = MemPool {
            bufs: vec![vec![0u8; 8]],
            read_only: vec![false],
        };
        run(
            src,
            "p",
            vec![RtArg::Buf { pool_slot: 0 }],
            &mut pool,
            [2, 1, 1],
            [1, 1, 1],
        )
        .unwrap();
        assert_eq!(buf_f32(&pool.bufs[0]), vec![3.0, 13.0]);
    }

    #[test]
    fn group_ops_accounting_is_positive_and_balanced() {
        let src = "__kernel void k(__global float* a) { a[get_global_id(0)] = 1.0f; }";
        let mut pool = MemPool {
            bufs: vec![vec![0u8; 64]],
            read_only: vec![false],
        };
        let stats = run(
            src,
            "k",
            vec![RtArg::Buf { pool_slot: 0 }],
            &mut pool,
            [16, 1, 1],
            [4, 1, 1],
        )
        .unwrap();
        assert_eq!(stats.group_ops.len(), 4);
        let first = stats.group_ops[0];
        assert!(first > 0);
        assert!(stats.group_ops.iter().all(|&g| g == first));
    }

    #[test]
    fn division_by_zero_traps() {
        let src = "__kernel void d(__global int* a) { a[0] = 1 / a[1]; }";
        let mut pool = MemPool {
            bufs: vec![vec![0u8; 8]],
            read_only: vec![false],
        };
        let err = run(
            src,
            "d",
            vec![RtArg::Buf { pool_slot: 0 }],
            &mut pool,
            [1, 1, 1],
            [1, 1, 1],
        )
        .unwrap_err();
        assert!(err.message.contains("division by zero"));
    }
}
