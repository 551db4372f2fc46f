//! The bytecode interpreter.
//!
//! One [`run_chunk`] call interprets one code block (field initialisers,
//! a constructor, one behaviour iteration, or the boot block) against the
//! actor's slot frame. Every retired opcode is counted into the runtime's
//! shared op counter — multiplied by the per-op cost, that count *is* the
//! "overhead" bar of the paper's figures (interpreting the non-kernel code
//! is what makes Ensemble slower than C there).

use crate::value::{force_host_locked, DupStats, DupTally, MovState, VmArr, VmError, VmVal};
use ensemble_actors::ChannelError;
use ensemble_lang::ast::PrintKind;
use ensemble_lang::vmops::{Chunk, CompiledModule, ElemKind, NativeFn, VOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a chunk stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Ran to the end of the chunk.
    Done,
    /// Hit `stop;`.
    Stopped,
    /// A channel operation found the other side gone — the actor should
    /// stop (its peers have terminated).
    ChannelClosed,
}

/// Services the interpreter needs from the runtime.
pub trait RuntimeHooks {
    /// Spawn actor `idx`, returning its port map.
    fn spawn_actor(&self, idx: u16) -> Result<VmVal, VmError>;
    /// Record printed output.
    fn print(&self, text: String);
    /// Profile sink for forced device read-backs.
    fn profile(&self) -> Option<&ensemble_ocl::ProfileSink>;
    /// Absolute wall-clock deadline for this run, if any: every blocking
    /// receive the interpreter performs gives up with a
    /// [`crate::value::DEADLINE_MARK`] error once it passes. `None` (the
    /// default) blocks indefinitely — the paper's standalone semantics.
    fn deadline(&self) -> Option<std::time::Instant> {
        None
    }
    /// Where copy sends and the writes that un-share their leaves are
    /// accounted (`None`: nobody is counting).
    fn dup_stats(&self) -> Option<&DupStats> {
        None
    }
}

/// Interpret `chunk` against `slots`.
///
/// Returns how the chunk exited plus the number of ops it retired — the
/// caller (the runtime) turns that count into a [`trace`] `VmChunk` span
/// on the actor's timeline track. The count is also added to the shared
/// `ops` counter, so the two views stay equal by construction.
pub fn run_chunk(
    chunk: &Chunk,
    module: &CompiledModule,
    slots: &mut [VmVal],
    ops: &Arc<AtomicU64>,
    hooks: &dyn RuntimeHooks,
) -> Result<(Exit, u64), VmError> {
    let strings = &module.strings;
    let mut stack: Vec<VmVal> = Vec::with_capacity(16);
    let mut ip = 0usize;
    let mut local_ops = 0u64;

    macro_rules! pop {
        () => {
            stack
                .pop()
                .ok_or_else(|| VmError::new("operand stack underflow"))?
        };
    }

    let result = loop {
        if ip >= chunk.code.len() {
            break Exit::Done;
        }
        let op = &chunk.code[ip];
        local_ops += op.cost();
        ip += 1;
        match op {
            VOp::PushI(v) => stack.push(VmVal::I(*v)),
            VOp::PushR(v) => stack.push(VmVal::R(*v)),
            VOp::PushB(v) => stack.push(VmVal::B(*v)),
            VOp::PushStr(id) => stack.push(VmVal::S(Arc::from(strings[*id as usize].as_str()))),
            VOp::Pop => {
                pop!();
            }
            VOp::Dup => {
                let v = stack
                    .last()
                    .cloned()
                    .ok_or_else(|| VmError::new("dup on empty stack"))?;
                stack.push(v);
            }
            VOp::Ld(slot) => stack.push(slots[*slot as usize].clone()),
            VOp::St(slot) => slots[*slot as usize] = pop!(),
            VOp::NewArr {
                ndims,
                elem,
                has_fill,
            } => {
                let mut dims = Vec::with_capacity(*ndims as usize);
                for _ in 0..*ndims {
                    dims.push(pop!().as_i()? as usize);
                }
                dims.reverse();
                let fill = if *has_fill { Some(pop!()) } else { None };
                stack.push(alloc_array(&dims, *elem, fill.as_ref())?);
            }
            VOp::NewStructV { type_id, nfields } => {
                let mut fields = Vec::with_capacity(*nfields as usize);
                for _ in 0..*nfields {
                    fields.push(pop!());
                }
                fields.reverse();
                // A struct with mov fields is a mov value: it travels by
                // reference and may become device-resident (§6.2.3).
                let meta = &module.structs[*type_id as usize];
                if meta.any_mov {
                    stack.push(VmVal::MovStruct(
                        *type_id,
                        Arc::new(parking_lot::Mutex::new(MovState::Host(fields))),
                    ));
                } else {
                    stack.push(VmVal::Struct(
                        *type_id,
                        Arc::new(parking_lot::Mutex::new(fields)),
                    ));
                }
            }
            VOp::GetField(idx) => {
                let v = pop!();
                match v {
                    VmVal::Struct(_, fields) => {
                        let f = fields
                            .lock()
                            .get(*idx as usize)
                            .cloned()
                            .ok_or_else(|| VmError::new(format!("no field {idx}")))?;
                        stack.push(f);
                    }
                    VmVal::MovStruct(_, state) => {
                        // Host access forces the data off the device
                        // (§6.2.3) — once; subsequent accesses are cheap.
                        // The guard stays held across the read so a kernel
                        // actor cannot re-upload in between.
                        let guard = force_host_locked(&state, hooks.profile())?;
                        let MovState::Host(fields) = &*guard else {
                            unreachable!("forced under the same lock");
                        };
                        let f = fields
                            .get(*idx as usize)
                            .cloned()
                            .ok_or_else(|| VmError::new(format!("no field {idx}")))?;
                        drop(guard);
                        stack.push(f);
                    }
                    other => return Err(VmError::new(format!("GetField on {other:?}"))),
                }
            }
            VOp::SetField(idx) => {
                let value = pop!();
                let target = pop!();
                match target {
                    VmVal::Struct(_, fields) => {
                        let mut guard = fields.lock();
                        let slot = guard
                            .get_mut(*idx as usize)
                            .ok_or_else(|| VmError::new(format!("no field {idx}")))?;
                        *slot = value;
                    }
                    VmVal::MovStruct(_, state) => {
                        let mut guard = force_host_locked(&state, hooks.profile())?;
                        let MovState::Host(fields) = &mut *guard else {
                            unreachable!("forced under the same lock");
                        };
                        let slot = fields
                            .get_mut(*idx as usize)
                            .ok_or_else(|| VmError::new(format!("no field {idx}")))?;
                        *slot = value;
                    }
                    other => return Err(VmError::new(format!("SetField on {other:?}"))),
                }
            }
            VOp::IdxLd => {
                let idx = pop!().as_i()?;
                let arr = pop!();
                stack.push(index_load(&arr, idx)?);
            }
            VOp::IdxSt => {
                let value = pop!();
                let idx = pop!().as_i()?;
                let arr = pop!();
                index_store(&arr, idx, value, hooks.dup_stats())?;
            }
            VOp::Add | VOp::Sub | VOp::Mul | VOp::Div | VOp::Rem => {
                let b = pop!();
                let a = pop!();
                stack.push(arith(op, &a, &b)?);
            }
            VOp::Neg => {
                let a = pop!();
                stack.push(match a {
                    VmVal::I(v) => VmVal::I(-v),
                    VmVal::R(v) => VmVal::R(-v),
                    other => return Err(VmError::new(format!("cannot negate {other:?}"))),
                });
            }
            VOp::CmpEq | VOp::CmpNe | VOp::CmpLt | VOp::CmpLe | VOp::CmpGt | VOp::CmpGe => {
                let b = pop!();
                let a = pop!();
                stack.push(VmVal::B(compare(op, &a, &b)?));
            }
            VOp::NotOp => {
                let a = pop!().as_b()?;
                stack.push(VmVal::B(!a));
            }
            VOp::AndOp => {
                let b = pop!().as_b()?;
                let a = pop!().as_b()?;
                stack.push(VmVal::B(a && b));
            }
            VOp::OrOp => {
                let b = pop!().as_b()?;
                let a = pop!().as_b()?;
                stack.push(VmVal::B(a || b));
            }
            VOp::Jmp(t) => ip = *t as usize,
            VOp::Jz(t) => {
                if !pop!().as_b()? {
                    ip = *t as usize;
                }
            }
            VOp::ToReal => {
                let v = pop!().as_f()?;
                stack.push(VmVal::R(v));
            }
            VOp::ToInt => {
                let v = pop!().as_f()?;
                stack.push(VmVal::I(v as i64));
            }
            VOp::LengthOf => {
                let v = pop!();
                let len = match &v {
                    VmVal::Arr(a) => a.lock().len(),
                    other => return Err(VmError::new(format!("lengthof on {other:?}"))),
                };
                stack.push(VmVal::I(len as i64));
            }
            VOp::NewChanIn => {
                let mut input = ensemble_actors::In::with_buffer(4);
                if let Some(p) = hooks.profile() {
                    input.set_trace(p.trace().clone(), "chan");
                }
                stack.push(VmVal::ChanIn(Arc::new(input)));
            }
            VOp::NewChanOut => {
                stack.push(VmVal::ChanOut(ensemble_actors::Out::new()));
            }
            VOp::ConnectOp => {
                let to = pop!();
                let from = pop!();
                match (from, to) {
                    (VmVal::ChanOut(o), VmVal::ChanIn(i)) => o.connect(&i),
                    (f, t) => {
                        return Err(VmError::new(format!(
                            "connect expects out → in, found {f:?} → {t:?}"
                        )))
                    }
                }
            }
            VOp::SendOp { mov } => {
                let value = pop!();
                let chan = pop!();
                let VmVal::ChanOut(o) = chan else {
                    return Err(VmError::new("send on a non-out endpoint"));
                };
                // Shared-nothing: duplicate unless the type is mov. The
                // duplicate shares its typed leaves copy-on-write, so the
                // send is O(cells) whatever the payload's size.
                let mut shared = DupTally::default();
                let payload = if *mov {
                    value
                } else {
                    let copy = value.dup(hooks.profile(), &mut shared)?;
                    if let Some(dup) = hooks.dup_stats() {
                        dup.add_shared(shared.bytes);
                    }
                    copy
                };
                // The interpreter, not the channel, knows whether this
                // send is a mov (ownership transfer) or a duplicate — the
                // runtime always delivers via `send_moved` because a
                // non-mov payload was already duplicated above.
                if let Some(p) = hooks.profile() {
                    let t = p.trace();
                    if t.is_enabled() {
                        let ev = |kind, name| {
                            trace::TraceEvent::instant(kind, name, "vm", t.wall_ns())
                                .with_arg("clock", "wall")
                        };
                        t.record(if *mov {
                            ev(trace::SpanKind::MovTransfer, "send_mov")
                        } else {
                            ev(trace::SpanKind::Duplicate, "send_dup")
                                .with_arg("leaves", shared.leaves)
                                .with_arg("bytes_shared", shared.bytes)
                        });
                    }
                }
                match o.send_moved(payload) {
                    Ok(()) => {}
                    Err(ChannelError::Poisoned) => {
                        return Err(VmError::cascade("send on a channel"))
                    }
                    Err(_) => break Exit::ChannelClosed,
                }
            }
            VOp::RecvOp => {
                let chan = pop!();
                let VmVal::ChanIn(i) = chan else {
                    return Err(VmError::new("receive on a non-in endpoint"));
                };
                match i.recv_deadline(hooks.deadline()) {
                    Ok(v) => stack.push(v),
                    // A poisoned channel is a failed peer, not an orderly
                    // shutdown: surface it as an error so the failure
                    // propagates out of `run()` instead of looking like a
                    // clean exit.
                    Err(ChannelError::Poisoned) => {
                        return Err(VmError::cascade("receive on a channel"))
                    }
                    // The run's deadline passed while blocked: a serving
                    // outcome, not a program error — marked so the layer
                    // above can classify it.
                    Err(ChannelError::TimedOut) => {
                        return Err(VmError::deadline("receive passed the run deadline"))
                    }
                    Err(_) => break Exit::ChannelClosed,
                }
            }
            VOp::SpawnActor(idx) => {
                let r = hooks.spawn_actor(*idx)?;
                stack.push(r);
            }
            VOp::GetPort(name_id) => {
                let v = pop!();
                let VmVal::ActorRef(ports) = v else {
                    return Err(VmError::new("port access on a non-actor value"));
                };
                let name = &strings[*name_id as usize];
                let ep = ports
                    .get(name)
                    .cloned()
                    .ok_or_else(|| VmError::new(format!("actor has no port `{name}`")))?;
                stack.push(ep);
            }
            VOp::CallNative(f, _argc) => {
                let v = native_call(*f, &mut stack)?;
                stack.push(v);
            }
            VOp::Print(kind) => {
                let v = pop!();
                let text = match (kind, &v) {
                    (PrintKind::Str, VmVal::S(s)) => s.to_string(),
                    (PrintKind::Int, v) => v.as_i()?.to_string(),
                    (PrintKind::Real, v) => format!("{}", v.as_f()?),
                    (PrintKind::Str, other) => format!("{other:?}"),
                };
                hooks.print(text);
            }
            VOp::StopOp => break Exit::Stopped,
        }
    };
    ops.fetch_add(local_ops, Ordering::Relaxed);
    Ok((result, local_ops))
}

/// Deterministic xorshift64* generator shared by the native data
/// builtins (the VM equivalents of the paper's native `generate_data`).
fn xorshift(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let bits = x.wrapping_mul(0x2545F4914F6CDD1D) >> 11;
    bits as f64 / (1u64 << 53) as f64
}

fn native_call(f: NativeFn, stack: &mut Vec<VmVal>) -> Result<VmVal, VmError> {
    let mut pop = || -> Result<VmVal, VmError> {
        stack
            .pop()
            .ok_or_else(|| VmError::new("native call stack underflow"))
    };
    match f {
        NativeFn::GenerateVector => {
            let seed = pop()?.as_i()? as u64;
            let n = pop()?.as_i()? as usize;
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
            let data: Vec<f64> = (0..n).map(|_| 0.5 + xorshift(&mut state)).collect();
            Ok(VmVal::arr(VmArr::R(data.into())))
        }
        NativeFn::GenerateMatrix => {
            let seed = pop()?.as_i()? as u64;
            let cols = pop()?.as_i()? as usize;
            let rows = pop()?.as_i()? as usize;
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
            let cells = (0..rows)
                .map(|_| {
                    let row: Vec<f64> = (0..cols).map(|_| xorshift(&mut state)).collect();
                    VmVal::arr(VmArr::R(row.into()))
                })
                .collect();
            Ok(VmVal::arr(VmArr::Cells(cells)))
        }
        NativeFn::GenerateDominant => {
            let seed = pop()?.as_i()? as u64;
            let n = pop()?.as_i()? as usize;
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
            let cells = (0..n)
                .map(|i| {
                    let mut row: Vec<f64> = (0..n).map(|_| 0.5 * xorshift(&mut state)).collect();
                    let sum: f64 = row
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, v)| v.abs())
                        .sum();
                    row[i] = sum + 1.0 + xorshift(&mut state);
                    VmVal::arr(VmArr::R(row.into()))
                })
                .collect();
            Ok(VmVal::arr(VmArr::Cells(cells)))
        }
        NativeFn::Checksum => {
            let v = pop()?;
            fn sum(v: &VmVal) -> Result<f64, VmError> {
                match v {
                    VmVal::Arr(a) => match &*a.lock() {
                        VmArr::I(x) => Ok(x.iter().map(|&v| v as f64).sum()),
                        VmArr::R(x) => Ok(x.iter().sum()),
                        VmArr::B(x) => Ok(x.iter().map(|&b| b as i64 as f64).sum()),
                        VmArr::Cells(x) => {
                            let mut t = 0.0;
                            for c in x {
                                t += sum(c)?;
                            }
                            Ok(t)
                        }
                    },
                    other => Err(VmError::new(format!("checksum on non-array {other:?}"))),
                }
            }
            Ok(VmVal::R(sum(&v)?))
        }
    }
}

fn alloc_array(dims: &[usize], elem: ElemKind, fill: Option<&VmVal>) -> Result<VmVal, VmError> {
    if dims.is_empty() {
        return Err(VmError::new("array with no dimensions"));
    }
    if dims.len() == 1 {
        let n = dims[0];
        let arr = match elem {
            ElemKind::Int => {
                VmArr::I(vec![fill.map(|f| f.as_i()).transpose()?.unwrap_or(0); n].into())
            }
            ElemKind::Real => {
                VmArr::R(vec![fill.map(|f| f.as_f()).transpose()?.unwrap_or(0.0); n].into())
            }
            ElemKind::Bool | ElemKind::Cell => {
                VmArr::B(vec![fill.map(|f| f.as_b()).transpose()?.unwrap_or(false); n].into())
            }
        };
        return Ok(VmVal::arr(arr));
    }
    let cells = (0..dims[0])
        .map(|_| alloc_array(&dims[1..], elem, fill))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(VmVal::arr(VmArr::Cells(cells)))
}

fn index_load(arr: &VmVal, idx: i64) -> Result<VmVal, VmError> {
    let VmVal::Arr(a) = arr else {
        return Err(VmError::new(format!("indexing a non-array {arr:?}")));
    };
    if idx < 0 {
        return Err(VmError::new(format!("negative index {idx}")));
    }
    let guard = a.lock();
    let i = idx as usize;
    let out = match &*guard {
        VmArr::I(v) => v.get(i).map(|&x| VmVal::I(x)),
        VmArr::R(v) => v.get(i).map(|&x| VmVal::R(x)),
        VmArr::B(v) => v.get(i).map(|&x| VmVal::B(x)),
        VmArr::Cells(v) => v.get(i).cloned(),
    };
    out.ok_or_else(|| VmError::new(format!("index {idx} out of bounds (len {})", guard.len())))
}

fn index_store(arr: &VmVal, idx: i64, value: VmVal, dup: Option<&DupStats>) -> Result<(), VmError> {
    let VmVal::Arr(a) = arr else {
        return Err(VmError::new(format!("indexing a non-array {arr:?}")));
    };
    if idx < 0 {
        return Err(VmError::new(format!("negative index {idx}")));
    }
    let mut guard = a.lock();
    let len = guard.len();
    let i = idx as usize;
    if i >= len {
        return Err(VmError::new(format!(
            "index {idx} out of bounds (len {len})"
        )));
    }
    guard.store(i, value, dup)
}

fn arith(op: &VOp, a: &VmVal, b: &VmVal) -> Result<VmVal, VmError> {
    let float = matches!(a, VmVal::R(_)) || matches!(b, VmVal::R(_));
    if float {
        let (x, y) = (a.as_f()?, b.as_f()?);
        Ok(VmVal::R(match op {
            VOp::Add => x + y,
            VOp::Sub => x - y,
            VOp::Mul => x * y,
            VOp::Div => x / y,
            VOp::Rem => x % y,
            _ => unreachable!(),
        }))
    } else {
        let (x, y) = (a.as_i()?, b.as_i()?);
        if matches!(op, VOp::Div | VOp::Rem) && y == 0 {
            return Err(VmError::new("integer division by zero"));
        }
        Ok(VmVal::I(match op {
            VOp::Add => x.wrapping_add(y),
            VOp::Sub => x.wrapping_sub(y),
            VOp::Mul => x.wrapping_mul(y),
            VOp::Div => x.wrapping_div(y),
            VOp::Rem => x.wrapping_rem(y),
            _ => unreachable!(),
        }))
    }
}

fn compare(op: &VOp, a: &VmVal, b: &VmVal) -> Result<bool, VmError> {
    let float = matches!(a, VmVal::R(_)) || matches!(b, VmVal::R(_));
    let ord = if float {
        a.as_f()?.partial_cmp(&b.as_f()?)
    } else {
        Some(a.as_i()?.cmp(&b.as_i()?))
    };
    let Some(ord) = ord else {
        return Ok(matches!(op, VOp::CmpNe)); // NaN: only != holds
    };
    Ok(match op {
        VOp::CmpEq => ord.is_eq(),
        VOp::CmpNe => ord.is_ne(),
        VOp::CmpLt => ord.is_lt(),
        VOp::CmpLe => ord.is_le(),
        VOp::CmpGt => ord.is_gt(),
        VOp::CmpGe => ord.is_ge(),
        _ => unreachable!(),
    })
}
