use super::{
    NCtx, NInstr, NItem, NativeProgram, StripStats, Unzip, IP_BARRIER, IP_DONE, IP_HALT_MIN,
    IP_TRAP, IP_UNZIP, STRIP,
};
use crate::minicl::driver::stray_barrier;
use crate::minicl::interp::{Trap, MAX_ITEM_OPS};

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
pub(super) fn lanes_agree(mut f: impl FnMut(&mut NItem) -> u32, lanes: &mut [NItem], ip: u32) -> Result<u32, Unzip> {
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
pub(super) fn settle(agreed: Result<u32, Unzip>, record: &mut Unzip) -> u32 {
    agreed.unwrap_or_else(|stop| {
        *record = stop;
        IP_UNZIP
    })
}

/// The strip twin of scalar handler `f`.
#[inline(always)]
pub(super) fn strip(
    f: impl Fn(&mut NItem, &mut NCtx, &NInstr, u32) -> u32,
    lanes: &mut [NItem],
    cx: &mut NCtx,
    i: &NInstr,
    ip: u32,
) -> u32 {
    let agreed = lanes_agree(|st| f(st, cx, i, ip), lanes, ip);
    settle(agreed, &mut cx.unzip)
}

/// Run one item on the scalar path from `ip` (an instruction index, or
/// the halt it already reached) to its next barrier or to completion, and
/// record which in `st.halt`. A barrier in a kernel compiled without
/// barriers (`barriers == false`) is the trap [`stray_barrier`].
pub(super) fn run_to_stop(
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
pub(super) fn run_strip(
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
