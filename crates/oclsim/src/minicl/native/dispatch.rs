use super::regions;
use super::strip::{run_strip, run_to_stop};
use super::{NCtx, NItem, NativeProgram, Site, SiteKind, StripStats, Unzip, DEAD, IP_DONE, STRIP};
use crate::minicl::ast::Space;
use crate::minicl::bytecode::KernelInfo;
use crate::minicl::driver::{drive, register_template, Geometry, GroupEngine, Stop};
use crate::minicl::interp::{MemPool, PtrV, RtArg, Trap};
use crate::minicl::regir::RVal;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Decode a pointer register's dispatch-time value into a [`Site`].
/// Unknown slots become `Bad*` sites that trap on first *execution* —
/// resolving eagerly here must not change when (or whether) a kernel
/// traps.
pub(super) fn resolve_site(p: PtrV, nbufs: usize, read_only: &[bool], nregions: usize) -> Site {
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

/// The native engine's side of a dispatch: the program, its dispatch
/// template, the execution context, the strip width and the strip
/// tallies.
pub(super) struct Groups<'p, 'a> {
    pub(super) prog: &'p NativeProgram,
    /// The full dispatch template (`len == prog.total_regs`).
    pub(super) template: &'p [RVal],
    pub(super) priv_bytes: usize,
    pub(super) cx: NCtx<'a>,
    /// Lanes per strip where strips are allowed; 1 is the scalar path.
    pub(super) width: usize,
    /// The regions that are race-free in this dispatch, by entry
    /// instruction (consulted per strip on a barrier kernel's phases only).
    pub(super) wide: Vec<(u32, &'p regions::Region)>,
    pub(super) tally: &'p mut StripStats,
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
pub(in crate::minicl) fn run_window(
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
