//! In-order command queues, mirroring `cl_command_queue`. Every command
//! runs one ordered list of stages: [`CommandQueue::write_with`] and
//! `read_with` for transfers, `run_kernel` for every kind of dispatch.

use crate::arbiter::{ArbiterGrant, ArbiterHandle, QueueArbiter};
use crate::buffer::Buffer;
use crate::context::Context;
use crate::device::Device;
use crate::error::{ClError, ClResult};
use crate::event::{CommandKind, Event, Executed};
use crate::fault::{FaultEffect, FaultOp};
use crate::minicl::{all_groups, run_ndrange, MemPool};
use crate::ndrange::NdRange;
use crate::program::{DispatchPlan, Kernel};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use trace::{SpanKind, TraceEvent, TraceSink};

/// An in-order command queue bound to one device of a context (§2.1).
///
/// Commands execute eagerly (results are visible when the enqueue call
/// returns) but are *timed* on the queue's virtual clock; `finish()` returns
/// immediately and exists for host-code fidelity.
///
/// Cloning shares the queue (and its clock).
#[derive(Debug, Clone)]
pub struct CommandQueue {
    inner: Arc<QueueInner>,
}

#[derive(Debug)]
struct QueueInner {
    ctx: Context,
    device: Device,
    clock_ns: Mutex<f64>,
    /// Optional recorder for the queue's instant markers (co-execution
    /// splits, fused batches, integrity checks). A command's span comes
    /// from its [`Event`] instead, recorded by the layer that charges it
    /// ([`crate::ProfileSink::record_command`]).
    trace: Mutex<TraceSink>,
    /// Optional fairness gate: when attached, every command brackets its
    /// device access in an arbiter acquire/release pair under this
    /// queue's tenant tag (see [`crate::arbiter`]).
    arbiter: Mutex<ArbiterHandle>,
    /// Virtual time spent on integrity *repair* — shadow restores and
    /// integrity-retry backoff. Deliberately kept off the main clock so
    /// a corrupted-but-recovered run ends with a byte-identical
    /// `clock_ns`; this is the "recompute overhead" the SDC bench
    /// reports.
    repair_ns: Mutex<f64>,
}

/// Who holds the arbiter slot a kernel command runs under.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Admit {
    /// The command takes one slot for itself (a single or co-executed
    /// dispatch).
    Command,
    /// An open [`DispatchBatch`] already holds one for all its dispatches.
    Batch,
}

/// The price stage's verdict on an executed kernel command.
#[derive(Debug)]
pub(crate) struct Priced {
    /// Virtual cost charged to the queue's clock.
    pub(crate) cost_ns: f64,
    /// Args of the [`SpanKind::CoexecSplit`] instant recorded once the
    /// command commits; empty for a dispatch that ran on one lane.
    pub(crate) split: Vec<(&'static str, String)>,
}

/// The execute stage of an admitted, validated kernel command, handed to
/// its schedule: runs group windows of the dispatch on the queue's engine
/// ladder and sums what they executed into the command's [`Event`].
pub(crate) struct Execution<'a> {
    queue: &'a CommandQueue,
    kernel: &'a Kernel,
    nd: &'a NdRange,
    /// The dispatch's resolved plan (its unique buffers and their
    /// read-only flags).
    pub(crate) plan: &'a DispatchPlan,
    ran: Executed,
}

impl Execution<'_> {
    /// Functionally execute the work-groups whose per-dimension group
    /// indices fall in `window` and return their per-group op counts.
    /// Buffers are checked out for the duration of the window and always
    /// returned, trap or not.
    pub(crate) fn run(&mut self, window: [Range<usize>; 3]) -> ClResult<Vec<u64>> {
        let plan = self.plan;
        // Check out the plan's unique buffers, undoing on conflict.
        let mut pool = MemPool {
            bufs: Vec::with_capacity(plan.pooled.len()),
            read_only: plan.read_only.clone(),
        };
        for (i, buf) in plan.pooled.iter().enumerate() {
            match buf.check_out() {
                Ok(bytes) => pool.bufs.push(bytes),
                Err(e) => {
                    for (b, bytes) in plan.pooled[..i].iter().zip(pool.bufs.drain(..)) {
                        b.check_in(bytes);
                    }
                    return Err(e);
                }
            }
        }

        let prog = self.kernel.lowered();
        let result = run_ndrange(
            prog,
            &self.kernel.info,
            &plan.rt_args,
            &mut pool,
            self.nd.global,
            self.nd.local,
            window,
        );

        // Always return bytes to their buffers, even on trap.
        for (buf, bytes) in plan.pooled.iter().zip(pool.bufs.drain(..)) {
            buf.check_in(bytes);
        }

        let stats = result.map_err(|t| ClError::KernelTrap {
            kernel: self.kernel.name().to_string(),
            message: t.message,
            global_id: t.global_id,
        })?;
        self.ran.items += stats.items;
        self.ran.ops += stats.group_ops.iter().sum::<u64>();
        self.ran.engine = Some(prog.engine().label());
        self.ran.strip.absorb(&stats.strip);
        Ok(stats.group_ops)
    }

    /// Run every group in one window and price the whole range on the
    /// queue's device, less `discount_ns` (a batch's amortised launch
    /// overhead).
    pub(crate) fn whole(&mut self, discount_ns: f64) -> ClResult<Priced> {
        let group_ops = self.run(all_groups(self.nd.global, self.nd.local))?;
        let device = &self.queue.inner.device;
        let base = device.cost_model().kernel_ns(
            &group_ops,
            self.nd.group_size(),
            device.compute_units(),
            device.simd_width(),
        );
        Ok(Priced {
            cost_ns: (base - discount_ns).max(0.0),
            split: Vec::new(),
        })
    }

    /// Draw one Enqueue fault-op on a lane that only prices work — a
    /// co-execution secondary — as a liveness probe. A bit corruption is
    /// ignored: the lane never executes functionally, so only its
    /// availability matters. An injected kill-panic still propagates.
    pub(crate) fn lane_alive(&self, lane: &CommandQueue) -> bool {
        lane.fault_check(FaultOp::Enqueue).is_ok()
    }
}

impl CommandQueue {
    /// Create a queue for `device`, which must belong to `ctx`.
    pub fn new(ctx: &Context, device: &Device) -> ClResult<CommandQueue> {
        if !ctx.has_device(device) {
            return Err(ClError::InvalidContext(format!(
                "device `{}` is not part of the context",
                device.name()
            )));
        }
        Ok(CommandQueue {
            inner: Arc::new(QueueInner {
                ctx: ctx.clone(),
                device: device.clone(),
                clock_ns: Mutex::new(0.0),
                trace: Mutex::new(TraceSink::disabled()),
                arbiter: Mutex::new(ArbiterHandle::detached()),
                repair_ns: Mutex::new(0.0),
            }),
        })
    }

    /// Attach a fairness arbiter: every subsequent upload, read-back,
    /// and kernel dispatch on this queue first acquires a command slot
    /// from `arbiter` under the tag `tenant`, and releases it when the
    /// command completes (panic-safe). All clones of the queue share the
    /// attachment. Pass [`ArbiterHandle::detached`] via
    /// [`CommandQueue::detach_arbiter`] to detach.
    ///
    /// Arbitration is wall-clock only — the queue's virtual clock and
    /// every event timestamp are unchanged by contention, so a tenant's
    /// virtual timeline stays byte-identical to an uncontended run.
    pub fn attach_arbiter(&self, arbiter: std::sync::Arc<dyn QueueArbiter>, tenant: u64) {
        *self.inner.arbiter.lock() = ArbiterHandle::new(arbiter, tenant);
    }

    /// Detach any attached arbiter (commands run ungated again).
    pub fn detach_arbiter(&self) {
        *self.inner.arbiter.lock() = ArbiterHandle::detached();
    }

    /// Acquire this queue's arbiter slot for one command (`None` when no
    /// arbiter is attached). Cloned out of the lock so the slot is never
    /// held while the handle mutex is.
    fn arbiter_slot(&self) -> Option<ArbiterGrant> {
        let handle = self.inner.arbiter.lock().clone();
        handle.grant(self.inner.device.id())
    }

    /// Draw one fault-op of class `op` from the lane's injector, the one
    /// attached to this queue's context ([`Context::attach_faults`]).
    fn fault_check(&self, op: FaultOp) -> ClResult<FaultEffect> {
        let injector = self.inner.ctx.faults();
        injector.check_effects(op, self.inner.device.name(), self.now_ns())
    }

    /// Whether the integrity layer is armed: the lane's fault plan can
    /// silently corrupt payloads, so uploads record provenance and
    /// readbacks/dispatches verify it. Corruption-free runs skip all of
    /// it — no checksums, no shadows, no extra trace instants.
    fn integrity_armed(&self) -> bool {
        self.inner.ctx.faults().can_corrupt()
    }

    /// Virtual time spent repairing detected integrity violations
    /// (shadow restores + integrity-retry backoff). Accounted separately
    /// from [`CommandQueue::now_ns`] so recovered runs stay
    /// clock-identical to fault-free ones.
    pub fn repair_ns(&self) -> f64 {
        *self.inner.repair_ns.lock()
    }

    /// Charge `cost_ns` of repair work (see [`CommandQueue::repair_ns`]).
    /// Used by the recovery layer for integrity-retry backoff.
    pub fn charge_repair_ns(&self, cost_ns: f64) {
        *self.inner.repair_ns.lock() += cost_ns;
    }

    /// Attach a trace sink: from now on every instant marker this queue
    /// records — co-execution splits, fused batches, integrity checks and
    /// violations — lands on this queue's device track. Command spans do
    /// not: build those from the returned [`Event`]s with
    /// [`crate::ProfileSink::record_command`]. All clones
    /// of the queue share the attachment; attach
    /// [`TraceSink::disabled`] to detach.
    pub fn attach_trace(&self, sink: TraceSink) {
        *self.inner.trace.lock() = sink;
    }

    /// Record an instant of `kind` on this queue's device track at the
    /// current virtual time (no-op when no sink is attached).
    fn instant(&self, kind: SpanKind, name: &str, args: &[(&str, String)]) {
        let sink = self.inner.trace.lock();
        if !sink.is_enabled() {
            return;
        }
        let mut ev = TraceEvent::instant(kind, name, self.inner.device.name(), self.now_ns());
        for (k, v) in args {
            ev = ev.with_arg(k, v);
        }
        sink.record(ev);
    }

    /// Detection seam shared by the readback and dispatch paths: `buf`'s
    /// delivered/observed checksum `actual` disagreed with its recorded
    /// provenance `expected`. Restores the device bytes from the shadow
    /// (the last checkpoint), charges the restore to repair accounting,
    /// reports the detection to the injector's scoreboard, records the
    /// [`SpanKind::IntegrityViolation`] instant, and builds the typed
    /// error for the recovery layer. The main virtual clock is never
    /// touched.
    fn integrity_violation(&self, buf: &Buffer, expected: u64, actual: u64) -> ClError {
        let restored = buf.restore_from_provenance().unwrap_or(0);
        self.charge_repair_ns(self.inner.device.cost_model().transfer_ns(restored));
        self.inner.ctx.faults().note_detection();
        self.instant(
            SpanKind::IntegrityViolation,
            "checksum_mismatch",
            &[
                ("buffer", buf.id().to_string()),
                ("expected", format!("{expected:#018x}")),
                ("actual", format!("{actual:#018x}")),
                ("restored_bytes", restored.to_string()),
            ],
        );
        ClError::IntegrityViolation {
            device: self.inner.device.name().to_string(),
            buffer: buf.id(),
            expected,
            actual,
        }
    }

    /// Verify every provenance-carrying buffer in `bufs` against its
    /// recorded checksum. No-op unless the integrity layer is armed. On
    /// the first mismatch the buffer is restored from its shadow and the
    /// command fails with [`ClError::IntegrityViolation`]; on success a
    /// single [`SpanKind::IntegrityCheck`] instant is recorded. The
    /// resident-`mov` reuse path calls this before handing device-
    /// resident buffers to a dispatch without a fresh upload.
    pub fn verify_integrity(&self, bufs: &[Buffer]) -> ClResult<()> {
        if !self.integrity_armed() {
            return Ok(());
        }
        let mut checked = 0u32;
        for buf in bufs {
            if let Some((expected, actual)) = buf.verify_provenance() {
                return Err(self.integrity_violation(buf, expected, actual));
            }
            if buf.provenance_checksum().is_some() {
                checked += 1;
            }
        }
        if checked > 0 {
            self.instant(
                SpanKind::IntegrityCheck,
                "preverify",
                &[("buffers", checked.to_string())],
            );
        }
        Ok(())
    }

    /// Readback-seam verification: compare the checksum of the payload
    /// *as delivered to the host* (computed by `payload_checksum`, after
    /// any injected wire flip) against `buf`'s provenance. No-op unless
    /// the integrity layer is armed and provenance is recorded. A wire
    /// flip makes the delivered checksum diverge; a device-memory flip
    /// makes both the delivered and stored bytes diverge — either way
    /// the shadow restore + typed error lets the caller re-read cleanly.
    fn verify_delivery(&self, buf: &Buffer, payload_checksum: impl FnOnce() -> u64) -> ClResult<()> {
        if !self.integrity_armed() {
            return Ok(());
        }
        let Some(expected) = buf.provenance_checksum() else {
            return Ok(());
        };
        let actual = payload_checksum();
        if actual != expected {
            return Err(self.integrity_violation(buf, expected, actual));
        }
        self.instant(
            SpanKind::IntegrityCheck,
            "readback",
            &[("buffer", buf.id().to_string())],
        );
        Ok(())
    }

    /// The device this queue feeds.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The owning context.
    pub fn context(&self) -> &Context {
        &self.inner.ctx
    }

    /// Current virtual time of this queue in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        *self.inner.clock_ns.lock()
    }

    /// Block until all enqueued commands complete (a no-op under eager
    /// execution; returns the queue's virtual time for convenience).
    pub fn finish(&self) -> f64 {
        self.now_ns()
    }

    /// Charge `cost_ns` of host-side time to this queue's virtual clock
    /// and return the `(start, end)` window. This is how layers above the
    /// simulator keep host work (e.g. retry backoff in the recovery
    /// layer) on the same deterministic timeline as device commands.
    pub fn charge_ns(&self, cost_ns: f64) -> (f64, f64) {
        let mut clock = self.inner.clock_ns.lock();
        let start = *clock;
        *clock += cost_ns;
        (start, *clock)
    }

    /// The last stage of every transfer: charge moving `len` bytes to the
    /// clock and return the command's event.
    fn commit_transfer(&self, kind: CommandKind, len: usize) -> Event {
        let (start, end) = self.charge_ns(self.inner.device.cost_model().transfer_ns(len));
        Event::new(kind, start, end, len, Executed::default())
    }

    /// The one upload path behind [`CommandQueue::enqueue_write_buffer`]
    /// and the typed writes: `fill` produces the payload's `len` bytes
    /// directly in `buf`'s storage under its lock, so every form of write
    /// takes the same arbiter slot, draws exactly one `Upload` fault-op,
    /// and records the same provenance, cost and event. Public so a
    /// layer above can convert its own element representation straight
    /// into the buffer (the VM's `f64` leaves, say) without staging a
    /// typed vector first; `fill` runs only once the write is admitted.
    pub fn write_with(&self, buf: &Buffer, len: usize, fill: impl FnOnce(&mut [u8])) -> ClResult<Event> {
        let _slot = self.arbiter_slot();
        let effect = self.fault_check(FaultOp::Upload)?;
        self.check_buffer(buf)?;
        buf.write_with(len, fill)?;
        if self.integrity_armed() {
            // Record the *intended* bytes as the buffer's last known-good
            // checkpoint, then apply any injected flip to the device copy
            // only — exactly what a bit flip on the bus would look like.
            buf.record_provenance();
        }
        if let Some(bit) = effect.corrupt_bit {
            buf.flip_bit(bit);
        }
        Ok(self.commit_transfer(CommandKind::WriteBuffer, len))
    }

    /// Copy `data` into `buf` (host → device), mirroring
    /// `clEnqueueWriteBuffer`.
    pub fn enqueue_write_buffer(&self, buf: &Buffer, data: &[u8]) -> ClResult<Event> {
        self.write_with(buf, data.len(), |dst| {
            dst.copy_from_slice(data);
            crate::buffer::count_copied(data.len());
        })
    }

    /// The one read path behind [`CommandQueue::enqueue_read_buffer`] and
    /// the typed reads, mirror of [`CommandQueue::write_with`]: `fetch`
    /// copies or converts `buf`'s bytes under its lock, `flip` applies an
    /// injected wire flip to the delivered payload and `checksum` hashes
    /// it as little-endian bytes, so every form of read takes the same
    /// arbiter slot, draws exactly one `Readback` fault-op, and gets the
    /// same integrity verdict, cost and event.
    fn read_with<T>(
        &self,
        buf: &Buffer,
        fetch: impl FnOnce() -> ClResult<T>,
        flip: impl FnOnce(&mut T, u64),
        checksum: impl FnOnce(&T) -> u64,
    ) -> ClResult<(T, Event)> {
        let _slot = self.arbiter_slot();
        let effect = self.fault_check(FaultOp::Readback)?;
        self.check_buffer(buf)?;
        let mut payload = fetch()?;
        if let Some(bit) = effect.corrupt_bit {
            flip(&mut payload, bit);
        }
        self.verify_delivery(buf, || checksum(&payload))?;
        Ok((payload, self.commit_transfer(CommandKind::ReadBuffer, buf.len())))
    }

    /// Copy `buf` into `out` (device → host), mirroring
    /// `clEnqueueReadBuffer`. `out` must be exactly the buffer's size.
    ///
    /// The copy happens directly into `out` under the buffer's data lock —
    /// one copy, no intermediate snapshot allocation.
    pub fn enqueue_read_buffer(&self, buf: &Buffer, out: &mut [u8]) -> ClResult<Event> {
        self.read_with(
            buf,
            || buf.read_into(out).map(|()| out),
            |out, bit| flip_bit_in(out, bit),
            |out| crate::buffer::fnv1a64(out),
        )
        .map(|(_, ev)| ev)
    }

    /// Convenience: write an `f32` slice.
    ///
    /// Converts `f32`s → bytes directly into the buffer's storage under
    /// its data lock, with no intermediate byte vector.
    pub fn write_f32(&self, buf: &Buffer, data: &[f32]) -> ClResult<Event> {
        self.write_with(buf, data.len() * 4, |dst| {
            crate::hostmem::pack(data, dst, f32::to_le_bytes)
        })
    }

    /// Convenience: read the whole buffer as `f32`s.
    ///
    /// Converts bytes → `f32`s directly under the buffer's data lock, with
    /// no intermediate byte vector.
    pub fn read_f32(&self, buf: &Buffer) -> ClResult<(Vec<f32>, Event)> {
        self.read_with(
            buf,
            || buf.with_bytes(crate::hostmem::bytes_to_f32),
            |vals, bit| flip_word_bit(vals, bit, |v, mask| f32::from_bits(v.to_bits() ^ mask)),
            |vals| crate::buffer::fnv1a64(&crate::hostmem::f32_to_bytes(vals)),
        )
    }

    /// Convenience: write an `i32` slice (converted in place, like
    /// [`CommandQueue::write_f32`]).
    pub fn write_i32(&self, buf: &Buffer, data: &[i32]) -> ClResult<Event> {
        self.write_with(buf, data.len() * 4, |dst| {
            crate::hostmem::pack(data, dst, i32::to_le_bytes)
        })
    }

    /// Convenience: read the whole buffer as `i32`s.
    ///
    /// Converts bytes → `i32`s directly under the buffer's data lock, with
    /// no intermediate byte vector.
    pub fn read_i32(&self, buf: &Buffer) -> ClResult<(Vec<i32>, Event)> {
        self.read_with(
            buf,
            || buf.with_bytes(crate::hostmem::bytes_to_i32),
            |vals, bit| flip_word_bit(vals, bit, |v, mask| v ^ mask as i32),
            |vals| crate::buffer::fnv1a64(&crate::hostmem::i32_to_bytes(vals)),
        )
    }

    fn check_buffer(&self, buf: &Buffer) -> ClResult<()> {
        if buf.context_id() != self.inner.ctx.id() {
            return Err(ClError::InvalidContext(format!(
                "buffer {} does not belong to this queue's context",
                buf.id()
            )));
        }
        Ok(())
    }

    /// Launch a kernel over `nd`, mirroring `clEnqueueNDRangeKernel`.
    ///
    /// Executes the kernel with the engine the kernel requests (native by
    /// default, falling down the ladder to register and then the stack
    /// reference engine whenever a lowering declines the kernel — see
    /// [`crate::engine`]) and
    /// charges the device's analytic cost to the queue's virtual clock. The
    /// returned event's profiling timestamps expose that cost; its
    /// [`Event::engine`] and [`Event::ops`] report what actually ran. The
    /// resolved arguments come from the kernel's cached dispatch plan, so
    /// repeat dispatches with unchanged arguments skip re-resolution.
    pub fn enqueue_nd_range(&self, kernel: &Kernel, nd: &NdRange) -> ClResult<Event> {
        self.run_kernel(kernel, nd, Admit::Command, |ex| ex.whole(0.0))
    }

    /// The kernel stage list, the one body of every dispatch:
    ///
    /// 1. admit — take an arbiter slot unless a batch holds one (`admit`);
    /// 2. fault draw — exactly one `Enqueue` fault-op, however many
    ///    windows later run;
    /// 3. validate — context, shape and local memory;
    /// 4. corruption seam and integrity verify — an injected flip lands in
    ///    one argument buffer, then armed provenance is checked;
    /// 5. execute and 6. price — `schedule` runs group windows through
    ///    the [`Execution`] and prices what they retired;
    /// 7. provenance — the outputs become the new checkpoint;
    /// 8. clock advance, [`Event`], and the schedule's split instant.
    pub(crate) fn run_kernel(
        &self,
        kernel: &Kernel,
        nd: &NdRange,
        admit: Admit,
        schedule: impl FnOnce(&mut Execution<'_>) -> ClResult<Priced>,
    ) -> ClResult<Event> {
        let _slot = match admit {
            Admit::Command => self.arbiter_slot(),
            Admit::Batch => None,
        };
        let effect = self.fault_check(FaultOp::Enqueue)?;
        if kernel.ctx_id != self.inner.ctx.id() {
            return Err(ClError::InvalidContext(format!(
                "kernel `{}` was built for a different context",
                kernel.name()
            )));
        }
        nd.validate(self.inner.device.max_work_group_size())?;
        let plan = kernel.dispatch_plan()?;
        if plan.local_bytes > self.inner.device.local_mem_size() {
            return Err(ClError::InvalidWorkGroupSize(format!(
                "kernel `{}` needs {} bytes of local memory; device has {}",
                kernel.name(),
                plan.local_bytes,
                self.inner.device.local_mem_size()
            )));
        }

        // Silent-corruption seam: an injected Enqueue flip lands in one
        // argument buffer *before* the pre-dispatch verification, which
        // is exactly the seam that catches it (along with any flip left
        // behind by a corrupted upload).
        if let Some(bit) = effect.corrupt_bit {
            let n = plan.pooled.len().max(1) as u64;
            if let Some(target) = plan.pooled.get((bit % n) as usize) {
                target.flip_bit(bit / n);
            }
        }
        self.verify_integrity(&plan.pooled)?;

        let mut ex = Execution {
            queue: self,
            kernel,
            nd,
            plan: &plan,
            ran: Executed::default(),
        };
        let Priced { cost_ns, split } = schedule(&mut ex)?;
        let ran = ex.ran;

        if self.integrity_armed() {
            // The kernel legitimately rewrote its buffers: refresh their
            // provenance so this dispatch's output becomes the new last
            // known-good checkpoint.
            for buf in plan.pooled.iter() {
                buf.record_provenance();
            }
        }
        let (start, end) = self.charge_ns(cost_ns);
        if !split.is_empty() {
            self.instant(SpanKind::CoexecSplit, kernel.name(), &split);
        }
        let kind = CommandKind::NdRange(kernel.name().to_string());
        Ok(Event::new(kind, start, end, 0, ran))
    }

    /// Open a batched dispatch session on this queue: one arbiter slot is
    /// held for the whole batch, and every dispatch after the first is
    /// charged its cost *minus* the device's fixed launch overhead — the
    /// virtual-clock model of coalescing a proven-fusable chain of
    /// enqueues into a single submission. Close (or drop) the batch to
    /// release the slot and record a [`SpanKind::BatchFused`] instant
    /// summarising launches and saved overhead.
    pub fn open_batch(&self) -> DispatchBatch {
        DispatchBatch {
            queue: self.clone(),
            _slot: self.arbiter_slot(),
            launches: 0,
            saved_ns: 0.0,
            closed: false,
        }
    }
}

/// A batched dispatch session: a chain of enqueues on one queue whose
/// `FusionProof` shows they may coalesce into a single submission (see
/// `crates/analysis`). The first dispatch pays the device's full launch
/// overhead; every later one is charged `kernel cost − launch overhead`,
/// and one arbiter slot covers the whole batch — so under the serving
/// layer's `FairArbiter` a fused chain costs one grant, not N.
///
/// Obtained from [`CommandQueue::open_batch`]. Fault injection still fires
/// per dispatch (batching changes accounting, not the fault surface).
/// Closing — explicitly via [`DispatchBatch::close`] or implicitly on drop
/// — records a [`SpanKind::BatchFused`] instant with the batch's launch
/// count and total saved overhead.
#[derive(Debug)]
pub struct DispatchBatch {
    queue: CommandQueue,
    _slot: Option<ArbiterGrant>,
    launches: u32,
    saved_ns: f64,
    closed: bool,
}

impl DispatchBatch {
    /// Dispatch `kernel` over `nd` as part of this batch. Identical to
    /// [`CommandQueue::enqueue_nd_range`] except that dispatches after
    /// the batch's first are charged launch overhead once — the saving is
    /// tallied into [`DispatchBatch::saved_ns`].
    pub fn enqueue_nd_range(&mut self, kernel: &Kernel, nd: &NdRange) -> ClResult<Event> {
        let discount = if self.launches > 0 {
            self.queue.inner.device.cost_model().launch_overhead_ns
        } else {
            0.0
        };
        let ev = self
            .queue
            .run_kernel(kernel, nd, Admit::Batch, |ex| ex.whole(discount))?;
        self.launches += 1;
        self.saved_ns += discount;
        Ok(ev)
    }

    /// Dispatches successfully enqueued through this batch so far.
    pub fn launches(&self) -> u32 {
        self.launches
    }

    /// Launch overhead saved so far versus unbatched dispatch, in virtual
    /// nanoseconds: `(launches − 1) × launch_overhead_ns` of the device.
    pub fn saved_ns(&self) -> f64 {
        self.saved_ns
    }

    /// Close the batch, releasing its arbiter slot and recording the
    /// [`SpanKind::BatchFused`] instant. Returns `(launches, saved_ns)`.
    pub fn close(mut self) -> (u32, f64) {
        self.finish();
        (self.launches, self.saved_ns)
    }

    fn finish(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if self.launches > 0 {
            self.queue.instant(
                SpanKind::BatchFused,
                "batch",
                &[
                    ("launches", self.launches.to_string()),
                    ("saved_ns", format!("{}", self.saved_ns)),
                ],
            );
        }
    }
}

impl Drop for DispatchBatch {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Flip one (pre-modulo) bit of a delivered host payload — the readback
/// seam's corruption write path. The device copy is untouched: this is a
/// flip on the wire.
fn flip_bit_in(out: &mut [u8], bit: u64) {
    if out.is_empty() {
        return;
    }
    let nbits = out.len() as u64 * 8;
    let b = bit % nbits;
    out[(b / 8) as usize] ^= 1 << (b % 8);
}

/// [`flip_bit_in`] for a payload already converted to 4-byte words: bit
/// `b` of the little-endian byte image is bit `b % 32` of word `b / 32`,
/// so a typed read and the byte read corrupt the same bit.
fn flip_word_bit<T: Copy>(vals: &mut [T], bit: u64, xor: impl FnOnce(T, u32) -> T) {
    if vals.is_empty() {
        return;
    }
    let b = bit % (vals.len() as u64 * 32);
    let i = (b / 32) as usize;
    vals[i] = xor(vals[i], 1u32 << (b % 32));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::device::DeviceType;
    use crate::fault::FaultInjector;
    use crate::platform::Platform;
    use crate::profile::ProfileSink;
    use crate::program::Program;

    fn setup(ty: DeviceType) -> (Context, CommandQueue) {
        let dev = Platform::default_device(ty).unwrap();
        let ctx = Context::new(std::slice::from_ref(&dev)).unwrap();
        let q = CommandQueue::new(&ctx, &dev).unwrap();
        (ctx, q)
    }

    #[test]
    fn write_read_roundtrip_advances_clock() {
        let (ctx, q) = setup(DeviceType::Gpu);
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        let w = q.write_f32(&buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let (vals, r) = q.read_f32(&buf).unwrap();
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(w.duration_ns() > 0.0);
        assert!(r.start_ns() >= w.end_ns());
        assert!(q.now_ns() >= r.end_ns());
    }

    #[test]
    fn dispatch_square_on_cpu_and_gpu() {
        for ty in [DeviceType::Cpu, DeviceType::Gpu] {
            let (ctx, q) = setup(ty);
            let src = "__kernel void square(__global float* a) {
                int i = get_global_id(0);
                a[i] = a[i] * a[i];
            }";
            let program = Program::build(&ctx, src).unwrap();
            let k = program.create_kernel("square").unwrap();
            let buf = ctx.create_buffer(MemFlags::ReadWrite, 32).unwrap();
            q.write_f32(&buf, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
                .unwrap();
            k.set_arg_buffer(0, &buf).unwrap();
            let ev = q.enqueue_nd_range(&k, &NdRange::d1(8, 4)).unwrap();
            assert_eq!(ev.items(), 8);
            let (vals, _) = q.read_f32(&buf).unwrap();
            assert_eq!(vals[7], 64.0);
        }
    }

    #[test]
    fn gpu_beats_cpu_on_compute_heavy_kernels() {
        // A compute-dense kernel: the GPU's lane advantage should dominate.
        let src = "__kernel void heavy(__global float* a) {
            int i = get_global_id(0);
            float x = a[i];
            for (int k = 0; k < 200; k++) { x = x * 1.0001f + 0.5f; }
            a[i] = x;
        }";
        let mut times = Vec::new();
        for ty in [DeviceType::Gpu, DeviceType::Cpu] {
            let (ctx, q) = setup(ty);
            let program = Program::build(&ctx, src).unwrap();
            let k = program.create_kernel("heavy").unwrap();
            let buf = ctx.create_buffer(MemFlags::ReadWrite, 4096 * 4).unwrap();
            k.set_arg_buffer(0, &buf).unwrap();
            let ev = q.enqueue_nd_range(&k, &NdRange::d1(4096, 64)).unwrap();
            times.push(ev.duration_ns());
        }
        assert!(times[0] < times[1], "gpu {} !< cpu {}", times[0], times[1]);
    }

    #[test]
    fn cpu_transfers_beat_gpu_transfers() {
        let mut times = Vec::new();
        for ty in [DeviceType::Gpu, DeviceType::Cpu] {
            let (ctx, q) = setup(ty);
            let buf = ctx.create_buffer(MemFlags::ReadWrite, 1 << 20).unwrap();
            let data = vec![0u8; 1 << 20];
            let ev = q.enqueue_write_buffer(&buf, &data).unwrap();
            times.push(ev.duration_ns());
        }
        assert!(times[1] < times[0]);
    }

    #[test]
    fn kernel_trap_surfaces_as_error_and_releases_buffers() {
        let (ctx, q) = setup(DeviceType::Cpu);
        let src = "__kernel void bad(__global float* a) { a[1000000] = 1.0f; }";
        let program = Program::build(&ctx, src).unwrap();
        let k = program.create_kernel("bad").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let err = q.enqueue_nd_range(&k, &NdRange::d1(1, 1)).unwrap_err();
        assert!(matches!(err, ClError::KernelTrap { .. }));
        // Buffer must be usable again.
        assert!(q.read_f32(&buf).is_ok());
    }

    #[test]
    fn aliased_args_share_one_checkout() {
        let (ctx, q) = setup(DeviceType::Cpu);
        let src = "__kernel void copy2(__global float* a, __global float* b) {
            int i = get_global_id(0);
            b[i] = a[i] + 1.0f;
        }";
        let program = Program::build(&ctx, src).unwrap();
        let k = program.create_kernel("copy2").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        q.write_f32(&buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_buffer(1, &buf).unwrap();
        q.enqueue_nd_range(&k, &NdRange::d1(4, 4)).unwrap();
        let (vals, _) = q.read_f32(&buf).unwrap();
        assert_eq!(vals, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn local_memory_limit_enforced() {
        let (ctx, q) = setup(DeviceType::Gpu);
        let src = "__kernel void l(__global float* a, __local float* s) {
            s[get_local_id(0)] = a[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            a[get_global_id(0)] = s[0];
        }";
        let program = Program::build(&ctx, src).unwrap();
        let k = program.create_kernel("l").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 64).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_local(1, 1 << 30).unwrap();
        assert!(q.enqueue_nd_range(&k, &NdRange::d1(16, 4)).is_err());
    }

    #[test]
    fn command_spans_come_from_events_and_the_queue_sink_holds_only_instants() {
        let (ctx, q) = setup(DeviceType::Gpu);
        let instants = TraceSink::new();
        q.attach_trace(instants.clone());
        let spans = TraceSink::new();
        let profile = ProfileSink::new().with_trace(spans.clone());
        let dev = q.device().name();
        let src = "__kernel void sq(__global float* a) {
            int i = get_global_id(0);
            a[i] = a[i] * a[i];
        }";
        let program = Program::build(&ctx, src).unwrap();
        let k = program.create_kernel("sq").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        profile.record_command(&q.write_f32(&buf, &[1.0, 2.0, 3.0, 4.0]).unwrap(), dev);
        k.set_arg_buffer(0, &buf).unwrap();
        profile.record_command(&q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap(), dev);
        let (_, read_ev) = q.read_f32(&buf).unwrap();
        profile.record_command(&read_ev, dev);

        let events = spans.events();
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![SpanKind::ToDevice, SpanKind::Kernel, SpanKind::FromDevice]
        );
        assert_eq!(events[1].name, "sq");
        // Spans sit end-to-end on the queue's virtual clock.
        assert_eq!(events[0].ts_ns, 0.0);
        assert_eq!(events[1].ts_ns, events[0].ts_ns + events[0].dur_ns);
        assert_eq!(events[2].ts_ns + events[2].dur_ns, read_ev.end_ns());
        assert_eq!(events[2].ts_ns + events[2].dur_ns, q.now_ns());
        // Segment aggregation covers the whole clock.
        assert_eq!(spans.segments().total_ns(), q.now_ns());

        // The queue's own sink saw no command, only its instants.
        assert!(instants.is_empty());
        let mut batch = q.open_batch();
        batch.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        batch.close();
        assert_eq!(instants.events()[0].kind, SpanKind::BatchFused);
        assert_eq!(instants.len(), 1);

        // Detach: later instants are not recorded.
        q.attach_trace(TraceSink::disabled());
        q.open_batch().enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        assert_eq!(instants.len(), 1);
    }

    #[test]
    fn read_paths_copy_each_byte_exactly_once() {
        let (ctx, q) = setup(DeviceType::Cpu);
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 1024).unwrap();
        q.enqueue_write_buffer(&buf, &[7u8; 1024]).unwrap();

        // enqueue_read_buffer: exactly one 1024-byte copy, straight into
        // the caller's slice — no intermediate snapshot.
        let before = crate::buffer::bytes_copied();
        let mut out = vec![0u8; 1024];
        q.enqueue_read_buffer(&buf, &mut out).unwrap();
        assert_eq!(crate::buffer::bytes_copied() - before, 1024);
        assert_eq!(out[0], 7);

        // read_f32 converts under the lock: zero byte copies.
        let before = crate::buffer::bytes_copied();
        let (vals, _) = q.read_f32(&buf).unwrap();
        assert_eq!(vals.len(), 256);
        assert_eq!(crate::buffer::bytes_copied() - before, 0);

        // read_i32 likewise.
        let before = crate::buffer::bytes_copied();
        let (vals, _) = q.read_i32(&buf).unwrap();
        assert_eq!(vals.len(), 256);
        assert_eq!(crate::buffer::bytes_copied() - before, 0);
    }

    #[test]
    fn write_paths_copy_each_byte_at_most_once() {
        let (ctx, q) = setup(DeviceType::Cpu);
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 1024).unwrap();

        // enqueue_write_buffer: exactly one 1024-byte copy, straight from
        // the caller's slice into the buffer's storage.
        let before = crate::buffer::bytes_copied();
        q.enqueue_write_buffer(&buf, &[7u8; 1024]).unwrap();
        assert_eq!(crate::buffer::bytes_copied() - before, 1024);

        // write_f32 / write_i32 convert under the lock: no byte vector is
        // built, so there is nothing to copy.
        let before = crate::buffer::bytes_copied();
        q.write_f32(&buf, &[1.5; 256]).unwrap();
        q.write_i32(&buf, &[-3; 256]).unwrap();
        assert_eq!(crate::buffer::bytes_copied() - before, 0);
        assert_eq!(q.read_i32(&buf).unwrap().0, vec![-3; 256]);
    }

    /// Everything an upload leaves behind that a later command, a trace
    /// reader or the fault scoreboard could observe.
    #[derive(Debug, PartialEq)]
    struct WriteObservation {
        /// Per write: the event's `(bytes, start, end)` bits or the error text.
        outcomes: Vec<Result<(usize, u64, u64), String>>,
        device_bytes: Vec<Vec<u8>>,
        provenance: Vec<Option<u64>>,
        shadow: Vec<Option<Vec<u8>>>,
        fired: Vec<crate::fault::InjectionRecord>,
        trace: Vec<(SpanKind, String, u64, u64)>,
        clock_bits: u64,
    }

    /// Issue `write` three times (Upload fault-ops 0, 1, 2), each into a
    /// fresh `nbytes` buffer of a fresh GPU queue running under `plan`.
    fn observe_writes(
        plan: crate::fault::FaultPlan,
        nbytes: usize,
        write: impl Fn(&CommandQueue, &Buffer) -> ClResult<Event>,
    ) -> WriteObservation {
        let (ctx, q) = setup(DeviceType::Gpu);
        let inj = FaultInjector::new(plan);
        q.context().attach_faults(inj.clone());
        let sink = TraceSink::new();
        q.attach_trace(sink.clone());
        let profile = ProfileSink::new().with_trace(sink.clone());
        let bufs: Vec<Buffer> = (0..3)
            .map(|_| ctx.create_buffer(MemFlags::ReadWrite, nbytes).unwrap())
            .collect();
        WriteObservation {
            outcomes: bufs
                .iter()
                .map(|b| {
                    write(&q, b)
                        .map(|ev| {
                            profile.record_command(&ev, q.device().name());
                            (ev.bytes(), ev.start_ns().to_bits(), ev.end_ns().to_bits())
                        })
                        .map_err(|e| e.to_string())
                })
                .collect(),
            device_bytes: bufs.iter().map(|b| b.snapshot().unwrap()).collect(),
            provenance: bufs.iter().map(|b| b.provenance_checksum()).collect(),
            shadow: bufs
                .iter()
                .map(|b| b.inner.provenance.lock().as_ref().map(|p| p.shadow.clone()))
                .collect(),
            fired: inj.records(),
            trace: sink
                .events()
                .iter()
                .map(|e| (e.kind, e.name.clone(), e.ts_ns.to_bits(), e.dur_ns.to_bits()))
                .collect(),
            clock_bits: q.now_ns().to_bits(),
        }
    }

    #[test]
    fn typed_writes_are_indistinguishable_from_the_byte_write() {
        use crate::fault::{FaultPlan, InjectedFault, KillMode};
        use crate::hostmem::pack;
        let floats: Vec<f32> = (0..64).map(|i| i as f32 * -0.75).collect();
        let ints: Vec<i32> = (0..64).map(|i| i * 0x0101_0101 - 7).collect();
        // A caller-side source: wider host elements converted inside the
        // fill, the way the VM's leaf view uploads (`f64→f32`, `i64→i32`).
        let doubles: Vec<f64> = floats.iter().map(|&x| x as f64).collect();
        let longs: Vec<i64> = ints.iter().map(|&x| x as i64 + (1 << 40)).collect();
        let plans = [
            FaultPlan::new(),
            // One fault-op per write: the flip scheduled at Upload index 1
            // must land on the second write of either path, on the same
            // bit, under the same recorded provenance.
            FaultPlan::new().fail(FaultOp::Upload, 1, InjectedFault::Corrupt),
            // A refused upload consumes its index, charges nothing and
            // leaves the buffer untouched on both paths.
            FaultPlan::new()
                .fail(FaultOp::Upload, 0, InjectedFault::Transient)
                .fail(FaultOp::Upload, 2, InjectedFault::Corrupt),
            // A killed upload never runs its fill.
            FaultPlan::new().fail(FaultOp::Upload, 1, InjectedFault::Kill(KillMode::Exit)),
        ];
        for plan in plans {
            // An oversize payload fails with the same message too.
            for nbytes in [256, 512, 128] {
                let via_bytes = observe_writes(plan.clone(), nbytes, |q, b| {
                    q.enqueue_write_buffer(b, &crate::hostmem::f32_to_bytes(&floats))
                });
                let typed = observe_writes(plan.clone(), nbytes, |q, b| q.write_f32(b, &floats));
                assert_eq!(typed, via_bytes, "f32, {nbytes}-byte buffers");
                let source = observe_writes(plan.clone(), nbytes, |q, b| {
                    q.write_with(b, doubles.len() * 4, |dst| {
                        pack(&doubles, dst, |x| (x as f32).to_le_bytes())
                    })
                });
                assert_eq!(source, via_bytes, "f64 source, {nbytes}-byte buffers");
                let via_bytes = observe_writes(plan.clone(), nbytes, |q, b| {
                    q.enqueue_write_buffer(b, &crate::hostmem::i32_to_bytes(&ints))
                });
                let typed = observe_writes(plan.clone(), nbytes, |q, b| q.write_i32(b, &ints));
                assert_eq!(typed, via_bytes, "i32, {nbytes}-byte buffers");
                let source = observe_writes(plan.clone(), nbytes, |q, b| {
                    q.write_with(b, longs.len() * 4, |dst| {
                        pack(&longs, dst, |x| (x as i32).to_le_bytes())
                    })
                });
                assert_eq!(source, via_bytes, "i64 source, {nbytes}-byte buffers");
            }
        }
        // The comparison above is not vacuous: the corrupting plan really
        // flips one bit of the second upload, under armed provenance.
        let seen = observe_writes(
            FaultPlan::new().fail(FaultOp::Upload, 1, InjectedFault::Corrupt),
            256,
            |q, b| q.write_f32(b, &floats),
        );
        assert!(seen.outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(seen.fired.len(), 1);
        assert_eq!(seen.device_bytes[0], crate::hostmem::f32_to_bytes(&floats));
        assert_ne!(seen.device_bytes[1], seen.device_bytes[0]);
        assert_eq!(seen.device_bytes[2], seen.device_bytes[0]);
        assert_eq!(seen.provenance[1], Some(crate::buffer::fnv1a64(&seen.device_bytes[0])));
        assert_eq!(seen.shadow[1].as_ref(), Some(&seen.device_bytes[0]));
        assert_eq!(seen.trace.len(), 3);
    }

    #[test]
    fn typed_write_to_a_busy_buffer_fails_like_the_byte_write() {
        let (ctx, q) = setup(DeviceType::Cpu);
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 8).unwrap();
        let held = buf.check_out().unwrap();
        let via_bytes = q.enqueue_write_buffer(&buf, &[0u8; 8]).unwrap_err();
        assert!(via_bytes.to_string().contains("raced a dispatch"), "{via_bytes}");
        assert_eq!(q.write_f32(&buf, &[1.0, 2.0]).unwrap_err().to_string(), via_bytes.to_string());
        assert_eq!(q.write_i32(&buf, &[1, 2]).unwrap_err().to_string(), via_bytes.to_string());
        assert_eq!(q.now_ns(), 0.0, "a refused write charges nothing");
        buf.check_in(held);
        assert!(q.write_i32(&buf, &[1, 2]).is_ok());
    }

    /// A successful read: payload bytes, then the event's `(bytes, start, end)`.
    type Delivery = (Vec<u8>, usize, u64, u64);

    /// Everything a read-back leaves behind that the caller, a trace
    /// reader or the fault scoreboard could observe.
    #[derive(Debug, PartialEq)]
    struct ReadObservation {
        /// Per read: the delivered payload as little-endian bytes with the
        /// event's `(bytes, start, end)` bits, or the error text (an
        /// integrity verdict carries the delivered checksum, so equal
        /// texts mean the same bit was flipped).
        outcomes: Vec<Result<Delivery, String>>,
        fired: Vec<crate::fault::InjectionRecord>,
        trace: Vec<(SpanKind, String, u64, u64)>,
        clock_bits: u64,
        repair_bits: u64,
    }

    /// Issue `read` three times (Readback fault-ops 0, 1, 2) against one
    /// uploaded buffer of a fresh GPU queue running under `plan`.
    fn observe_reads(
        plan: crate::fault::FaultPlan,
        image: &[u8],
        read: impl Fn(&CommandQueue, &Buffer) -> ClResult<(Vec<u8>, Event)>,
    ) -> ReadObservation {
        let (ctx, q) = setup(DeviceType::Gpu);
        let inj = FaultInjector::new(plan);
        q.context().attach_faults(inj.clone());
        let buf = ctx.create_buffer(MemFlags::ReadWrite, image.len()).unwrap();
        q.enqueue_write_buffer(&buf, image).unwrap();
        let sink = TraceSink::new();
        q.attach_trace(sink.clone());
        let profile = ProfileSink::new().with_trace(sink.clone());
        ReadObservation {
            outcomes: (0..3)
                .map(|_| {
                    read(&q, &buf)
                        .map(|(bytes, ev)| {
                            profile.record_command(&ev, q.device().name());
                            (bytes, ev.bytes(), ev.start_ns().to_bits(), ev.end_ns().to_bits())
                        })
                        // Buffer ids are process-unique; everything else
                        // in the text must match.
                        .map_err(|e| e.to_string().replace(&format!("buffer {}", buf.id()), "buffer"))
                })
                .collect(),
            fired: inj.records(),
            trace: sink
                .events()
                .iter()
                .map(|e| (e.kind, e.name.clone(), e.ts_ns.to_bits(), e.dur_ns.to_bits()))
                .collect(),
            clock_bits: q.now_ns().to_bits(),
            repair_bits: q.repair_ns().to_bits(),
        }
    }

    #[test]
    fn typed_reads_are_indistinguishable_from_the_byte_read() {
        use crate::fault::{FaultPlan, InjectedFault};
        let image: Vec<u8> = (0..256u32).map(|i| (i * 37 + 11) as u8).collect();
        let via_bytes = |q: &CommandQueue, b: &Buffer| {
            let mut out = vec![0u8; b.len()];
            q.enqueue_read_buffer(b, &mut out).map(|ev| (out, ev))
        };
        let as_f32 = |q: &CommandQueue, b: &Buffer| {
            q.read_f32(b).map(|(v, ev)| (crate::hostmem::f32_to_bytes(&v), ev))
        };
        let as_i32 = |q: &CommandQueue, b: &Buffer| {
            q.read_i32(b).map(|(v, ev)| (crate::hostmem::i32_to_bytes(&v), ev))
        };
        let plans = [
            FaultPlan::new(),
            // One fault-op per read: the flip scheduled at Readback index
            // 1 lands on the second read of every path, on the same bit,
            // and draws the same integrity verdict.
            FaultPlan::new().fail(FaultOp::Readback, 1, InjectedFault::Corrupt),
            // A refused read consumes its index and charges nothing.
            FaultPlan::new()
                .fail(FaultOp::Readback, 0, InjectedFault::Transient)
                .fail(FaultOp::Readback, 2, InjectedFault::Corrupt),
        ];
        for plan in plans {
            let reference = observe_reads(plan.clone(), &image, via_bytes);
            assert_eq!(observe_reads(plan.clone(), &image, as_f32), reference, "f32");
            assert_eq!(observe_reads(plan.clone(), &image, as_i32), reference, "i32");
        }
        // Not vacuous: the corrupting plan fires once, on the second read
        // only, and the detection restores a clean third read.
        let seen = observe_reads(
            FaultPlan::new().fail(FaultOp::Readback, 1, InjectedFault::Corrupt),
            &image,
            as_f32,
        );
        assert_eq!(seen.fired.len(), 1);
        assert_eq!(seen.outcomes[0].as_ref().unwrap().0, image);
        assert!(seen.outcomes[1].as_ref().unwrap_err().contains("integrity"), "{seen:?}");
        assert_eq!(seen.outcomes[2].as_ref().unwrap().0, image);
        let spans = seen.trace.iter().filter(|e| e.0 == SpanKind::FromDevice).count();
        assert_eq!(spans, 2, "a refused read leaves no span");

        // The flip itself: bit `b` of the little-endian byte image is bit
        // `b % 32` of word `b / 32`, for every bit a plan can draw.
        for bit in [0u64, 7, 8, 31, 32, 33, 2047, 2048, 2049, u64::MAX] {
            let mut bytes = image.clone();
            flip_bit_in(&mut bytes, bit);
            assert_eq!(bytes.iter().zip(&image).filter(|(a, b)| a != b).count(), 1);
            let mut ints = crate::hostmem::bytes_to_i32(&image);
            flip_word_bit(&mut ints, bit, |v, mask| v ^ mask as i32);
            assert_eq!(crate::hostmem::i32_to_bytes(&ints), bytes, "i32 bit {bit}");
            let mut floats = crate::hostmem::bytes_to_f32(&image);
            flip_word_bit(&mut floats, bit, |v, mask| f32::from_bits(v.to_bits() ^ mask));
            assert_eq!(crate::hostmem::f32_to_bytes(&floats), bytes, "f32 bit {bit}");
        }
    }

    #[test]
    fn kernel_events_report_engine_and_ops() {
        let (ctx, q) = setup(DeviceType::Cpu);
        let sink = TraceSink::new();
        let profile = ProfileSink::new().with_trace(sink.clone());
        let src = "__kernel void sq(__global float* a) {
            int i = get_global_id(0);
            a[i] = a[i] * a[i];
        }";
        let program = Program::build(&ctx, src).unwrap();
        let k = program.create_kernel("sq").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();

        k.set_engine(Some(crate::engine::Engine::Register));
        let ev = q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        assert_eq!(ev.engine(), Some("register"));
        assert!(ev.ops() > 0);
        let register_ops = ev.ops();
        profile.record_command(&ev, q.device().name());

        k.set_engine(Some(crate::engine::Engine::Stack));
        let ev = q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        assert_eq!(ev.engine(), Some("stack"));
        assert_eq!(ev.ops(), register_ops);
        profile.record_command(&ev, q.device().name());

        // The trace spans carry the same engine/ops args.
        let events = sink.events();
        let kernels: Vec<_> = events
            .iter()
            .filter(|e| e.kind == SpanKind::Kernel)
            .collect();
        assert_eq!(kernels.len(), 2);
        for (te, engine) in kernels.iter().zip(["register", "stack"]) {
            assert!(te
                .args
                .iter()
                .any(|(k, v)| k == "engine" && v == engine));
            assert!(te
                .args
                .iter()
                .any(|(k, v)| k == "ops" && v == &register_ops.to_string()));
        }
    }

    #[test]
    fn dispatch_plan_is_reused_until_args_change() {
        let (ctx, q) = setup(DeviceType::Cpu);
        let src = "__kernel void sq(__global float* a) {
            int i = get_global_id(0);
            a[i] = a[i] * a[i];
        }";
        let program = Program::build(&ctx, src).unwrap();
        let k = program.create_kernel("sq").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        let p1 = k.dispatch_plan().unwrap();
        q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        let p2 = k.dispatch_plan().unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "plan must be reused across dispatches");

        // Rebinding an argument invalidates the plan.
        let other = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        k.set_arg_buffer(0, &other).unwrap();
        q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        let p3 = k.dispatch_plan().unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3), "rebind must rebuild the plan");
    }

    #[test]
    fn upload_corruption_is_detected_restored_and_clock_neutral() {
        use crate::fault::{FaultInjector, FaultPlan, InjectedFault};
        // Clean reference: one write, one read.
        let (ctx, q) = setup(DeviceType::Gpu);
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        q.write_f32(&buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let (clean_vals, _) = q.read_f32(&buf).unwrap();
        let clean_clock = q.now_ns();

        // Same commands with a corrupted upload: the flip is silent at
        // write time, caught at readback, repaired from the shadow, and
        // the re-read both succeeds and lands the clock on the same
        // virtual instant.
        let (ctx2, q2) = setup(DeviceType::Gpu);
        let inj = FaultInjector::new(
            FaultPlan::new().fail(FaultOp::Upload, 0, InjectedFault::Corrupt),
        );
        q2.context().attach_faults(inj.clone());
        let buf2 = ctx2.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        q2.write_f32(&buf2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let err = q2.read_f32(&buf2).unwrap_err();
        assert!(err.is_integrity(), "unexpected error: {err}");
        assert_eq!(inj.corrupt_count(), 1);
        assert_eq!(inj.detected_count(), 1);
        assert!(q2.repair_ns() > 0.0, "restore must be charged to repair");
        let (vals, _) = q2.read_f32(&buf2).unwrap();
        assert_eq!(vals, clean_vals, "shadow restore must yield clean bytes");
        assert_eq!(
            q2.now_ns().to_bits(),
            clean_clock.to_bits(),
            "failed command must charge nothing to the main clock"
        );
    }

    #[test]
    fn wire_corruption_on_readback_is_detected_and_reread_is_clean() {
        use crate::fault::{FaultInjector, FaultPlan, InjectedFault};
        let (ctx, q) = setup(DeviceType::Cpu);
        let inj = FaultInjector::new(
            FaultPlan::new().fail(FaultOp::Readback, 0, InjectedFault::Corrupt),
        );
        q.context().attach_faults(inj.clone());
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 8).unwrap();
        q.write_i32(&buf, &[7, 9]).unwrap();
        // The flip lands on the delivered payload; device bytes stay
        // good, so the re-read needs no restore to succeed.
        let err = q.read_i32(&buf).unwrap_err();
        assert!(matches!(err, ClError::IntegrityViolation { .. }));
        let (vals, _) = q.read_i32(&buf).unwrap();
        assert_eq!(vals, vec![7, 9]);
        assert_eq!(inj.detected_count(), 1);

        // The byte-slice readback path detects too.
        let inj2 = FaultInjector::new(
            FaultPlan::new().fail(FaultOp::Readback, 0, InjectedFault::Corrupt),
        );
        let (ctx3, q3) = setup(DeviceType::Cpu);
        q3.context().attach_faults(inj2.clone());
        let buf3 = ctx3.create_buffer(MemFlags::ReadWrite, 8).unwrap();
        q3.enqueue_write_buffer(&buf3, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut out = vec![0u8; 8];
        assert!(q3.enqueue_read_buffer(&buf3, &mut out).is_err());
        assert!(q3.enqueue_read_buffer(&buf3, &mut out).is_ok());
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn dispatch_preverify_catches_enqueue_corruption_then_retry_succeeds() {
        use crate::fault::{FaultInjector, FaultPlan, InjectedFault};
        let (ctx, q) = setup(DeviceType::Cpu);
        let inj = FaultInjector::new(
            FaultPlan::new().fail(FaultOp::Enqueue, 0, InjectedFault::Corrupt),
        );
        q.context().attach_faults(inj.clone());
        let src = "__kernel void sq(__global float* a) {
            int i = get_global_id(0);
            a[i] = a[i] * a[i];
        }";
        let program = Program::build(&ctx, src).unwrap();
        let k = program.create_kernel("sq").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
        q.write_f32(&buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let err = q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap_err();
        assert!(err.is_integrity(), "unexpected error: {err}");
        // The buffer was restored: the re-issued dispatch computes the
        // right squares from the checkpoint.
        q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
        let (vals, _) = q.read_f32(&buf).unwrap();
        assert_eq!(vals, vec![1.0, 4.0, 9.0, 16.0]);
        assert_eq!(inj.detected_count(), 1);
    }

    /// The context's injector is the lane's only fault attachment: a
    /// build against the context and every upload, dispatch and read-back
    /// on a queue over it draw from it, while a second lane with its own
    /// context draws nothing.
    #[test]
    fn the_contexts_injector_is_the_lanes_only_fault_surface() {
        use crate::fault::{FaultPlan, InjectedFault};
        let ops = [FaultOp::Build, FaultOp::Upload, FaultOp::Enqueue, FaultOp::Readback];
        let plan = ops
            .iter()
            .fold(FaultPlan::new(), |plan, &op| plan.fail(op, 0, InjectedFault::Transient));
        let inj = FaultInjector::new(plan);
        let (ctx, q) = setup(DeviceType::Gpu);
        ctx.attach_faults(inj.clone());
        let src = "__kernel void sq(__global float* a) {
            int i = get_global_id(0);
            a[i] = a[i] * a[i];
        }";
        let busy = |err: ClError| matches!(err, ClError::DeviceBusy { .. });
        // Each first attempt is refused; the re-issue draws index 1.
        let lane = |ctx: &Context, q: &CommandQueue, faulty: bool| {
            if faulty {
                assert!(busy(Program::build(ctx, src).unwrap_err()), "build");
            }
            let k = Program::build(ctx, src).unwrap().create_kernel("sq").unwrap();
            let buf = ctx.create_buffer(MemFlags::ReadWrite, 16).unwrap();
            k.set_arg_buffer(0, &buf).unwrap();
            if faulty {
                assert!(busy(q.write_f32(&buf, &[1.0; 4]).unwrap_err()), "upload");
            }
            q.write_f32(&buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
            if faulty {
                assert!(busy(q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap_err()), "enqueue");
            }
            q.enqueue_nd_range(&k, &NdRange::d1(4, 2)).unwrap();
            if faulty {
                assert!(busy(q.read_f32(&buf).unwrap_err()), "readback");
            }
            assert_eq!(q.read_f32(&buf).unwrap().0, vec![1.0, 4.0, 9.0, 16.0]);
        };
        lane(&ctx, &q, true);
        let fired = inj.records();
        assert_eq!(fired.iter().map(|r| r.op).collect::<Vec<_>>(), ops);
        for record in &fired {
            assert_eq!((record.index, record.kind), (0, "transient"), "{record:?}");
            assert_eq!(record.device, q.device().name());
            assert!(record.error.clone().is_some_and(busy), "{record:?}");
        }

        // A second lane: its own context, no attachment, nothing drawn.
        let (other_ctx, other) = setup(DeviceType::Gpu);
        lane(&other_ctx, &other, false);
        assert_eq!(inj.records(), fired);
        for op in ops {
            assert_eq!(inj.drawn(op), 2, "{op:?}");
        }
    }

    #[test]
    fn queue_requires_device_in_context() {
        let gpu = Platform::default_device(DeviceType::Gpu).unwrap();
        let cpu = Platform::default_device(DeviceType::Cpu).unwrap();
        let ctx = Context::new(std::slice::from_ref(&gpu)).unwrap();
        assert!(CommandQueue::new(&ctx, &cpu).is_err());
    }

    /// Counts the arbiter slots taken and given back.
    #[derive(Default)]
    struct CountingArbiter {
        acquires: std::sync::atomic::AtomicU64,
        releases: std::sync::atomic::AtomicU64,
    }

    impl QueueArbiter for CountingArbiter {
        fn acquire(&self, _device: usize, _tenant: u64) {
            self.acquires.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        fn release(&self, _device: usize, _tenant: u64) {
            self.releases.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// One command path of the stage-list table: what it must cost in
    /// arbiter slots and fault-ops of class `op` on the primary queue.
    struct PathRow<'a> {
        path: &'a str,
        slots: u64,
        op: FaultOp,
        draws: u64,
        run: Box<dyn Fn() -> Vec<Event> + 'a>,
    }

    /// The stage list's invariants on every command path: one arbiter slot
    /// per command, batch or co-execution; exactly one fault draw per
    /// command on the primary, plus one probe on the secondary for the one
    /// piece it takes; and the clock advanced by exactly the returned events.
    #[test]
    fn every_command_path_admits_once_draws_once_and_charges_its_events() {
        use crate::coexec::co_enqueue;
        use crate::fault::FaultPlan;
        use std::sync::atomic::Ordering::SeqCst;
        let (ctx, q) = setup(DeviceType::Gpu);
        let cpu = Platform::default_device(DeviceType::Cpu).unwrap();
        let cpu_ctx = Context::new(std::slice::from_ref(&cpu)).unwrap();
        let sec = CommandQueue::new(&cpu_ctx, &cpu).unwrap();
        let arbiter = Arc::new(CountingArbiter::default());
        q.attach_arbiter(arbiter.clone(), 1);
        sec.attach_arbiter(arbiter.clone(), 2);
        let (faults, sec_faults) = (
            FaultInjector::new(FaultPlan::new()),
            FaultInjector::new(FaultPlan::new()),
        );
        q.context().attach_faults(faults.clone());
        sec.context().attach_faults(sec_faults.clone());
        let instants = TraceSink::new();
        q.attach_trace(instants.clone());

        const N: usize = 4096;
        let src = "__kernel void scale(__global float* a, __global const float* b) {
            int i = get_global_id(0);
            a[i] = a[i] * b[i % 16] + 1.0f;
        }";
        let k = Program::build(&ctx, src).unwrap().create_kernel("scale").unwrap();
        let buf = ctx.create_buffer(MemFlags::ReadWrite, N * 4).unwrap();
        let weights = ctx.create_buffer(MemFlags::ReadOnly, 16 * 4).unwrap();
        q.write_f32(&weights, &[1.0; 16]).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_buffer(1, &weights).unwrap();
        let nd = NdRange::d1(N, 16);
        let one = |ev: ClResult<Event>| vec![ev.unwrap()];
        let rows = [
            PathRow {
                path: "write_with",
                slots: 1,
                op: FaultOp::Upload,
                draws: 1,
                run: Box::new(|| one(q.write_with(&buf, N * 4, |dst| dst.fill(0)))),
            },
            PathRow {
                path: "enqueue_write_buffer",
                slots: 1,
                op: FaultOp::Upload,
                draws: 1,
                run: Box::new(|| one(q.enqueue_write_buffer(&buf, &[0x3f; N * 4]))),
            },
            PathRow {
                path: "write_f32",
                slots: 1,
                op: FaultOp::Upload,
                draws: 1,
                run: Box::new(|| one(q.write_f32(&buf, &[0.5; N]))),
            },
            PathRow {
                path: "write_i32",
                slots: 1,
                op: FaultOp::Upload,
                draws: 1,
                run: Box::new(|| one(q.write_i32(&buf, &[0x3f00_0000; N]))),
            },
            PathRow {
                path: "enqueue_read_buffer",
                slots: 1,
                op: FaultOp::Readback,
                draws: 1,
                run: Box::new(|| one(q.enqueue_read_buffer(&buf, &mut vec![0; N * 4]))),
            },
            PathRow {
                path: "read_f32",
                slots: 1,
                op: FaultOp::Readback,
                draws: 1,
                run: Box::new(|| one(q.read_f32(&buf).map(|(_, ev)| ev))),
            },
            PathRow {
                path: "read_i32",
                slots: 1,
                op: FaultOp::Readback,
                draws: 1,
                run: Box::new(|| one(q.read_i32(&buf).map(|(_, ev)| ev))),
            },
            PathRow {
                path: "enqueue_nd_range",
                slots: 1,
                op: FaultOp::Enqueue,
                draws: 1,
                run: Box::new(|| one(q.enqueue_nd_range(&k, &nd))),
            },
            PathRow {
                path: "3-dispatch batch",
                slots: 1,
                op: FaultOp::Enqueue,
                draws: 3,
                run: Box::new(|| {
                    let mut batch = q.open_batch();
                    let evs = (0..3).map(|_| batch.enqueue_nd_range(&k, &nd).unwrap()).collect();
                    batch.close();
                    evs
                }),
            },
            PathRow {
                path: "co_enqueue",
                slots: 1,
                op: FaultOp::Enqueue,
                draws: 1,
                run: Box::new(|| one(co_enqueue(&q, &sec, &k, &nd, 0))),
            },
        ];

        let ops = [FaultOp::Upload, FaultOp::Readback, FaultOp::Enqueue, FaultOp::Build];
        let mut secondary_pieces_seen = 0;
        for row in &rows {
            let slots = arbiter.acquires.load(SeqCst);
            let drawn = ops.map(|op| faults.drawn(op));
            let probes = sec_faults.drawn(FaultOp::Enqueue);
            let seen = instants.len();
            let clock = q.now_ns();

            let events = (row.run)();

            let path = row.path;
            assert_eq!(arbiter.acquires.load(SeqCst) - slots, row.slots, "{path}: slots");
            assert_eq!(arbiter.releases.load(SeqCst), arbiter.acquires.load(SeqCst), "{path}");
            for (op, before) in ops.iter().zip(drawn) {
                let want = if *op == row.op { row.draws } else { 0 };
                assert_eq!(faults.drawn(*op) - before, want, "{path}: {op:?} draws");
            }
            // One probe per split whose secondary took its piece.
            let pieces = instants.events()[seen..]
                .iter()
                .filter(|e| e.kind == SpanKind::CoexecSplit)
                .flat_map(|e| &e.args)
                .filter(|(k, v)| k == "secondary_groups" && v != "0")
                .count() as u64;
            assert_eq!(sec_faults.drawn(FaultOp::Enqueue) - probes, pieces, "{path}: probes");
            secondary_pieces_seen += pieces;
            // The events tile the clock's advance exactly.
            let mut at = clock;
            for ev in &events {
                assert_eq!(ev.start_ns().to_bits(), at.to_bits(), "{path}: start");
                at = ev.end_ns();
            }
            assert_eq!(q.now_ns().to_bits(), at.to_bits(), "{path}: clock");
        }
        assert!(secondary_pieces_seen > 0, "the secondary took no piece");
        assert_eq!(sec.now_ns(), 0.0, "a pricing lane's clock never moves");
    }
}
