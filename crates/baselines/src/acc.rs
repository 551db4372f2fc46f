//! An OpenACC-style pragma engine over mini-C sources (§3.3 of the paper).
//!
//! `#pragma acc parallel loop ...` lines annotate sequential `for` loops.
//! The engine *outlines* each annotated loop into a generated `__kernel`
//! (1-D over the annotated loop only — like the paper's observation that
//! the pragma abstraction cannot exploit a kernel's 2-D thread layout),
//! moves data according to the clauses (per region, no residency unless a
//! `data` region is used), and runs everything else sequentially through
//! [`crate::host_eval`].
//!
//! The engine deliberately reproduces the behaviours the paper reports for
//! PGI-compiled OpenACC:
//!
//! * **Sequential fallback** — a loop whose array writes are non-linear in
//!   the loop variable, or with unproven loop-carried dependences (absent
//!   an `independent` clause), compiles to a *one-work-item* kernel, "the
//!   compiler generates sequential code instead of parallel".
//! * **Naive reductions** — `reduction(op:var)` compiles to a two-stage
//!   scheme whose partials are combined serially on the host after an
//!   extra transfer (the Figure 3d penalty).
//! * **1-D mapping with gang/worker tuning** — `gang(n)`/`worker(n)`
//!   clauses choose the launch shape; without them defaults apply (the
//!   Mandelbrot/LUD findings).
//! * **Compile failure on function calls in compute regions** — the PGI
//!   compiler could not compile the document-ranking application at all;
//!   calling a user function inside an annotated loop returns
//!   [`AccError::CompileFail`].
//!
//! Supported pragmas:
//!
//! ```text
//! #pragma acc parallel loop [independent] [gang(N)] [worker(N)]
//!         [copy(a,b)] [copyin(a)] [copyout(a)] [reduction(min|max|+:var)]
//! #pragma acc data copy(a,...) copyin(...) copyout(...)   // on a loop
//! ```

use crate::host_eval::{ArrRef, EvalError, HArg, HVal, HostArray, HostEval, LoopHook, Scope};
use oclsim::minicl::ast::*;
use oclsim::minicl::pretty::{emit_expr, emit_unit};
use oclsim::minicl::token::Pos;
use oclsim::{
    Buffer, ClError, CommandQueue, Context, Device, DeviceType, Kernel, MemFlags, NdRange,
    Platform, ProfileSink, Program,
};
use std::collections::HashMap;

/// Errors from the pragma engine.
#[derive(Debug, Clone, PartialEq)]
pub enum AccError {
    /// The mini-C source failed to parse.
    Parse(String),
    /// The annotated code uses a construct the (modeled) compiler rejects —
    /// the paper's "PGI was not able to compile this code" case.
    CompileFail(String),
    /// Host evaluation failed (out-of-bounds, unknown name, ...).
    Eval(String),
    /// Device-side failure.
    Device(String),
}

impl std::fmt::Display for AccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccError::Parse(m) => write!(f, "acc parse error: {m}"),
            AccError::CompileFail(m) => write!(f, "acc compile failure: {m}"),
            AccError::Eval(m) => write!(f, "acc evaluation error: {m}"),
            AccError::Device(m) => write!(f, "acc device error: {m}"),
        }
    }
}

impl std::error::Error for AccError {}

impl From<ClError> for AccError {
    fn from(e: ClError) -> AccError {
        AccError::Device(e.to_string())
    }
}

/// Which device the engine targets (OpenACC `-ta=` flag, more or less).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccTarget {
    /// Device class (GPU for OpenACC, CPU for the OpenMP-ish fallback).
    pub device_type: DeviceType,
}

impl AccTarget {
    /// Target the first GPU.
    pub fn gpu() -> AccTarget {
        AccTarget {
            device_type: DeviceType::Gpu,
        }
    }

    /// Target the first CPU (the paper's OpenMP comparison point).
    pub fn cpu() -> AccTarget {
        AccTarget {
            device_type: DeviceType::Cpu,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Clauses {
    parallel: bool,
    data: bool,
    independent: bool,
    gang: Option<usize>,
    worker: Option<usize>,
    copy: Vec<String>,
    copyin: Vec<String>,
    copyout: Vec<String>,
    reduction: Option<(RedOp, String)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RedOp {
    Min,
    Max,
    Sum,
}

fn parse_clauses(text: &str) -> Option<Clauses> {
    let text = text.strip_prefix("acc")?.trim();
    let mut c = Clauses::default();
    let mut rest = text;
    // Leading directives.
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("parallel") {
            c.parallel = true;
            rest = r;
        } else if let Some(r) = rest.strip_prefix("kernels") {
            c.parallel = true;
            rest = r;
        } else if let Some(r) = rest.strip_prefix("loop") {
            rest = r;
        } else if let Some(r) = rest.strip_prefix("data") {
            c.data = true;
            rest = r;
        } else {
            break;
        }
    }
    // Clauses: word or word(args).
    let mut chars = rest.char_indices().peekable();
    while let Some((start, ch)) = chars.next() {
        if ch.is_whitespace() {
            continue;
        }
        let mut end = start + ch.len_utf8();
        while let Some(&(i, c2)) = chars.peek() {
            if c2.is_alphanumeric() || c2 == '_' {
                chars.next();
                end = i + c2.len_utf8();
            } else {
                break;
            }
        }
        let word = &rest[start..end];
        let mut args = String::new();
        if let Some(&(_, '(')) = chars.peek() {
            chars.next();
            let mut depth = 1;
            for (_, c2) in chars.by_ref() {
                if c2 == '(' {
                    depth += 1;
                } else if c2 == ')' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                args.push(c2);
            }
        }
        let names = |s: &str| -> Vec<String> {
            s.split(',')
                .map(|n| {
                    // `a[0:n*n]` array sections → just the name.
                    n.trim().split('[').next().unwrap_or("").trim().to_string()
                })
                .filter(|n| !n.is_empty())
                .collect()
        };
        match word {
            "independent" => c.independent = true,
            "gang" => c.gang = args.trim().parse().ok(),
            "worker" | "vector" => c.worker = args.trim().parse().ok(),
            "copy" => c.copy.extend(names(&args)),
            "copyin" => c.copyin.extend(names(&args)),
            "copyout" => c.copyout.extend(names(&args)),
            "present" => { /* arrays promised resident */ }
            "reduction" => {
                let mut parts = args.splitn(2, ':');
                let op = match parts.next().map(str::trim) {
                    Some("min") => RedOp::Min,
                    Some("max") => RedOp::Max,
                    Some("+") => RedOp::Sum,
                    _ => return Some(c), // unknown reduction op: ignore clause
                };
                if let Some(var) = parts.next() {
                    c.reduction = Some((op, var.trim().to_string()));
                }
            }
            _ => { /* unknown clauses are ignored, like a forgiving compiler */ }
        }
    }
    Some(c)
}

/// First source position inside a statement (used to associate pragmas).
fn stmt_pos(s: &Stmt) -> Option<Pos> {
    match s {
        Stmt::Decl { pos, .. }
        | Stmt::Assign { pos, .. }
        | Stmt::Return { pos, .. }
        | Stmt::Barrier { pos } => Some(*pos),
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => Some(cond.pos()),
        Stmt::For {
            init, cond, body, ..
        } => init
            .as_deref()
            .and_then(stmt_pos)
            .or_else(|| cond.as_ref().map(|c| c.pos()))
            .or_else(|| body.first().and_then(stmt_pos)),
        Stmt::ExprStmt(e) => Some(e.pos()),
        Stmt::Block(b) => b.first().and_then(stmt_pos),
    }
}

struct CachedKernel {
    kernel: Kernel,
    arrays: Vec<String>,
    scalars: Vec<String>,
    sequential: bool,
}

/// The engine: owns the parsed unit and the device-side state.
pub struct AccRunner {
    unit: Unit,
    device: Device,
    context: Context,
    queue: CommandQueue,
    profile: ProfileSink,
}

struct DevArray {
    buf: Buffer,
    host: ArrRef,
}

struct Hook<'r> {
    runner: &'r AccRunner,
    /// Arrays currently resident (inside a `data` region).
    resident: HashMap<String, DevArray>,
    kcache: HashMap<u32, CachedKernel>,
    fatal: Option<AccError>,
    /// Count of parallel kernel dispatches (observability for tests).
    dispatches: u64,
    sequential_fallbacks: u64,
}

impl AccRunner {
    /// Parse `src` and prepare an engine for `target`.
    pub fn new(src: &str, target: AccTarget, profile: ProfileSink) -> Result<AccRunner, AccError> {
        let unit = oclsim::minicl::parse(src).map_err(|e| AccError::Parse(e.to_string()))?;
        let device = Platform::default_device(target.device_type)
            .ok_or_else(|| AccError::Device(format!("no {} device", target.device_type)))?;
        let context = Context::new(std::slice::from_ref(&device))
            .map_err(|e| AccError::Device(e.to_string()))?;
        let queue =
            CommandQueue::new(&context, &device).map_err(|e| AccError::Device(e.to_string()))?;
        Ok(AccRunner {
            unit,
            device,
            context,
            queue,
            profile,
        })
    }

    /// Run the annotated host function `name` with `args`.
    ///
    /// Returns the number of parallel kernel dispatches performed (0 means
    /// everything fell back to sequential execution).
    pub fn run(&self, name: &str, args: &[HArg]) -> Result<AccReport, AccError> {
        let eval = HostEval::new(&self.unit);
        let mut hook = Hook {
            runner: self,
            resident: HashMap::new(),
            kcache: HashMap::new(),
            fatal: None,
            dispatches: 0,
            sequential_fallbacks: 0,
        };
        let result = eval.call_hooked(name, args, &mut hook);
        if let Some(f) = hook.fatal.take() {
            return Err(f);
        }
        result.map_err(|e| AccError::Eval(e.to_string()))?;
        Ok(AccReport {
            dispatches: hook.dispatches,
            sequential_fallbacks: hook.sequential_fallbacks,
        })
    }
}

/// What the engine did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccReport {
    /// Parallel kernel dispatches (including reduction stage-1 kernels).
    pub dispatches: u64,
    /// Annotated loops that compiled to sequential device code.
    pub sequential_fallbacks: u64,
}

impl<'r> LoopHook for Hook<'r> {
    fn on_for(
        &mut self,
        stmt: &Stmt,
        scope: &mut Scope,
        eval: &HostEval<'_>,
    ) -> Result<bool, EvalError> {
        let pos = match stmt_pos(stmt) {
            Some(p) => p,
            None => return Ok(false),
        };
        let clauses = self
            .runner
            .unit
            .pragmas
            .iter()
            .filter(|(line, _)| *line < pos.line && pos.line - *line <= 2)
            .filter_map(|(_, text)| parse_clauses(text))
            .next();
        let clauses = match clauses {
            Some(c) => c,
            None => return Ok(false),
        };
        if clauses.data {
            return self.data_region(stmt, &clauses, scope, eval, pos);
        }
        if !clauses.parallel {
            return Ok(false);
        }
        match self.parallel_loop(stmt, &clauses, scope, pos) {
            Ok(()) => Ok(true),
            Err(e) => {
                self.fatal = Some(e);
                Err(EvalError {
                    message: "acc engine aborted".to_string(),
                    pos,
                })
            }
        }
    }
}

impl<'r> Hook<'r> {
    fn data_region(
        &mut self,
        stmt: &Stmt,
        clauses: &Clauses,
        scope: &mut Scope,
        eval: &HostEval<'_>,
        pos: Pos,
    ) -> Result<bool, EvalError> {
        // Upload copy + copyin arrays once for the whole region.
        let upload: Vec<&String> = clauses.copy.iter().chain(&clauses.copyin).collect();
        for name in upload {
            if self.resident.contains_key(name) {
                continue;
            }
            let host = scope.array(name).ok_or_else(|| EvalError {
                message: format!("data clause names unknown array `{name}`"),
                pos,
            })?;
            match self.upload(name, &host) {
                Ok(d) => {
                    self.resident.insert(name.clone(), d);
                }
                Err(e) => {
                    self.fatal = Some(e);
                    return Err(EvalError {
                        message: "acc engine aborted".to_string(),
                        pos,
                    });
                }
            }
        }
        // Run the loop body sequentially on the host; inner annotated loops
        // re-enter this hook and find the arrays resident.
        eval.exec_stmt_sequential_for(stmt, scope, self)?;
        // Download copy + copyout arrays and drop residency.
        let download: Vec<String> = clauses
            .copy
            .iter()
            .chain(&clauses.copyout)
            .cloned()
            .collect();
        for name in download {
            if let Some(d) = self.resident.remove(&name) {
                if let Err(e) = self.download(&d) {
                    self.fatal = Some(e);
                    return Err(EvalError {
                        message: "acc engine aborted".to_string(),
                        pos,
                    });
                }
                self.runner.context.release_bytes(d.buf.len());
            }
        }
        // Anything still resident from this region (copyin-only) is freed.
        Ok(true)
    }

    fn upload(&self, _name: &str, host: &ArrRef) -> Result<DevArray, AccError> {
        let data = host.borrow();
        let buf = self
            .runner
            .context
            .create_buffer(MemFlags::ReadWrite, data.len() * 4)?;
        let ev = match &*data {
            HostArray::F32(v) => self.runner.queue.write_f32(&buf, v),
            HostArray::I32(v) => self.runner.queue.write_i32(&buf, v),
        }?;
        self.runner
            .profile
            .record_command(&ev, self.runner.queue.device().name());
        Ok(DevArray {
            buf,
            host: ArrRef::clone(host),
        })
    }

    fn download(&self, d: &DevArray) -> Result<(), AccError> {
        let mut bytes = vec![0u8; d.buf.len()];
        let ev = self.runner.queue.enqueue_read_buffer(&d.buf, &mut bytes)?;
        self.runner
            .profile
            .record_command(&ev, self.runner.queue.device().name());
        let mut host = d.host.borrow_mut();
        match &mut *host {
            HostArray::F32(v) => *v = oclsim::hostmem::bytes_to_f32(&bytes),
            HostArray::I32(v) => *v = oclsim::hostmem::bytes_to_i32(&bytes),
        }
        Ok(())
    }

    fn parallel_loop(
        &mut self,
        stmt: &Stmt,
        clauses: &Clauses,
        scope: &mut Scope,
        pos: Pos,
    ) -> Result<(), AccError> {
        let (var, lo_expr, hi_expr, body) = canonical_loop(stmt).ok_or_else(|| {
            AccError::CompileFail(format!(
                "{pos}: loop is not in canonical `for (int i = lo; i < hi; i++)` form"
            ))
        })?;

        // The modeled PGI limitation: calls to user functions inside a
        // compute region abort compilation (the document-ranking case).
        if let Some(call) = find_user_call(&body, &self.runner.unit) {
            return Err(AccError::CompileFail(format!(
                "{pos}: call to `{call}` in compute region (user functions cannot be inlined)"
            )));
        }

        let eval = HostEval::new(&self.runner.unit);
        let lo = eval_scalar(&eval, &lo_expr, scope, pos)?.as_i();
        let hi = eval_scalar(&eval, &hi_expr, scope, pos)?.as_i();
        if hi <= lo {
            return Ok(()); // empty loop
        }
        let n = (hi - lo) as usize;

        // Free variables.
        let mut names = Vec::new();
        collect_names(&body, &mut names);
        names.sort();
        names.dedup();
        let mut arrays = Vec::new();
        let mut scalars = Vec::new();
        for name in &names {
            if name == &var {
                continue;
            }
            if scope.array(name).is_some() {
                arrays.push(name.clone());
            } else if scope.scalar(name).is_some() {
                scalars.push(name.clone());
            }
            // Names bound inside the body shadow nothing here: decls inside
            // the body are kernel-local and naturally not in scope.
        }

        if let Some((op, red_var)) = &clauses.reduction {
            return self.reduction_loop(
                &var, lo, hi, &body, *op, red_var, &arrays, &scalars, clauses, scope, pos,
            );
        }

        // Dependence analysis.
        let sequential = !self.parallelizable(&var, &body, &arrays, clauses);
        if sequential {
            self.sequential_fallbacks += 1;
        }

        let (kernel, k_arrays, k_scalars, k_sequential) = {
            let c =
                self.compile_loop(pos.line, &var, &body, &arrays, &scalars, scope, sequential)?;
            (
                c.kernel.clone(),
                c.arrays.clone(),
                c.scalars.clone(),
                c.sequential,
            )
        };

        // Data movement (per region, unless resident): copy semantics by
        // default, narrowed by clauses.
        let explicit: Vec<&String> = clauses
            .copy
            .iter()
            .chain(&clauses.copyin)
            .chain(&clauses.copyout)
            .collect();
        let mut temp_dev: Vec<(String, DevArray, bool)> = Vec::new(); // (name, dev, download?)
        for name in &k_arrays {
            if self.resident.contains_key(name) {
                continue;
            }
            let host = scope
                .array(name)
                .ok_or_else(|| AccError::Eval(format!("unknown array `{name}`")))?;
            let upload_needed = !explicit.contains(&name)
                || clauses.copy.contains(name)
                || clauses.copyin.contains(name);
            let download_needed = !explicit.contains(&name)
                || clauses.copy.contains(name)
                || clauses.copyout.contains(name);
            let dev = if upload_needed {
                self.upload(name, &host)?
            } else {
                // copyout-only: allocate without meaningful upload.
                let bytes = host.borrow().len() * 4;
                let buf = self
                    .runner
                    .context
                    .create_buffer(MemFlags::ReadWrite, bytes)?;
                DevArray {
                    buf,
                    host: ArrRef::clone(&host),
                }
            };
            temp_dev.push((name.clone(), dev, download_needed));
        }

        // Launch shape: 1-D over the annotated loop (the engine never uses
        // the 2-D layout — the paper's Mandelbrot finding).
        let (global, local) = if k_sequential {
            (1, 1)
        } else {
            let worker = clauses
                .worker
                .unwrap_or(64)
                .min(self.runner.device.max_work_group_size())
                .max(1);
            let global = n.div_ceil(worker) * worker;
            (global, worker)
        };

        // Bind args: arrays, scalars, lo, hi.
        let k = &kernel;
        let mut arg = 0usize;
        for name in &k_arrays {
            let buf = if let Some(d) = self.resident.get(name) {
                &d.buf
            } else {
                &temp_dev
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .expect("uploaded above")
                    .1
                    .buf
            };
            k.set_arg_buffer(arg, buf)?;
            arg += 1;
        }
        for name in &k_scalars {
            let v = scope
                .scalar(name)
                .ok_or_else(|| AccError::Eval(format!("unknown scalar `{name}`")))?;
            match v {
                HVal::I(x) => k.set_arg_i32(arg, x as i32)?,
                HVal::F(x) => k.set_arg_f32(arg, x as f32)?,
            }
            arg += 1;
        }
        k.set_arg_i32(arg, lo as i32)?;
        k.set_arg_i32(arg + 1, hi as i32)?;

        let ev = self
            .runner
            .queue
            .enqueue_nd_range(k, &NdRange::d1(global, local))?;
        self.runner
            .profile
            .record_command(&ev, self.runner.queue.device().name());
        self.dispatches += 1;

        // Downloads + cleanup.
        for (_, dev, download) in &temp_dev {
            if *download {
                self.download(dev)?;
            }
            self.runner.context.release_bytes(dev.buf.len());
        }
        Ok(())
    }

    fn parallelizable(
        &self,
        var: &str,
        body: &[Stmt],
        arrays: &[String],
        clauses: &Clauses,
    ) -> bool {
        let mut writes: Vec<(String, String)> = Vec::new(); // (array, index src)
        let mut nonlinear = false;
        collect_writes(body, &mut writes, &mut nonlinear, var);
        if nonlinear {
            return false;
        }
        if clauses.independent {
            return true;
        }
        // Loop-carried dependence heuristic: an array that is both written
        // and read at a differently-shaped index is unproven.
        let mut reads: Vec<(String, String)> = Vec::new();
        collect_reads(body, &mut reads);
        for a in arrays {
            let w: Vec<&String> = writes
                .iter()
                .filter(|(n, _)| n == a)
                .map(|(_, i)| i)
                .collect();
            if w.is_empty() {
                continue;
            }
            for (rn, ri) in &reads {
                if rn == a && !w.contains(&ri) {
                    return false;
                }
            }
            // A scalar accumulator written inside the loop (without a
            // reduction clause) is handled as nonlinear by collect_writes.
        }
        // Writes whose index does not involve the loop variable at all are
        // racy across items.
        for (_, idx) in &writes {
            if !idx.contains(var) {
                return false;
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_loop(
        &mut self,
        line: u32,
        var: &str,
        body: &[Stmt],
        arrays: &[String],
        scalars: &[String],
        scope: &Scope,
        sequential: bool,
    ) -> Result<&CachedKernel, AccError> {
        if !self.kcache.contains_key(&line) {
            let pos = Pos { line, col: 1 };
            let mut params = Vec::new();
            for a in arrays {
                let elem = match &*scope.array(a).expect("checked").borrow() {
                    HostArray::F32(_) => Type::Float,
                    HostArray::I32(_) => Type::Int,
                };
                params.push(Param {
                    name: a.clone(),
                    ty: Type::Ptr(Space::Global, Box::new(elem)),
                    is_const: false,
                    pos,
                });
            }
            for s in scalars {
                let ty = match scope.scalar(s).expect("checked") {
                    HVal::I(_) => Type::Int,
                    HVal::F(_) => Type::Float,
                };
                params.push(Param {
                    name: s.clone(),
                    ty,
                    is_const: true,
                    pos,
                });
            }
            for extra in ["__acc_lo", "__acc_hi"] {
                params.push(Param {
                    name: extra.to_string(),
                    ty: Type::Int,
                    is_const: true,
                    pos,
                });
            }
            let kbody = if sequential {
                // One work-item runs the entire loop serially.
                vec![Stmt::For {
                    init: Some(Box::new(Stmt::Decl {
                        name: var.to_string(),
                        ty: Type::Int,
                        space: Space::Private,
                        array_len: None,
                        init: Some(Expr::Var("__acc_lo".into(), pos)),
                        pos,
                    })),
                    cond: Some(Expr::Binary(
                        BinOp::Lt,
                        Box::new(Expr::Var(var.to_string(), pos)),
                        Box::new(Expr::Var("__acc_hi".into(), pos)),
                        pos,
                    )),
                    step: Some(Box::new(Stmt::Assign {
                        target: LValue::Var(var.to_string(), pos),
                        op: AssignOp::Add,
                        value: Expr::IntLit(1, pos),
                        pos,
                    })),
                    body: body.to_vec(),
                }]
            } else {
                vec![
                    Stmt::Decl {
                        name: var.to_string(),
                        ty: Type::Int,
                        space: Space::Private,
                        array_len: None,
                        init: Some(Expr::Binary(
                            BinOp::Add,
                            Box::new(Expr::Call(
                                "get_global_id".into(),
                                vec![Expr::IntLit(0, pos)],
                                pos,
                            )),
                            Box::new(Expr::Var("__acc_lo".into(), pos)),
                            pos,
                        )),
                        pos,
                    },
                    Stmt::If {
                        cond: Expr::Binary(
                            BinOp::Lt,
                            Box::new(Expr::Var(var.to_string(), pos)),
                            Box::new(Expr::Var("__acc_hi".into(), pos)),
                            pos,
                        ),
                        then_blk: body.to_vec(),
                        else_blk: vec![],
                    },
                ]
            };
            let kname = format!("__acc_loop_l{line}");
            let unit = Unit {
                funcs: vec![Func {
                    name: kname.clone(),
                    is_kernel: true,
                    ret: Type::Void,
                    params,
                    body: kbody,
                    pos,
                }],
                pragmas: vec![],
            };
            let src = emit_unit(&unit);
            let program = Program::build(&self.runner.context, &src).map_err(|e| {
                AccError::CompileFail(format!("generated kernel failed to build: {e}\n{src}"))
            })?;
            let kernel = program.create_kernel(&kname)?;
            self.kcache.insert(
                line,
                CachedKernel {
                    kernel,
                    arrays: arrays.to_vec(),
                    scalars: scalars.to_vec(),
                    sequential,
                },
            );
        }
        Ok(self.kcache.get(&line).expect("inserted"))
    }

    #[allow(clippy::too_many_arguments)]
    fn reduction_loop(
        &mut self,
        var: &str,
        lo: i64,
        hi: i64,
        body: &[Stmt],
        op: RedOp,
        red_var: &str,
        arrays: &[String],
        scalars: &[String],
        clauses: &Clauses,
        scope: &mut Scope,
        pos: Pos,
    ) -> Result<(), AccError> {
        // Supported body shapes:
        //   red = fmin(red, expr);   red = fmax(red, expr);
        //   red += expr;             red = red + expr;
        let expr = extract_reduction_expr(body, red_var, op).ok_or_else(|| {
            AccError::CompileFail(format!(
                "{pos}: reduction body is not a recognised `{red_var} = op({red_var}, e)` form"
            ))
        })?;

        const TEAMS: usize = 256;
        let n = (hi - lo) as usize;
        let chunk = n.div_ceil(TEAMS).max(1);

        // Stage-1 kernel: each team serially folds its chunk.
        let line = pos.line;
        if !self.kcache.contains_key(&line) {
            let mut params = Vec::new();
            for a in arrays {
                let elem = match &*scope.array(a).expect("checked").borrow() {
                    HostArray::F32(_) => Type::Float,
                    HostArray::I32(_) => Type::Int,
                };
                params.push(Param {
                    name: a.clone(),
                    ty: Type::Ptr(Space::Global, Box::new(elem)),
                    is_const: false,
                    pos,
                });
            }
            for s in scalars {
                if s == red_var {
                    continue;
                }
                let ty = match scope.scalar(s).expect("checked") {
                    HVal::I(_) => Type::Int,
                    HVal::F(_) => Type::Float,
                };
                params.push(Param {
                    name: s.clone(),
                    ty,
                    is_const: true,
                    pos,
                });
            }
            params.push(Param {
                name: "__acc_partial".into(),
                ty: Type::Ptr(Space::Global, Box::new(Type::Float)),
                is_const: false,
                pos,
            });
            for extra in ["__acc_lo", "__acc_hi", "__acc_chunk"] {
                params.push(Param {
                    name: extra.into(),
                    ty: Type::Int,
                    is_const: true,
                    pos,
                });
            }
            let identity = match op {
                RedOp::Min => 3.0e38,
                RedOp::Max => -3.0e38,
                RedOp::Sum => 0.0,
            };
            let fold = |acc: Expr, e: Expr| -> Expr {
                match op {
                    RedOp::Min => Expr::Call("fmin".into(), vec![acc, e], pos),
                    RedOp::Max => Expr::Call("fmax".into(), vec![acc, e], pos),
                    RedOp::Sum => Expr::Binary(BinOp::Add, Box::new(acc), Box::new(e), pos),
                }
            };
            let v = |n: &str| Expr::Var(n.to_string(), pos);
            let kbody = vec![
                Stmt::Decl {
                    name: "__t".into(),
                    ty: Type::Int,
                    space: Space::Private,
                    array_len: None,
                    init: Some(Expr::Call(
                        "get_global_id".into(),
                        vec![Expr::IntLit(0, pos)],
                        pos,
                    )),
                    pos,
                },
                Stmt::Decl {
                    name: "__acc".into(),
                    ty: Type::Float,
                    space: Space::Private,
                    array_len: None,
                    init: Some(Expr::FloatLit(identity, pos)),
                    pos,
                },
                Stmt::For {
                    init: Some(Box::new(Stmt::Decl {
                        name: var.to_string(),
                        ty: Type::Int,
                        space: Space::Private,
                        array_len: None,
                        init: Some(Expr::Binary(
                            BinOp::Add,
                            Box::new(v("__acc_lo")),
                            Box::new(Expr::Binary(
                                BinOp::Mul,
                                Box::new(v("__t")),
                                Box::new(v("__acc_chunk")),
                                pos,
                            )),
                            pos,
                        )),
                        pos,
                    })),
                    cond: Some(Expr::Binary(
                        BinOp::LAnd,
                        Box::new(Expr::Binary(
                            BinOp::Lt,
                            Box::new(v(var)),
                            Box::new(Expr::Binary(
                                BinOp::Add,
                                Box::new(v("__acc_lo")),
                                Box::new(Expr::Binary(
                                    BinOp::Mul,
                                    Box::new(Expr::Binary(
                                        BinOp::Add,
                                        Box::new(v("__t")),
                                        Box::new(Expr::IntLit(1, pos)),
                                        pos,
                                    )),
                                    Box::new(v("__acc_chunk")),
                                    pos,
                                )),
                                pos,
                            )),
                            pos,
                        )),
                        Box::new(Expr::Binary(
                            BinOp::Lt,
                            Box::new(v(var)),
                            Box::new(v("__acc_hi")),
                            pos,
                        )),
                        pos,
                    )),
                    step: Some(Box::new(Stmt::Assign {
                        target: LValue::Var(var.to_string(), pos),
                        op: AssignOp::Add,
                        value: Expr::IntLit(1, pos),
                        pos,
                    })),
                    body: vec![Stmt::Assign {
                        target: LValue::Var("__acc".into(), pos),
                        op: AssignOp::Set,
                        value: fold(v("__acc"), expr.clone()),
                        pos,
                    }],
                },
                Stmt::Assign {
                    target: LValue::Index("__acc_partial".into(), v("__t"), pos),
                    op: AssignOp::Set,
                    value: v("__acc"),
                    pos,
                },
            ];
            let kname = format!("__acc_red_l{line}");
            let unit = Unit {
                funcs: vec![Func {
                    name: kname.clone(),
                    is_kernel: true,
                    ret: Type::Void,
                    params,
                    body: kbody,
                    pos,
                }],
                pragmas: vec![],
            };
            let src = emit_unit(&unit);
            let program = Program::build(&self.runner.context, &src).map_err(|e| {
                AccError::CompileFail(format!("generated reduction kernel failed: {e}\n{src}"))
            })?;
            let kernel = program.create_kernel(&kname)?;
            self.kcache.insert(
                line,
                CachedKernel {
                    kernel,
                    arrays: arrays.to_vec(),
                    scalars: scalars.iter().filter(|s| *s != red_var).cloned().collect(),
                    sequential: false,
                },
            );
        }

        // Upload arrays (per region; same clause rules as the plain path).
        let mut temp_dev: Vec<DevArray> = Vec::new();
        let cached = self.kcache.get(&line).expect("inserted");
        let mut arg = 0usize;
        let arrays_c = cached.arrays.clone();
        let scalars_c = cached.scalars.clone();
        let kernel = cached.kernel.clone();
        for name in &arrays_c {
            if let Some(d) = self.resident.get(name) {
                kernel.set_arg_buffer(arg, &d.buf)?;
            } else {
                let host = scope
                    .array(name)
                    .ok_or_else(|| AccError::Eval(format!("unknown array `{name}`")))?;
                let dev = self.upload(name, &host)?;
                kernel.set_arg_buffer(arg, &dev.buf)?;
                temp_dev.push(dev);
            }
            arg += 1;
        }
        for name in &scalars_c {
            match scope.scalar(name).expect("checked") {
                HVal::I(x) => kernel.set_arg_i32(arg, x as i32)?,
                HVal::F(x) => kernel.set_arg_f32(arg, x as f32)?,
            }
            arg += 1;
        }
        let partial = self
            .runner
            .context
            .create_buffer(MemFlags::ReadWrite, TEAMS * 4)?;
        kernel.set_arg_buffer(arg, &partial)?;
        kernel.set_arg_i32(arg + 1, lo as i32)?;
        kernel.set_arg_i32(arg + 2, hi as i32)?;
        kernel.set_arg_i32(arg + 3, chunk as i32)?;

        // PGI-style gang-only reduction mapping: one item per gang unless
        // the programmer supplied worker(); each gang occupies one lane.
        // The group size must divide TEAMS exactly — otherwise the rounded
        // global range would spawn items past the partial buffer.
        let mut local = clauses.worker.unwrap_or(1).clamp(1, TEAMS);
        while !TEAMS.is_multiple_of(local) {
            local -= 1;
        }
        let ev = self
            .runner
            .queue
            .enqueue_nd_range(&kernel, &NdRange::d1(TEAMS, local))?;
        self.runner
            .profile
            .record_command(&ev, self.runner.queue.device().name());
        self.dispatches += 1;

        // Stage 2: the naive part — download partials, combine serially on
        // the host (extra transfer + serial work = the paper's Figure 3d
        // penalty).
        let (partials, ev) = self.runner.queue.read_f32(&partial)?;
        self.runner
            .profile
            .record_command(&ev, self.runner.queue.device().name());
        let current = scope
            .scalar(red_var)
            .ok_or_else(|| AccError::Eval(format!("unknown reduction variable `{red_var}`")))?;
        let mut acc = current.as_f();
        for p in partials {
            acc = match op {
                RedOp::Min => acc.min(p as f64),
                RedOp::Max => acc.max(p as f64),
                RedOp::Sum => acc + p as f64,
            };
        }
        scope.set_scalar(red_var, HVal::F(acc));
        for dev in temp_dev {
            self.runner.context.release_bytes(dev.buf.len());
        }
        self.runner.context.release_bytes(partial.len());
        Ok(())
    }
}

fn eval_scalar(
    eval: &HostEval<'_>,
    e: &Expr,
    scope: &mut Scope,
    pos: Pos,
) -> Result<HVal, AccError> {
    eval.eval_expr(e, scope)
        .map_err(|err| AccError::Eval(format!("{pos}: bound expression: {err}")))
}

/// Match `for (int i = lo; i < hi; i++)`.
fn canonical_loop(stmt: &Stmt) -> Option<(String, Expr, Expr, Vec<Stmt>)> {
    let Stmt::For {
        init: Some(init),
        cond: Some(cond),
        step: Some(step),
        body,
    } = stmt
    else {
        return None;
    };
    let (var, lo) = match init.as_ref() {
        Stmt::Decl {
            name,
            init: Some(e),
            array_len: None,
            ..
        } => (name.clone(), e.clone()),
        Stmt::Assign {
            target: LValue::Var(name, _),
            op: AssignOp::Set,
            value,
            ..
        } => (name.clone(), value.clone()),
        _ => return None,
    };
    let hi = match cond {
        Expr::Binary(BinOp::Lt, l, r, _) => match l.as_ref() {
            Expr::Var(n, _) if *n == var => (**r).clone(),
            _ => return None,
        },
        _ => return None,
    };
    let ok_step = match step.as_ref() {
        Stmt::Assign {
            target: LValue::Var(n, _),
            op: AssignOp::Add,
            value: Expr::IntLit(1, _),
            ..
        } => *n == var,
        _ => false,
    };
    if !ok_step {
        return None;
    }
    Some((var, lo, hi, body.clone()))
}

fn collect_names(body: &[Stmt], out: &mut Vec<String>) {
    fn expr_names(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Var(n, _) => out.push(n.clone()),
            Expr::Unary(_, a, _) | Expr::Cast(_, a, _) | Expr::Comp(a, _, _) => expr_names(a, out),
            Expr::Binary(_, a, b, _) | Expr::Index(a, b, _) => {
                expr_names(a, out);
                expr_names(b, out);
            }
            Expr::Ternary(a, b, c, _) => {
                expr_names(a, out);
                expr_names(b, out);
                expr_names(c, out);
            }
            Expr::Call(_, args, _) | Expr::MakeF4(args, _) => {
                for a in args {
                    expr_names(a, out);
                }
            }
            _ => {}
        }
    }
    for s in body {
        match s {
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    expr_names(e, out);
                }
            }
            Stmt::Assign { target, value, .. } => {
                match target {
                    LValue::Var(n, _) => out.push(n.clone()),
                    LValue::Index(n, idx, _) => {
                        out.push(n.clone());
                        expr_names(idx, out);
                    }
                    LValue::Comp(n, _, _) => out.push(n.clone()),
                }
                expr_names(value, out);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                expr_names(cond, out);
                collect_names(then_blk, out);
                collect_names(else_blk, out);
            }
            Stmt::While { cond, body } => {
                expr_names(cond, out);
                collect_names(body, out);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    collect_names(std::slice::from_ref(i), out);
                }
                if let Some(c) = cond {
                    expr_names(c, out);
                }
                if let Some(st) = step {
                    collect_names(std::slice::from_ref(st), out);
                }
                collect_names(body, out);
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    expr_names(v, out);
                }
            }
            Stmt::ExprStmt(e) => expr_names(e, out),
            Stmt::Block(b) => collect_names(b, out),
            Stmt::Barrier { .. } => {}
        }
    }
    // Remove names declared inside the body: they are loop-local.
    let mut declared = Vec::new();
    collect_decls(body, &mut declared);
    out.retain(|n| !declared.contains(n));
}

fn collect_decls(body: &[Stmt], out: &mut Vec<String>) {
    for s in body {
        match s {
            Stmt::Decl { name, .. } => out.push(name.clone()),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_decls(then_blk, out);
                collect_decls(else_blk, out);
            }
            Stmt::While { body, .. } => collect_decls(body, out),
            Stmt::For { init, body, .. } => {
                if let Some(i) = init {
                    collect_decls(std::slice::from_ref(i), out);
                }
                collect_decls(body, out);
            }
            Stmt::Block(b) => collect_decls(b, out),
            _ => {}
        }
    }
}

/// Gather `(array, index-source)` pairs for every array write; flags
/// non-linear indices and writes to outer scalars as `nonlinear`.
fn collect_writes(body: &[Stmt], out: &mut Vec<(String, String)>, nonlinear: &mut bool, var: &str) {
    let mut declared = Vec::new();
    collect_decls(body, &mut declared);
    collect_writes_inner(body, out, nonlinear, var, &mut declared);
}

fn collect_writes_inner(
    body: &[Stmt],
    out: &mut Vec<(String, String)>,
    nonlinear: &mut bool,
    var: &str,
    declared: &mut Vec<String>,
) {
    for s in body {
        match s {
            Stmt::Assign { target, .. } => match target {
                LValue::Index(name, idx, _) => {
                    if !is_linear_in(idx, var) {
                        *nonlinear = true;
                    }
                    out.push((name.clone(), emit_expr(idx)));
                }
                LValue::Var(name, _) => {
                    // Writing an outer scalar inside a parallel loop is a
                    // race unless it is loop-local.
                    if !declared.contains(name) && name != var {
                        *nonlinear = true;
                    }
                }
                LValue::Comp(..) => {}
            },
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_writes_inner(then_blk, out, nonlinear, var, declared);
                collect_writes_inner(else_blk, out, nonlinear, var, declared);
            }
            Stmt::While { body, .. } => collect_writes_inner(body, out, nonlinear, var, declared),
            Stmt::For {
                init, body, step, ..
            } => {
                if let Some(i) = init {
                    if let Stmt::Decl { name, .. } = i.as_ref() {
                        declared.push(name.clone());
                    }
                }
                let _ = step;
                collect_writes_inner(body, out, nonlinear, var, declared);
            }
            Stmt::Block(b) => collect_writes_inner(b, out, nonlinear, var, declared),
            _ => {}
        }
    }
}

fn collect_reads(body: &[Stmt], out: &mut Vec<(String, String)>) {
    fn expr_reads(e: &Expr, out: &mut Vec<(String, String)>) {
        match e {
            Expr::Index(base, idx, _) => {
                if let Expr::Var(n, _) = base.as_ref() {
                    out.push((n.clone(), emit_expr(idx)));
                }
                expr_reads(idx, out);
            }
            Expr::Unary(_, a, _) | Expr::Cast(_, a, _) | Expr::Comp(a, _, _) => expr_reads(a, out),
            Expr::Binary(_, a, b, _) => {
                expr_reads(a, out);
                expr_reads(b, out);
            }
            Expr::Ternary(a, b, c, _) => {
                expr_reads(a, out);
                expr_reads(b, out);
                expr_reads(c, out);
            }
            Expr::Call(_, args, _) | Expr::MakeF4(args, _) => {
                for a in args {
                    expr_reads(a, out);
                }
            }
            _ => {}
        }
    }
    for s in body {
        match s {
            Stmt::Decl { init: Some(e), .. } => expr_reads(e, out),
            Stmt::Assign { target, value, .. } => {
                if let LValue::Index(_, idx, _) = target {
                    expr_reads(idx, out);
                }
                expr_reads(value, out);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                expr_reads(cond, out);
                collect_reads(then_blk, out);
                collect_reads(else_blk, out);
            }
            Stmt::While { cond, body } => {
                expr_reads(cond, out);
                collect_reads(body, out);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    collect_reads(std::slice::from_ref(i), out);
                }
                if let Some(c) = cond {
                    expr_reads(c, out);
                }
                if let Some(st) = step {
                    collect_reads(std::slice::from_ref(st), out);
                }
                collect_reads(body, out);
            }
            Stmt::Return { value: Some(v), .. } => expr_reads(v, out),
            Stmt::ExprStmt(e) => expr_reads(e, out),
            Stmt::Block(b) => collect_reads(b, out),
            _ => {}
        }
    }
}

/// Is `e` of the form `a*i + b` with `a`, `b` free of `var`?
fn is_linear_in(e: &Expr, var: &str) -> bool {
    fn contains(e: &Expr, var: &str) -> bool {
        match e {
            Expr::Var(n, _) => n == var,
            Expr::Unary(_, a, _) | Expr::Cast(_, a, _) | Expr::Comp(a, _, _) => contains(a, var),
            Expr::Binary(_, a, b, _) | Expr::Index(a, b, _) => contains(a, var) || contains(b, var),
            Expr::Ternary(a, b, c, _) => contains(a, var) || contains(b, var) || contains(c, var),
            Expr::Call(_, args, _) | Expr::MakeF4(args, _) => args.iter().any(|a| contains(a, var)),
            _ => false,
        }
    }
    match e {
        _ if !contains(e, var) => true,
        Expr::Var(n, _) => n == var,
        Expr::Binary(BinOp::Add | BinOp::Sub, a, b, _) => {
            is_linear_in(a, var) && is_linear_in(b, var)
        }
        Expr::Binary(BinOp::Mul, a, b, _) => {
            (!contains(a, var) && is_linear_in(b, var))
                || (!contains(b, var) && is_linear_in(a, var))
        }
        Expr::Cast(_, a, _) => is_linear_in(a, var),
        _ => false,
    }
}

/// Find a call to a user-defined (non-builtin) function in the body.
fn find_user_call(body: &[Stmt], unit: &Unit) -> Option<String> {
    let user: Vec<&str> = unit.funcs.iter().map(|f| f.name.as_str()).collect();
    let mut found = None;
    fn walk_expr(e: &Expr, user: &[&str], found: &mut Option<String>) {
        match e {
            Expr::Call(name, args, _) => {
                if user.contains(&name.as_str()) {
                    *found = Some(name.clone());
                }
                for a in args {
                    walk_expr(a, user, found);
                }
            }
            Expr::Unary(_, a, _) | Expr::Cast(_, a, _) | Expr::Comp(a, _, _) => {
                walk_expr(a, user, found)
            }
            Expr::Binary(_, a, b, _) | Expr::Index(a, b, _) => {
                walk_expr(a, user, found);
                walk_expr(b, user, found);
            }
            Expr::Ternary(a, b, c, _) => {
                walk_expr(a, user, found);
                walk_expr(b, user, found);
                walk_expr(c, user, found);
            }
            Expr::MakeF4(args, _) => {
                for a in args {
                    walk_expr(a, user, found);
                }
            }
            _ => {}
        }
    }
    fn walk(body: &[Stmt], user: &[&str], found: &mut Option<String>) {
        for s in body {
            match s {
                Stmt::Decl { init: Some(e), .. } => walk_expr(e, user, found),
                Stmt::Assign { target, value, .. } => {
                    if let LValue::Index(_, idx, _) = target {
                        walk_expr(idx, user, found);
                    }
                    walk_expr(value, user, found);
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    walk_expr(cond, user, found);
                    walk(then_blk, user, found);
                    walk(else_blk, user, found);
                }
                Stmt::While { cond, body } => {
                    walk_expr(cond, user, found);
                    walk(body, user, found);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                } => {
                    if let Some(i) = init {
                        walk(std::slice::from_ref(i), user, found);
                    }
                    if let Some(c) = cond {
                        walk_expr(c, user, found);
                    }
                    if let Some(st) = step {
                        walk(std::slice::from_ref(st), user, found);
                    }
                    walk(body, user, found);
                }
                Stmt::Return { value: Some(v), .. } => walk_expr(v, user, found),
                Stmt::ExprStmt(e) => walk_expr(e, user, found),
                Stmt::Block(b) => walk(b, user, found),
                _ => {}
            }
            if found.is_some() {
                return;
            }
        }
    }
    walk(body, &user, &mut found);
    found
}

/// Recognise `red = fmin(red, e)` / `fmax` / `red += e` / `red = red + e`.
fn extract_reduction_expr(body: &[Stmt], red_var: &str, op: RedOp) -> Option<Expr> {
    if body.len() != 1 {
        return None;
    }
    let Stmt::Assign {
        target,
        op: aop,
        value,
        ..
    } = &body[0]
    else {
        return None;
    };
    let LValue::Var(name, _) = target else {
        return None;
    };
    if name != red_var {
        return None;
    }
    match (op, aop, value) {
        (RedOp::Sum, AssignOp::Add, e) => Some(e.clone()),
        (RedOp::Sum, AssignOp::Set, Expr::Binary(BinOp::Add, a, b, _)) => {
            if matches!(a.as_ref(), Expr::Var(n, _) if n == red_var) {
                Some((**b).clone())
            } else if matches!(b.as_ref(), Expr::Var(n, _) if n == red_var) {
                Some((**a).clone())
            } else {
                None
            }
        }
        (RedOp::Min, AssignOp::Set, Expr::Call(f, args, _)) if f == "fmin" && args.len() == 2 => {
            if matches!(&args[0], Expr::Var(n, _) if n == red_var) {
                Some(args[1].clone())
            } else {
                None
            }
        }
        (RedOp::Max, AssignOp::Set, Expr::Call(f, args, _)) if f == "fmax" && args.len() == 2 => {
            if matches!(&args[0], Expr::Var(n, _) if n == red_var) {
                Some(args[1].clone())
            } else {
                None
            }
        }
        _ => None,
    }
}
