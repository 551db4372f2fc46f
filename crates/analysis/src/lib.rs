//! Static analysis suite for mini-Ensemble (the paper's compile-time
//! checking story, §6): kernel race and bounds checking, `mov`
//! residency verification, and actor-topology lints, all reporting
//! through [`ensemble_lang::Diagnostic`].
//!
//! The passes run between parse and codegen:
//!
//! | code | pass | meaning |
//! |------|------|---------|
//! | `E001` | race | two work-items may write the same output location |
//! | `E002` | race | a work-item reads another work-item's output slot |
//! | `E003` | bounds | an index provably exceeds the array's extent |
//! | `E004` | mov | a `mov` value is used after being sent away |
//! | `E005` | topology | a channel is used but never connected |
//! | `E006` | topology | a rendezvous cycle where every actor receives first |
//! | `E007` | topology | `connect` direction or element-type mismatch |
//! | `W001` | topology | an interface port no actor uses |
//! | `W002` | mov | residency not provable (consumers on different devices) |
//! | `W003` | proofs | an NDRange dimension is not provably splittable |
//! | `W004` | proofs | a data hazard blocks merging two chained dispatches |
//! | `W005` | proofs | a sent payload is mutated after the send (CoW unsafe) |
//!
//! [`compile_source`] is the deny-by-default gate: errors reject the
//! program before codegen, warnings pass through. Escapes: pass codes
//! in [`Options::allow`] (the CLI's `--allow E001`), or annotate the
//! offending line — or the line above it — with `// allow(E001)`.
//!
//! Beyond the lints, the suite is a *proof engine*: every analysis also
//! produces positive, machine-checkable facts — a
//! [`ensemble_lang::SplitProof`] per kernel (which NDRange dimensions
//! can be cut across devices), a [`ensemble_lang::FusionProof`] per
//! host dispatch chain (which enqueues can batch, which adjacent pairs
//! could merge), and a [`ensemble_lang::SendProof`] per payload send
//! (the copy-on-write precondition). The proofs land in
//! [`Report::proofs`], are threaded into the [`CompiledModule`], and
//! surface at runtime as `proof_splittable` / `proof_fusable` trace
//! instants. W003/W004/W005 are the *negative space* of those proofs
//! and are only emitted when [`Options::proofs`] is set (the CLI's
//! `--proofs`); the shipped applications legitimately contain, e.g.,
//! RAW-hazard chains, which are findings about co-execution headroom,
//! not defects.
//!
//! The `mov` pass also *proves* residency: when every kernel consumer
//! of a `mov` struct type runs on one device, the consumers' names are
//! fed into [`ensemble_lang::CompileOptions::residency_proven`] and the
//! VM skips its runtime cross-context residency bookkeeping for them
//! (visible as a `residency_proven` trace instant).
//!
//! ```
//! let src = r#"
//!     type I is interface(out integer output)
//!     stage main {
//!         actor a presents I {
//!             behaviour { send 1 on output; stop; }
//!         }
//!         boot { x = new a(); }
//!     }
//! "#;
//! // `output` is used but never connected: E005.
//! let report = ensemble_analysis::analyze_source(src, &Default::default()).unwrap();
//! assert_eq!(report.diagnostics[0].code, "E005");
//! ```

use ensemble_lang::ast::{Module, TypeExpr};
use ensemble_lang::diag::{codes, Diagnostic, Severity};
use ensemble_lang::{compile_source_gated, CompileOptions, KernelProof, ParseError, ProofSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};

mod effects;
mod fusion;
mod host;
mod kernel;
mod model;
mod shadow;
mod split;

// What `compile_source` returns, nameable by callers (the serving layer's
// module cache) that depend on this crate but not on `ensemble-lang`.
pub use ensemble_lang::{CompiledModule, GateError};
pub use shadow::{shadow_validate, DispatchConfig, Refutation, ShadowConfig};

use host::{ActorSummary, ChanRef, HostWalk, SettingsCon};
use kernel::{HostFacts, KernelCheck};
use model::DataModel;

/// Analysis options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Diagnostic codes suppressed globally (the CLI's `--allow E001`).
    pub allow: BTreeSet<String>,
    /// Emit the proof-engine findings (W003/W004/W005). Proof *objects*
    /// are always computed; this only controls whether their negative
    /// space is reported as diagnostics.
    pub proofs: bool,
}

/// The result of analysing a module.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings after allow-filtering, ordered by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// Kernel-actor names whose `mov` data provably stays on one device.
    pub residency_proven: BTreeSet<String>,
    /// The proof objects: splittability per kernel, fusion per dispatch
    /// chain, send effects per payload.
    pub proofs: ProofSet,
    /// Per-kernel proof bundle, keyed by kernel-actor name, in the
    /// shape the compiler embeds into each [`ensemble_lang::KernelPlan`].
    pub kernel_proofs: BTreeMap<String, KernelProof>,
}

impl Report {
    /// Any error-severity findings left?
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> Vec<Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect()
    }
}

/// Parse and analyse a source string.
pub fn analyze_source(src: &str, opts: &Options) -> Result<Report, ParseError> {
    let module = ensemble_lang::parse(src)?;
    Ok(analyze(&module, src, opts))
}

/// Typed proof inventory for an already-parsed module: the per-kernel
/// bundle of splittability proof and chain role, keyed by kernel-actor
/// name. This is the front door for proof *consumers* — e.g. a
/// co-execution scheduler asking "which dimensions may I cut?" or a
/// dispatch batcher asking "is this kernel part of a fusable chain?" —
/// without threading a full [`Report`] around.
///
/// ```
/// use ensemble_lang::proof::DimClass;
///
/// let src = r#"
///     type data_t is struct ( mov real [] v )
///     type settings_t is opencl struct (
///         integer [] worksize;
///         integer [] groupsize;
///         in data_t input;
///         out data_t output
///     )
///     type host_i is interface ( out settings_t req )
///     type kernel_i is interface ( in settings_t requests )
///
///     stage home {
///         opencl <device_index=0, device_type=GPU>
///         actor Scale presents kernel_i {
///             constructor() {}
///             behaviour {
///                 receive r from requests;
///                 receive d from r.input;
///                 gid = get_global_id(0);
///                 d.v[gid] := d.v[gid] * 2.0;
///                 send d on r.output;
///             }
///         }
///         actor Run presents host_i {
///             constructor() {}
///             behaviour {
///                 d = new data_t(new real[8]);
///                 ws = new integer[1] of 8;
///                 gs = new integer[1] of 4;
///                 ia = new in data_t;
///                 back = new in data_t;
///                 to_k = new out data_t;
///                 k_out = new out data_t;
///                 connect to_k to ia;
///                 connect k_out to back;
///                 send new settings_t(ws, gs, ia, k_out) on req;
///                 send d on to_k;
///                 receive dn from back;
///                 stop;
///             }
///         }
///         boot {
///             h = new Run();
///             k = new Scale();
///             connect h.req to k.requests;
///         }
///     }
/// "#;
/// let module = ensemble_lang::parse(src).unwrap();
/// let proofs = ensemble_analysis::proofs_for(&module);
/// // Each work-item touches only `v[gid]`: dimension 0 may be cut
/// // between work-groups, so a scheduler may co-execute this dispatch.
/// assert_eq!(
///     proofs["Scale"].split.class_of(0),
///     Some(DimClass::Splittable)
/// );
/// // A single dispatch site forms no fusable chain.
/// assert!(proofs["Scale"].chain.is_none());
/// ```
pub fn proofs_for(module: &Module) -> BTreeMap<String, KernelProof> {
    analyze(module, "", &Options::default()).kernel_proofs
}

/// Parse, analyse (deny-by-default: any error rejects), and compile,
/// threading residency proofs into the [`CompiledModule`]'s kernel
/// plans. This is the front door the VM and benches use.
pub fn compile_source(src: &str, opts: &Options) -> Result<CompiledModule, GateError> {
    compile_source_gated(src, |module| {
        let report = analyze(module, src, opts);
        if report.has_errors() {
            Err(report.errors())
        } else {
            Ok(CompileOptions {
                residency_proven: report.residency_proven,
                kernel_proofs: report.kernel_proofs,
                proofs: report.proofs,
            })
        }
    })
}

/// Analyse an already-parsed module. `src` is consulted only for
/// `// allow(...)` comment escapes (the lexer strips comments, so the
/// raw text is scanned).
pub fn analyze(module: &Module, src: &str, opts: &Options) -> Report {
    let model = model::build(module);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut residency_proven = BTreeSet::new();

    let Some(stage) = model.stage else {
        return Report::default();
    };

    // ---- host walks ---------------------------------------------------
    let mut summaries: HashMap<&str, ActorSummary> = HashMap::new();
    let mut struct_cons = host::StructCons::new();
    for actor in &stage.actors {
        if actor.opencl.is_some() {
            continue; // kernel actors get the kernel pass instead
        }
        let Some(ports) = model.interfaces.get(actor.interface.as_str()) else {
            continue; // compile reports the unknown interface
        };
        let mut walk = HostWalk::new(&model, ports, false);
        walk.walk(actor);
        diags.extend(walk.diags);
        // E005 for dynamic endpoints: used but never connected.
        for ep in &walk.summary.endpoints {
            if ep.used && !ep.connected {
                let name = if ep.name.is_empty() {
                    "channel endpoint".to_string()
                } else {
                    format!("endpoint `{}`", ep.name)
                };
                diags.push(
                    Diagnostic::error(
                        codes::ORPHAN_CHANNEL,
                        ep.span,
                        format!(
                            "{name} in actor `{}` is used but never connected",
                            actor.name
                        ),
                    )
                    .with_help("add a `connect` wiring this endpoint to a peer".to_string()),
                );
            }
        }
        for (ty, cons) in walk.struct_cons.drain() {
            struct_cons.entry(ty).or_default().extend(cons);
        }
        summaries.insert(actor.name.as_str(), walk.summary);
    }

    // ---- boot walk ----------------------------------------------------
    let boot = {
        let mut walk = HostWalk::new(&model, &[], true);
        walk.walk_boot(&stage.boot);
        walk.harvest_instances();
        diags.extend(walk.diags);
        for ep in &walk.summary.endpoints {
            if ep.used && !ep.connected {
                let name = if ep.name.is_empty() {
                    "channel endpoint".to_string()
                } else {
                    format!("endpoint `{}`", ep.name)
                };
                diags.push(
                    Diagnostic::error(
                        codes::ORPHAN_CHANNEL,
                        ep.span,
                        format!("{name} in the boot block is used but never connected"),
                    )
                    .with_help("add a `connect` wiring this endpoint to a peer".to_string()),
                );
            }
        }
        walk.boot
    };
    let type_of_instance: HashMap<&str, &str> = boot
        .instances
        .iter()
        .map(|(i, t)| (i.as_str(), t.as_str()))
        .collect();

    // ---- static-port orphans (E005) -----------------------------------
    for actor in &stage.actors {
        let Some(ports) = model.interfaces.get(actor.interface.as_str()) else {
            continue;
        };
        let instances: Vec<&str> = boot
            .instances
            .iter()
            .filter(|(_, t)| t == &actor.name)
            .map(|(i, _)| i.as_str())
            .collect();
        if instances.is_empty() {
            continue; // never booted: nothing to wire
        }
        for port in *ports {
            if !host::actor_sends_or_receives(actor, &port.name) {
                continue;
            }
            if host::actor_connects_port(actor, &port.name) {
                continue;
            }
            for inst in &instances {
                let wired = boot.edges.iter().any(|((a, p), (b, q), _)| {
                    (a == inst && p == &port.name) || (b == inst && q == &port.name)
                }) || boot
                    .wired_ports
                    .iter()
                    .any(|(i, p)| i == inst && p == &port.name);
                if !wired {
                    diags.push(
                        Diagnostic::error(
                            codes::ORPHAN_CHANNEL,
                            port.pos,
                            format!(
                                "port `{}` of `{}` (instance `{inst}`) is used but never \
                                 connected",
                                port.name, actor.name
                            ),
                        )
                        .with_help(format!(
                            "add `connect` wiring for `{inst}.{}` in the boot block",
                            port.name
                        )),
                    );
                }
            }
        }
    }

    // ---- unused interface ports (W001) --------------------------------
    for (iface, ports) in &model.interfaces {
        for port in *ports {
            let used_in_actor = stage
                .actors
                .iter()
                .filter(|a| a.interface == *iface)
                .any(|a| host::actor_uses_port(a, &port.name));
            let used_in_boot = boot.edges.iter().any(|((a, p), (b, q), _)| {
                let is_iface = |inst: &str| {
                    type_of_instance
                        .get(inst)
                        .and_then(|t| stage.actors.iter().find(|a| &a.name == t))
                        .is_some_and(|a| a.interface == *iface)
                };
                (p == &port.name && is_iface(a)) || (q == &port.name && is_iface(b))
            });
            if !used_in_actor && !used_in_boot {
                diags.push(
                    Diagnostic::warning(
                        codes::UNUSED_PORT,
                        port.pos,
                        format!("port `{}` of interface `{iface}` is never used", port.name),
                    )
                    .with_help("remove the port or wire it up".to_string()),
                );
            }
        }
    }

    // ---- rendezvous deadlock (E006) -----------------------------------
    diags.extend(deadlock_pass(&model, stage, &boot, &summaries));

    // ---- settings/data routing + kernel checks ------------------------
    let merged_struct_dims = merge_struct_dims(&model, &struct_cons);
    let mut checks: Vec<KernelCheck> = Vec::new();
    for k in &model.kernels {
        let facts = route_facts(k, &model, &boot, &summaries, &merged_struct_dims);
        let data_fields: Vec<String> = match &k.data {
            DataModel::Struct(s) => model.structs[s]
                .fields
                .iter()
                .map(|f| f.name.clone())
                .collect(),
            DataModel::Array { .. } => Vec::new(),
        };
        let mut check = KernelCheck::new(
            &k.actor.name,
            k.req_name,
            k.data_name,
            data_fields,
            k.scalars.iter().map(|s| s.to_string()).collect(),
            facts,
        );
        check.walk(k.body);
        diags.extend(check.diagnostics());
        checks.push(check);
    }

    // ---- proof passes: split (W003), fusion (W004), effects (W005) ----
    // Proof objects are always computed; their diagnostics only surface
    // in proofs mode.
    let mut proofs = ProofSet::default();
    for check in &checks {
        let (sp, ds) = split::prove(check);
        if opts.proofs {
            diags.extend(ds);
        }
        proofs.splits.push(sp);
    }
    let hosts = fusion::walk_hosts(&model, &boot);
    let infos = fusion::kernel_infos(&model, &checks);
    let (fps, roles, ds) = fusion::prove(&hosts, &infos);
    if opts.proofs {
        diags.extend(ds);
    }
    proofs.fusion = fps;
    let (sends, ds) = effects::prove(&hosts);
    if opts.proofs {
        diags.extend(ds);
    }
    proofs.sends = sends;
    let mut kernel_proofs = BTreeMap::new();
    for sp in &proofs.splits {
        kernel_proofs.insert(
            sp.kernel.clone(),
            KernelProof {
                split: sp.clone(),
                chain: roles.get(&sp.kernel).cloned(),
            },
        );
    }

    // ---- mov residency proofs (W002 / CompileOptions) -----------------
    for (name, sm) in &model.structs {
        if !sm.any_mov {
            continue;
        }
        let consumers: Vec<_> = model
            .kernels
            .iter()
            .filter(|k| matches!(&k.data, DataModel::Struct(s) if s == name))
            .collect();
        if consumers.is_empty() {
            continue;
        }
        let dev0 = &consumers[0].device;
        if consumers.iter().all(|k| &k.device == dev0) {
            for k in &consumers {
                residency_proven.insert(k.actor.name.clone());
            }
        } else {
            diags.push(
                Diagnostic::warning(
                    codes::RESIDENCY_UNPROVEN,
                    sm.span,
                    format!(
                        "mov type `{name}` is consumed by kernels on different devices; \
                         device residency cannot be proven and the VM will keep its \
                         runtime bookkeeping"
                    ),
                )
                .with_help(
                    "pin all consumers of this type to one device to enable the \
                     residency fast path"
                        .to_string(),
                ),
            );
        }
    }

    // ---- dedup, allow-filter, sort ------------------------------------
    let allowed_lines = allow_comment_lines(src);
    diags.retain(|d| {
        if opts.allow.contains(d.code) {
            return false;
        }
        let line = d.span.start.line;
        !allowed_lines
            .get(d.code)
            .is_some_and(|lines| lines.contains(&line) || lines.contains(&(line - 1)))
    });
    let mut seen: Vec<(String, u32, u32, String)> = Vec::new();
    diags.retain(|d| {
        let key = (
            d.code.to_string(),
            d.span.start.line,
            d.span.start.col,
            d.message.clone(),
        );
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
    diags.sort_by_key(|d| {
        (
            d.span.start.line,
            d.span.start.col,
            d.code,
            d.message.clone(),
        )
    });

    Report {
        diagnostics: diags,
        residency_proven,
        proofs,
        kernel_proofs,
    }
}

/// Lines carrying `// allow(CODE, ...)` escapes: code → line numbers.
/// The escape applies to findings on the same line or the line below.
fn allow_comment_lines(src: &str) -> HashMap<String, Vec<u32>> {
    let mut out: HashMap<String, Vec<u32>> = HashMap::new();
    for (i, line) in src.lines().enumerate() {
        let Some(idx) = line.find("//") else { continue };
        let comment = &line[idx + 2..];
        let Some(start) = comment.find("allow(") else {
            continue;
        };
        let rest = &comment[start + "allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        for code in rest[..end].split(',') {
            let code = code.trim();
            if !code.is_empty() {
                out.entry(code.to_string()).or_default().push(i as u32 + 1);
            }
        }
    }
    out
}

/// Merge every observed construction of each struct type into
/// per-field dims (agreement keeps the value, conflict forgets it).
fn merge_struct_dims(
    model: &model::Model<'_>,
    cons: &host::StructCons,
) -> HashMap<String, HashMap<String, Vec<Option<i64>>>> {
    let mut out = HashMap::new();
    for (ty, instances) in cons {
        let Some(sm) = model.structs.get(ty.as_str()) else {
            continue;
        };
        let mut fields: HashMap<String, Vec<Option<i64>>> = HashMap::new();
        for (fi, field) in sm.fields.iter().enumerate() {
            let ndims = match &field.ty {
                TypeExpr::Array(_, n) => *n,
                _ => continue,
            };
            let mut merged: Option<Vec<Option<i64>>> = None;
            for inst in instances {
                let dims = inst
                    .get(fi)
                    .cloned()
                    .flatten()
                    .unwrap_or_else(|| vec![None; ndims]);
                merged = Some(match merged {
                    None => dims,
                    Some(prev) => prev
                        .iter()
                        .zip(dims.iter().chain(std::iter::repeat(&None)))
                        .map(|(a, b)| if a == b { *a } else { None })
                        .collect(),
                });
            }
            let mut dims = merged.unwrap_or_else(|| vec![None; ndims]);
            dims.resize(ndims, None);
            fields.insert(field.name.clone(), dims);
        }
        out.insert(ty.clone(), fields);
    }
    out
}

/// Route worksize/groupsize/data-extent facts from the host actors to
/// one kernel, following `send <settings> on <port>` through the boot
/// connection graph.
fn route_facts(
    k: &model::KernelModel<'_>,
    model: &model::Model<'_>,
    boot: &host::BootInfo,
    summaries: &HashMap<&str, ActorSummary>,
    struct_dims: &HashMap<String, HashMap<String, Vec<Option<i64>>>>,
) -> HostFacts {
    let mut facts = HostFacts::default();

    // Settings constructions that flow into this kernel's settings
    // port, found by following boot edges back to sending host actors.
    let mut found: Vec<(&ActorSummary, SettingsCon)> = Vec::new();
    for ((a, p), (b, q), _) in &boot.edges {
        let feeds_kernel = q == k.req_port
            && boot
                .instances
                .iter()
                .any(|(i, t)| i == b && t == &k.actor.name);
        if !feeds_kernel {
            continue;
        }
        let Some((_, ty)) = boot.instances.iter().find(|(i, _)| i == a) else {
            continue;
        };
        let Some(summary) = summaries.get(ty.as_str()) else {
            continue;
        };
        for (port, con) in &summary.settings_sent {
            if port == p {
                found.push((summary, con.clone()));
            }
        }
    }
    if found.is_empty() {
        // No routed worksize: stay fully conservative.
        facts.ws_known = false;
    } else {
        facts.ws_known = true;
        let mut ws_len: Option<Option<i64>> = None;
        let mut ws_fill: Option<Option<i64>> = None;
        let mut gs_fill: Option<Option<i64>> = None;
        for (_, con) in &found {
            let m = |slot: &mut Option<Option<i64>>, v: Option<i64>| {
                *slot = Some(match *slot {
                    None => v,
                    Some(prev) if prev == v => v,
                    _ => None,
                });
            };
            m(&mut ws_len, con.ws.0);
            m(&mut ws_fill, con.ws.1);
            m(&mut gs_fill, con.gs.1);
        }
        facts.ws_len = ws_len.flatten();
        let len = facts.ws_len.unwrap_or(3).clamp(0, 3) as usize;
        for d in 0..len {
            facts.extent[d] = ws_fill.flatten();
            facts.lsize[d] = gs_fill.flatten();
        }
    }

    // Data extents.
    match &k.data {
        DataModel::Struct(s) => {
            if let Some(fields) = struct_dims.get(*s) {
                for (f, dims) in fields {
                    facts.dims.insert(f.clone(), dims.clone());
                }
            } else if let Some(sm) = model.structs.get(*s) {
                for field in sm.fields {
                    if let TypeExpr::Array(_, n) = &field.ty {
                        facts.dims.insert(field.name.clone(), vec![None; *n]);
                    }
                }
            }
        }
        DataModel::Array { ndims } => {
            // Bare-array data: find arrays sent into the settings' `in`
            // endpoint (directly, or via an out port connected to it).
            let mut merged: Option<Vec<Option<i64>>> = None;
            for (summary, con) in &found {
                let Some(ep_id) = con.in_ep else { continue };
                let ep = &summary.endpoints[ep_id];
                for (chan, dims) in &summary.array_sends {
                    let hits = match chan {
                        ChanRef::Ep(id) => *id == ep_id,
                        ChanRef::Port(p) => ep.fed_by_ports.contains(p),
                    };
                    if hits {
                        let mut dims = dims.clone();
                        dims.resize(*ndims, None);
                        merged = Some(match merged {
                            None => dims,
                            Some(prev) => prev
                                .iter()
                                .zip(dims.iter())
                                .map(|(a, b)| if a == b { *a } else { None })
                                .collect(),
                        });
                    }
                }
            }
            facts
                .dims
                .insert(String::new(), merged.unwrap_or_else(|| vec![None; *ndims]));
        }
    }
    facts
}

/// E006: cycles in the "waits on" graph. An instance whose actor's
/// first static-port channel operation is a *receive* waits, before
/// anything else, on whoever is wired into that port; if that chain of
/// first-op receives closes into a cycle, no send can ever happen and
/// the program deadlocks under rendezvous semantics.
fn deadlock_pass(
    model: &model::Model<'_>,
    stage: &ensemble_lang::ast::StageDecl,
    boot: &host::BootInfo,
    summaries: &HashMap<&str, ActorSummary>,
) -> Vec<Diagnostic> {
    use ensemble_lang::token::Span;
    // First channel op per actor type (host actors from summaries where
    // available — same result — kernels and the rest from a scan).
    let mut first: HashMap<&str, (bool, String, Span)> = HashMap::new();
    for actor in &stage.actors {
        let Some(ports) = model.interfaces.get(actor.interface.as_str()) else {
            continue;
        };
        let op = summaries
            .get(actor.name.as_str())
            .and_then(|s| s.first_op.clone())
            .or_else(|| host::first_port_op(actor, ports));
        if let Some(op) = op {
            first.insert(actor.name.as_str(), op);
        }
    }
    // waits[x] = (y, span of x's blocking receive): instance x's first
    // op receives on a port fed (via a boot edge) by instance y.
    let mut waits: HashMap<&str, (&str, Span)> = HashMap::new();
    for (inst, ty) in &boot.instances {
        let Some((true, port, span)) = first.get(ty.as_str()) else {
            continue;
        };
        for ((a, _p), (b, q), _) in &boot.edges {
            if b == inst && q == port {
                waits.insert(inst.as_str(), (a.as_str(), *span));
            }
        }
    }
    // Cycle detection over the functional graph.
    let mut out = Vec::new();
    let mut reported: Vec<&str> = Vec::new();
    for &start in waits.keys() {
        if reported.contains(&start) {
            continue;
        }
        let mut path = vec![start];
        let mut cur = start;
        while let Some(&(next, _)) = waits.get(cur) {
            if let Some(pos) = path.iter().position(|&n| n == next) {
                // Cycle found: path[pos..] + next.
                let cycle: Vec<&str> = path[pos..].to_vec();
                if cycle.iter().any(|n| reported.contains(n)) {
                    break;
                }
                reported.extend(cycle.iter());
                let mut names: Vec<&str> = cycle.clone();
                names.sort();
                let anchor = names[0];
                let span = waits[anchor].1;
                let mut chain = String::new();
                let mut n = anchor;
                loop {
                    chain.push_str(n);
                    let next = waits[n].0;
                    chain.push_str(" -> ");
                    if next == anchor {
                        chain.push_str(anchor);
                        break;
                    }
                    n = next;
                }
                out.push(
                    Diagnostic::error(
                        codes::DEADLOCK_CYCLE,
                        span,
                        format!(
                            "rendezvous deadlock: every actor in the cycle `{chain}` \
                             receives before it sends"
                        ),
                    )
                    .with_help(
                        "make one actor in the cycle send first (seed the pipeline)"
                            .to_string(),
                    ),
                );
                break;
            }
            if path.len() > boot.instances.len() {
                break;
            }
            path.push(next);
            cur = next;
        }
    }
    out
}
